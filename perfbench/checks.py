"""Output checks, computed apart from the program.

Every check reads the files that ``bench.write_run_outputs`` wrote, redoes
the computation with plain numpy from the instance's ground truth, and
returns problems as ``(episode index or None, message)`` pairs. None marks a
problem that belongs to the whole batch.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

from infopath.gp import JITTER_REL

TOL = 1e-8  # absolute, on posterior means, variances, RMSE and budgets
GOAL = "reached-goal"


# ----------------------------------------------------------------------
# dense GP oracle

def se_kernel(a, b, signal_variance, lengthscale) -> np.ndarray:
    a = np.asarray(a, dtype=float).reshape(-1, 2)
    b = np.asarray(b, dtype=float).reshape(-1, 2)
    dx = a[:, 0, None] - b[None, :, 0]
    dy = a[:, 1, None] - b[None, :, 1]
    d2 = dx * dx + dy * dy
    return signal_variance * np.exp(-d2 / (2.0 * lengthscale * lengthscale))


def dense_posterior(prior_mean, signal_variance, lengthscale, x, y, nu, query):
    """Posterior mean and variance at ``query`` by one dense linear solve.

    The measurement system carries each measurement's own noise plus the
    program's relative jitter, JITTER_REL * signal variance, on its diagonal.
    """
    query = np.asarray(query, dtype=float).reshape(-1, 2)
    x = np.asarray(x, dtype=float).reshape(-1, 2)
    y = np.asarray(y, dtype=float)
    if len(y) == 0:
        return np.full(len(query), float(prior_mean)), np.full(len(query), float(signal_variance))
    a = se_kernel(x, x, signal_variance, lengthscale)
    a += np.diag(np.asarray(nu, dtype=float) + JITTER_REL * signal_variance)
    kxq = se_kernel(x, query, signal_variance, lengthscale)
    sol = np.linalg.solve(a, np.column_stack([y - prior_mean, kxq]))
    mean = prior_mean + kxq.T @ sol[:, 0]
    var = signal_variance - np.einsum("ij,ij->j", kxq, sol[:, 1:])
    return mean, var


# ----------------------------------------------------------------------
# written files

def read_csv(path: Path):
    """Header and rows of a written CSV, skipping '#' comment lines."""
    with open(path, newline="") as fh:
        lines = [line for line in fh if not line.startswith("#")]
    rows = list(csv.reader(lines))
    return rows[0], rows[1:]


def csv_width_problems(paths) -> list:
    out = []
    for path in paths:
        if path.suffix != ".csv":
            continue
        header, rows = read_csv(path)
        for i, row in enumerate(rows):
            if len(row) != len(header):
                out.append((None, f"{path.name} row {i + 1} has {len(row)} fields "
                                  f"under a {len(header)}-column header"))
    return out


# ----------------------------------------------------------------------
# ground truth

def grid_coords(n: int) -> np.ndarray:
    return np.array([(x, y) for y in range(n) for x in range(n)], dtype=float)


def truth_and_cells(cfg, inst):
    """(cells, true values) the program's RMSE is taken over."""
    n = inst.grid_size
    if cfg.environment == "isrs":
        cells = list(inst.rock_nodes)
        return cells, np.array([1.0 if c in inst.good_rocks else 0.0 for c in cells])
    cells = list(range(n * n))
    return cells, np.array([inst.true_map[c % n, c // n] for c in cells])


def action_cost(cfg, inst, node: int, action: str) -> float:
    """Cost of a logged action, from the instance; raises on an illegal one."""
    n = inst.grid_size
    kind, _, arg = action.partition(":")
    if kind == "move":
        target = int(arg)
        if abs(target % n - node % n) + abs(target // n - node // n) != 1:
            raise ValueError(f"move from {node} to {target} is not to a neighbour")
        return inst.movement_cost if cfg.environment == "isrs" else inst.step_cost
    if cfg.environment == "isrs":
        if node not in inst.beacons:
            raise ValueError(f"{action} at {node}, which is no beacon")
        costs = {m.name: m.cost for m in inst.modalities}
        return costs[arg]
    if arg != "drill":
        raise ValueError(f"unknown rover action {action}")
    return inst.drill_cost


def step_reward(cfg, inst, node: int, action: str, memory: set) -> float:
    """Ground-truth reward of one logged action; updates ``memory``."""
    kind, _, arg = action.partition(":")
    if cfg.environment == "isrs":
        if kind != "move" or int(arg) not in inst.rock_nodes:
            return 0.0
        rock = int(arg)
        reward = 10.0 if rock in inst.good_rocks and rock not in memory else -10.0
        memory.add(rock)
        return reward
    if arg != "drill":
        return 0.0
    n = inst.grid_size
    value = float(inst.true_map[node % n, node // n])
    kind_index = int(round(min(max(value, 0.0), 1.0) * (inst.beta - 1)))
    reward = 1.0 if kind_index not in memory else -1.0
    memory.add(kind_index)
    return reward


def ledger_problems(cfg, inst, steps) -> list[str]:
    """Budget, location and reward ledger of one episode's steps.csv rows.

    ``steps`` are dicts with loc_x, loc_y, action, budget and reward.
    Returns messages, empty when every step agrees with the recomputation.
    """
    n = inst.grid_size
    node, budget, memory = inst.start, float(inst.budget), set()
    out = []
    for s in steps:
        try:
            cost = action_cost(cfg, inst, node, s["action"])
        except (ValueError, KeyError) as exc:
            out.append(f"step {s['step']}: {exc}")
            return out
        expected_reward = step_reward(cfg, inst, node, s["action"], memory)
        if s["action"].startswith("move:"):
            node = int(s["action"][5:])
        budget -= cost
        if abs(float(s["budget"]) - budget) > TOL:
            out.append(f"step {s['step']}: budget {s['budget']} != recomputed {budget!r}")
        if budget < -TOL:
            out.append(f"step {s['step']}: budget below 0 ({budget!r})")
        if (float(s["loc_x"]), float(s["loc_y"])) != (float(node % n), float(node // n)):
            out.append(f"step {s['step']}: location ({s['loc_x']}, {s['loc_y']}) != node {node}")
        if float(s["reward"]) != expected_reward:
            out.append(f"step {s['step']}: reward {s['reward']} != recomputed {expected_reward}")
    return out


# ----------------------------------------------------------------------
# one written batch

def check_batch(cfg, result, paths, build_instance) -> tuple[list, float]:
    """Check every output of one batch. Returns (problems, largest oracle gap)."""
    files = {p.name: p for p in paths}
    problems = csv_width_problems(paths)
    _, ep_rows = read_csv(files["episodes.csv"])
    step_header, step_rows = read_csv(files["steps.csv"])
    doc = json.loads(files["episodes.json"].read_text())
    steps_by_episode: dict[int, list[dict]] = {}
    for row in step_rows:
        if len(row) == len(step_header):
            rec = dict(zip(step_header, row))
            steps_by_episode.setdefault(int(rec["episode"]), []).append(rec)
    if not (len(ep_rows) == len(doc["episodes"]) == len(result.logs) == cfg.runs):
        problems.append((None, f"{len(ep_rows)} episode rows, {len(doc['episodes'])} "
                               f"JSON episodes, {len(result.logs)} logs for {cfg.runs} runs"))
        return problems, math.inf
    worst = 0.0
    for i, (row, ep, log) in enumerate(zip(ep_rows, doc["episodes"], result.logs)):
        _, seed, status, n_steps, _, reward_sum, final_trace, final_rmse = row
        steps = steps_by_episode.get(i, [])
        if int(seed) != cfg.base_seed + i:
            problems.append((i, f"seed {seed} != {cfg.base_seed + i}"))
            continue
        if status != GOAL or ep["status"] != GOAL:
            problems.append((i, f"status {status}"))
        if not (int(n_steps) == len(steps) == len(ep["records"]) == len(log.records)):
            problems.append((i, f"step counts differ: episodes.csv {n_steps}, steps.csv "
                                f"{len(steps)}, episodes.json {len(ep['records'])}"))
            continue
        if not steps:
            problems.append((i, "episode logged no steps"))
            continue
        inst = build_instance(cfg, int(seed))
        problems += [(i, msg) for msg in ledger_problems(cfg, inst, steps)]
        recomputed = sum(float(s["reward"]) for s in steps)
        if float(reward_sum) != recomputed or ep["true_reward_sum"] != recomputed:
            problems.append((i, f"reward sum {reward_sum} != {recomputed}"))

        belief = ep["final_belief"]
        kern = belief["kernel"]
        mean, var = dense_posterior(belief["prior_mean"], kern["signal_variance"],
                                    kern["lengthscale"], belief["measured_locations"],
                                    belief["measurements"], belief["noise_variances"],
                                    grid_coords(inst.grid_size))
        gp = log.final_belief
        cells, truth = truth_and_cells(cfg, inst)
        rmse = float(np.sqrt(np.mean((mean[cells] - truth) ** 2)))
        gaps = {
            "mean": float(np.max(np.abs(gp.query_mean - mean))),
            "variance": float(np.max(np.abs(gp.query_variance - var))),
            "trace": max(abs(float(final_trace) - var.sum()),
                         abs(float(steps[-1]["trace"]) - var.sum())),
            "rmse": max(abs(float(final_rmse) - rmse), abs(float(steps[-1]["rmse"]) - rmse)),
        }
        for what, gap in gaps.items():
            if not gap <= TOL:
                problems.append((i, f"final belief {what} differs from the dense oracle by {gap:.3g}"))
        worst = max(worst, *gaps.values())
    return problems, worst
