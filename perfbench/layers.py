"""Which calls into the program the benchmark wraps in spans, and the
per-layer metrics it derives from them.

The layers are the package's modules. ``patches(tracer, full=False)`` wraps
only what the end-to-end metrics need: each episode and each policy
decision, one span per step. ``full=True`` adds a span around every public
function of every layer for the traced run.
"""

from __future__ import annotations

import math
import statistics
from array import array

from infopath import bench, graph, gp, isrs, mcts, mdp, rover

EPISODE = "episodes.run_episode"
DECIDE = "policies.decide"
KEPT = (EPISODE, DECIDE)
M_BUCKETS = (("m0-31", 0, 32), ("m32-63", 32, 64), ("m64up", 64, math.inf))


class TreeAudit:
    """Shape of every tree ``mcts.search`` returns, and widening-cap checks."""

    def __init__(self):
        self.violations: list[str] = []
        self.trees: list[tuple[int, int]] = []  # (belief nodes, deepest node) per plan

    def __call__(self, span, args, root):
        config = args[2]
        if root.visits != config.iterations:
            self.violations.append(f"root visits {root.visits} != {config.iterations} iterations")
        nodes = 0
        deepest = 0
        stack = [(root, 0)]  # the depth-first walk of mcts.iter_belief_nodes, with depths
        while stack:
            node, depth = stack.pop()
            nodes += 1
            deepest = max(deepest, depth)
            if len(node.children) > _cap(config.k_action, config.alpha_action, node.visits):
                self.violations.append(f"{len(node.children)} actions at {node.visits} visits")
            for an in node.children:
                if len(an.children) > _cap(config.k_state, config.alpha_state, an.visits):
                    self.violations.append(f"{len(an.children)} successors at {an.visits} visits")
                stack.extend((child, depth + 1) for child, _ in an.children)
        self.trees.append((nodes, deepest))


def _cap(k, alpha, visits) -> int:
    return math.ceil(k * visits ** alpha) if visits else 0


class GpUpdates:
    """Per-call sizes of ``add_measurements``: conditioning size m before the
    call, sites k, query points q, and the self time."""

    def __init__(self):
        self.calls: list[tuple[int, int, int, float]] = []

    def __call__(self, span, args, result):
        belief, triples = args[0], args[1]
        self.calls.append((len(belief.measurements), len(triples), len(belief.query_set),
                           span.self_time))


def patches(tracer, full: bool, audit=None, gp_updates=None):
    """(owner, attribute, wrapper) triples for ``tracer.patched``."""
    w = tracer.wrap

    def build_policy(cfg, inst, _orig=bench.build_policy):
        return w(DECIDE, _orig(cfg, inst), note=lambda span, args, action: action is not None)

    out = [
        (bench, "build_policy", build_policy),
        (bench, "run_episode", w(EPISODE, bench.run_episode)),
    ]
    if not full:
        return out

    def method(cls, attr, name, note=None):
        out.append((cls, attr, w(name, cls.__dict__[attr], note)))

    for attr in ("run_batch", "build_instance", "build_mdp", "write_run_outputs"):
        out.append((bench, attr, w(f"bench.{attr}", getattr(bench, attr))))
    out.append((graph.LocationGraph, "costs_from",
                w("graph.costs_from", graph.LocationGraph.costs_from)))
    for attr in ("generative_sample", "transition", "belief_reward", "is_terminal",
                 "feasible_actions"):
        method(mdp.BeliefMdp, attr, f"mdp.{attr}")
    method(gp.GaussianProcessBelief, "add_measurements", "gp.add_measurements", gp_updates)
    method(gp.GaussianProcessBelief, "__init__", "gp.GaussianProcessBelief")
    for attr in ("plan", "simulate", "rollout", "action_prog_widen"):
        out.append((mcts, attr, w(f"mcts.{attr}", getattr(mcts, attr))))
    out.append((mcts, "search", w("mcts.search", mcts.search, audit)))
    for cls, layer, attrs in (
        (isrs.IsrsMdp, "isrs", ("expected_state_reward", "measurement_sites")),
        (rover.RoverMdp, "rover", ("expected_state_reward", "measurement_sites",
                                   "probability_unseen")),
    ):
        for attr in attrs:
            method(cls, attr, f"{layer}.{attr}")
        for attr in ("true_observation", "belief_rmse"):
            method(cls, attr, f"episodes.{attr}")
    return out


# ----------------------------------------------------------------------
# metrics

class Steps:
    """Step and decision times of a phase.

    A step runs from one policy call to the next, or to the end of the
    episode after the last call. ``fold`` turns the kept episode and decision
    spans into plain numbers and drops the spans, so the benchmark's own
    memory does not grow with the number of batches a run completes.
    """

    def __init__(self):
        self.step_s = array("d")
        self.decide_s = array("d")
        self.episode_s = 0.0

    def fold(self, tracer):
        decisions = tracer.kept[DECIDE]
        episodes = tracer.kept[EPISODE]
        j = 0
        for ep in episodes:
            mine = []
            while j < len(decisions) and decisions[j].start < ep.end:
                mine.append(decisions[j])
                j += 1
            for k, d in enumerate(mine):
                if d.note:  # the call returned an action
                    end = mine[k + 1].start if k + 1 < len(mine) else ep.end
                    self.step_s.append(end - d.start)
                    self.decide_s.append(d.duration)
            self.episode_s += ep.duration
        decisions.clear()
        episodes.clear()


def p90(values) -> float:
    return statistics.quantiles(values, n=10)[8]


def end_to_end(steps: Steps, wl, timed_s, missions) -> dict:
    """End-to-end metrics of one phase."""
    if wl.plans:
        iterations = wl.batches[0].solver_config.iterations
        sims = statistics.median(iterations / d for d in steps.decide_s)
    else:  # no planner: environment steps per second of episode time
        sims = len(steps.step_s) / steps.episode_s
    return {
        "step_ms_p50": (1e3 * statistics.median(steps.step_s), "ms"),
        "step_ms_p90": (1e3 * p90(steps.step_s), "ms"),
        "missions_per_min": (60.0 * missions / timed_s, "1/min"),
        "sims_per_s": (sims, "1/s"),
    }


def _per(num, den) -> float:
    return num / den if den else 0.0


def per_layer(tracer, steps: Steps, audit, gp_updates, missions, output_bytes) -> dict:
    """Per-layer metrics of a traced phase; 0 where a layer did not run."""
    t = tracer
    us = 1e6
    plans = t.calls("mcts.plan")
    sims = t.calls("mcts.simulate", "mcts.search")
    tree_steps = t.calls("mdp.generative_sample", "mcts.simulate")
    rollout_steps = t.calls("mdp.generative_sample", "mcts.rollout")
    samples = t.calls("mdp.generative_sample")
    trees = audit.trees

    def self_us(name):
        return _per(us * t.self_total(name), t.calls(name))

    out = {
        "mcts.plan_calls": (plans, "count"),
        "mcts.simulations": (sims, "count"),
        "mcts.tree_nodes_per_plan": (_per(sum(n for n, _ in trees), len(trees)), "count"),
        "mcts.max_depth_per_plan": (_per(sum(d for _, d in trees), len(trees)), "count"),
        "mcts.tree_steps_per_plan": (_per(tree_steps, plans), "count"),
        "mcts.rollout_steps_per_plan": (_per(rollout_steps, plans), "count"),
        "mcts.tree_self_us_per_sim": (
            _per(us * (t.self_total("mcts.simulate") + t.self_total("mcts.action_prog_widen")),
                 sims), "us"),
        "mcts.rollout_self_us_per_step": (_per(us * t.self_total("mcts.rollout"), rollout_steps),
                                          "us"),
        "mcts.rollout_share": (_per(t.total("mcts.rollout"), t.total("mcts.plan")), "ratio"),
        "mdp.generative_sample_self_us": (self_us("mdp.generative_sample"), "us"),
        "mdp.transition_self_us": (self_us("mdp.transition"), "us"),
        "mdp.belief_reward_self_us": (self_us("mdp.belief_reward"), "us"),
        "mdp.is_terminal_self_us": (self_us("mdp.is_terminal"), "us"),
        "mdp.is_terminal_per_sample": (_per(t.calls("mdp.is_terminal"), samples), "ratio"),
        "mdp.feasible_actions_self_us": (self_us("mdp.feasible_actions"), "us"),
        "mdp.feasible_actions_per_sample": (_per(t.calls("mdp.feasible_actions"), samples),
                                            "ratio"),
        "gp.add_measurements_calls": (len(gp_updates.calls), "count"),
        "gp.sites_per_update": (_per(sum(k for _, k, _, _ in gp_updates.calls),
                                     len(gp_updates.calls)), "count"),
    }
    for label, lo, hi in M_BUCKETS:
        bucket = [s for m, _, _, s in gp_updates.calls if lo <= m < hi]
        out[f"gp.add_measurements_us.{label}"] = (_per(us * sum(bucket), len(bucket)), "us")
    out["gp.computed_kb_per_update"] = (
        _per(sum(8 * ((m + k) * q + 2 * q) for m, k, q, _ in gp_updates.calls) / 1024,
             len(gp_updates.calls)), "KB")
    out["gp.batch_rebuilds"] = (t.calls("gp.GaussianProcessBelief", "gp.add_measurements"),
                                "count")
    for name in ("isrs.expected_state_reward", "isrs.measurement_sites",
                 "rover.expected_state_reward", "rover.probability_unseen",
                 "rover.measurement_sites", "episodes.true_observation",
                 "episodes.belief_rmse"):
        out[f"{name}_self_us"] = (self_us(name), "us")
    out["policies.decision_ms_p50"] = (1e3 * statistics.median(steps.decide_s), "ms")
    out["episodes.step_overhead_us"] = (
        us * statistics.median(s - d for s, d in zip(steps.step_s, steps.decide_s)), "us")
    out["bench.build_ms_per_mission"] = (
        _per(1e3 * (t.total("bench.build_instance") + t.total("bench.build_mdp")), missions), "ms")
    out["bench.write_outputs_s"] = (_per(t.total("bench.write_run_outputs"), missions), "s")
    out["bench.output_mb"] = (_per(output_bytes / 1e6, missions), "MB")
    out["graph.costs_from_calls"] = (t.calls("graph.costs_from"), "count")
    out["graph.costs_from_self_us"] = (self_us("graph.costs_from"), "us")
    return out
