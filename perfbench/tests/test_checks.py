import math

import numpy as np
import pytest

import checks
from infopath.bench import ExperimentConfig, build_instance, run_batch, write_run_outputs
from infopath.gp import JITTER_REL, GaussianProcessBelief, SquaredExponential


def k(a, b, s2=1.0, ell=1.5):
    return s2 * math.exp(-((a[0] - b[0]) ** 2 + (a[1] - b[1]) ** 2) / (2 * ell * ell))


def test_oracle_one_point_by_hand():
    s2, ell, mu0, nu = 2.0, 1.5, 0.5, 0.01
    x1, y1 = (1.0, 2.0), 0.9
    query = [(1.0, 2.0), (2.0, 2.0), (4.0, 0.0)]
    d = s2 + nu + JITTER_REL * s2
    mean, var = checks.dense_posterior(mu0, s2, ell, [x1], [y1], [nu], query)
    for j, q in enumerate(query):
        kq = k(q, x1, s2, ell)
        assert mean[j] == pytest.approx(mu0 + kq * (y1 - mu0) / d, abs=1e-14)
        assert var[j] == pytest.approx(s2 - kq * kq / d, abs=1e-14)


def test_oracle_two_points_by_hand():
    s2, ell, mu0 = 1.0, 1.5, 0.5
    xs, ys, nus = [(0.0, 0.0), (1.0, 0.0)], [1.0, 0.0], [0.04, 0.25]
    jit = JITTER_REL * s2
    a, b, c = s2 + nus[0] + jit, k(xs[0], xs[1]), s2 + nus[1] + jit
    det = a * c - b * b
    inv = [[c / det, -b / det], [-b / det, a / det]]
    query = [(0.0, 0.0), (0.0, 1.0), (3.0, 3.0)]
    mean, var = checks.dense_posterior(mu0, s2, ell, xs, ys, nus, query)
    for j, q in enumerate(query):
        kq = [k(q, xs[0]), k(q, xs[1])]
        r = [ys[0] - mu0, ys[1] - mu0]
        m = mu0 + sum(kq[i] * inv[i][l] * r[l] for i in range(2) for l in range(2))
        v = s2 - sum(kq[i] * inv[i][l] * kq[l] for i in range(2) for l in range(2))
        assert mean[j] == pytest.approx(m, abs=1e-14)
        assert var[j] == pytest.approx(v, abs=1e-14)


def test_oracle_matches_incremental_belief():
    coords = checks.grid_coords(4)
    gp = GaussianProcessBelief(0.5, SquaredExponential(), coords)
    triples = [((1.0, 1.0), 0.2, 0.01), ((2.0, 3.0), 0.8, 1e-8), ((1.0, 1.0), 0.3, 0.04)]
    for loc, val, nu in triples:
        gp = gp.add_measurement(loc, val, nu)
    mean, var = checks.dense_posterior(0.5, 1.0, 1.5, [t[0] for t in triples],
                                       [t[1] for t in triples], [t[2] for t in triples], coords)
    assert np.max(np.abs(mean - gp.query_mean)) < 1e-10
    assert np.max(np.abs(var - gp.query_variance)) < 1e-10


@pytest.fixture(params=["isrs", "rover"])
def written_batch(request, tmp_path):
    cfg = ExperimentConfig(environment=request.param, solver="random", runs=2, base_seed=3,
                           grid_size=5, rocks=4, beacons=6)
    result = run_batch(cfg)
    return cfg, result, write_run_outputs(result, tmp_path)


def steps_of(paths, episode=0):
    header, rows = checks.read_csv(next(p for p in paths if p.name == "steps.csv"))
    return [dict(zip(header, r)) for r in rows if r[0] == str(episode)]


def test_untouched_batch_passes(written_batch):
    cfg, result, paths = written_batch
    problems, gap = checks.check_batch(cfg, result, paths, build_instance)
    assert problems == []
    assert gap < 1e-10


@pytest.mark.parametrize("field,delta", [("budget", -1.0), ("reward", 10.0)])
def test_ledger_rejects_tampered_step(written_batch, field, delta):
    cfg, _, paths = written_batch
    inst = build_instance(cfg, cfg.base_seed)
    steps = steps_of(paths)
    assert checks.ledger_problems(cfg, inst, steps) == []
    steps[len(steps) // 2][field] = repr(float(steps[len(steps) // 2][field]) + delta)
    assert checks.ledger_problems(cfg, inst, steps)


def test_ledger_rejects_teleport(written_batch):
    cfg, _, paths = written_batch
    inst = build_instance(cfg, cfg.base_seed)
    steps = steps_of(paths)
    moves = [s for s in steps if s["action"].startswith("move:")]
    moves[0]["action"] = f"move:{inst.grid_size ** 2 - 1}"
    assert checks.ledger_problems(cfg, inst, steps)


def test_reward_recomputation_rejects_tampered_sum(written_batch):
    cfg, result, paths = written_batch
    ep_csv = next(p for p in paths if p.name == "episodes.csv")
    lines = ep_csv.read_text().splitlines(keepends=True)
    fields = lines[2].split(",")
    fields[5] = repr(float(fields[5]) + 1.0)
    lines[2] = ",".join(fields)
    ep_csv.write_text("".join(lines))
    problems, _ = checks.check_batch(cfg, result, paths, build_instance)
    assert [i for i, msg in problems if "reward sum" in msg] == [0]


def test_csv_width_check_flags_ragged_row(written_batch):
    cfg, result, paths = written_batch
    steps_csv = next(p for p in paths if p.name == "steps.csv")
    steps_csv.write_text(steps_csv.read_text() + "0,1,2\n")
    problems, _ = checks.check_batch(cfg, result, paths, build_instance)
    assert any(i is None and "fields" in msg for i, msg in problems)
