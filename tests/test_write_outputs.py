"""A batch's files against the stdlib writers they must match byte for byte.

``bench.write_run_outputs`` writes step records and finite float arrays from
pre-built formats; ``episodes.json`` must still read exactly as
``json.dumps(_json_safe(doc), sort_keys=True, indent=2)`` plus a newline with
the records as plain dicts, and ``steps.csv`` and ``curves.csv`` exactly as
``csv.writer`` would write their rows.
"""

import csv
import io
import json
import math
from dataclasses import asdict, replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from infopath.bench import STEP_COLUMNS, AggregateResult, _encode_json, _json_safe, _Rendered, \
    _records_json, _write_csv, write_run_outputs
from infopath.episodes import STATUS_ABORTED, STATUS_FAILURE, STATUS_GOAL, EpisodeLog, StepRecord
from infopath.gp import SquaredExponential

SPECIAL_FLOATS = (math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e16, 1e-7, 0.1, 3.0)
# what no format takes: non-finite floats, and numbers of another type
ODD_VALUES = (math.nan, math.inf, -math.inf, 2**70, -2**64, 7, True, np.float64(0.5))
ACTIONS = ("move(3)", "drill", "a,b", 'say "hi"', "line\nbreak", "cr\rlf", "né→", "")
NUMBER_FIELDS = ("step", "x", "y", "remaining_budget", "true_reward", "trace_of_variance",
                 "rmse")

finite = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                   st.sampled_from([x for x in SPECIAL_FLOATS if math.isfinite(x)]))
floats = st.one_of(st.floats(), st.sampled_from(SPECIAL_FLOATS))
odd = st.one_of(st.sampled_from(ODD_VALUES), st.integers(min_value=-2**100, max_value=2**100),
                floats.map(np.float64))
actions = st.one_of(
    st.sampled_from(ACTIONS),
    st.text(st.sampled_from(',"\r\n ;é→x')),  # what csv.writer quotes, and non-ASCII
    st.text(st.characters(codec="utf-8")),
)


def mostly(typical, rare):
    """``typical`` four times in five, else ``rare``."""
    return st.integers(0, 4).flatmap(lambda i: typical if i else rare)


# mostly what an episode logs, an int step and finite floats, now and then an odd value
numbers = mostly(finite, odd)
records = st.builds(
    StepRecord, step=mostly(st.integers(0, 50), odd), node=st.integers(0, 99),
    x=numbers, y=numbers, action=actions, remaining_budget=numbers, true_reward=numbers,
    trace_of_variance=numbers, rmse=numbers)


def arrays(shape):
    return st.one_of(hnp.arrays(np.float64, shape, elements=finite),
                     hnp.arrays(np.float64, shape, elements=floats),
                     hnp.arrays(np.int64, shape))


@st.composite
def beliefs(draw):
    m = draw(st.integers(0, 6))
    return SimpleNamespace(
        prior_mean=draw(floats),
        kernel=SquaredExponential(draw(st.floats(0.1, 5.0)), draw(st.floats(0.1, 5.0))),
        measured_locations=draw(arrays((m, 2))),
        measurements=draw(arrays(m)),
        noise_variances=draw(arrays(m)),
    )


logs = st.builds(
    EpisodeLog,
    records=st.lists(records, max_size=5).map(tuple),
    status=st.sampled_from((STATUS_GOAL, STATUS_FAILURE, STATUS_ABORTED)),
    seed=st.integers(0, 2**70),
    initial_trace=floats,
    initial_rmse=floats,
    final_belief=beliefs(),
)


def batch(logs, curves, config) -> AggregateResult:
    """A result holding ``logs`` and the four curve arrays ``curves``."""
    return AggregateResult(
        config=config, episode_rewards=(), statuses=(), mean_reward=0.0, std_reward=0.0,
        failures=0, mean_reward_success=None, mean_final_rmse=0.0, mean_final_trace=0.0,
        steps=np.arange(1, len(curves[0]) + 1), trace_mean=curves[0], trace_std=curves[1],
        rmse_mean=curves[2], rmse_std=curves[3], seconds_per_episode=0.0, logs=tuple(logs))


@st.composite
def results(draw):
    length = draw(st.integers(0, 5))
    return batch(draw(st.lists(logs, max_size=3)), [draw(arrays(length)) for _ in range(4)],
                 {"environment": draw(st.text(max_size=5)), "budget": draw(floats), "runs": 3})


STEP_KEYS = tuple(column for column, _ in STEP_COLUMNS)


def record_values(r):
    return [getattr(r, name) for _, name in STEP_COLUMNS]


def reference_json(result) -> str:
    doc = {
        "config": result.config,
        "episodes": [
            {
                "seed": log.seed,
                "status": log.status,
                "reward": log.reward,
                "true_reward_sum": log.true_reward_sum,
                "records": [dict(zip(STEP_KEYS, record_values(r)))
                            for r in log.records],
                "final_belief": {
                    "prior_mean": log.final_belief.prior_mean,
                    "kernel": {"kind": log.final_belief.kernel.kind,
                               **asdict(log.final_belief.kernel)},
                    "measured_locations": log.final_belief.measured_locations.tolist(),
                    "measurements": log.final_belief.measurements.tolist(),
                    "noise_variances": log.final_belief.noise_variances.tolist(),
                },
            }
            for log in result.logs
        ],
    }
    return json.dumps(_json_safe(doc), sort_keys=True, indent=2) + "\n"


def reference_csv(config, header, rows) -> str:
    out = io.StringIO(newline="")
    out.write("# config " + json.dumps(_json_safe(config), sort_keys=True) + "\n")
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return out.getvalue()


def read(path) -> str:
    with path.open(newline="") as f:
        return f.read()


def check_files(result, out_dir):
    write_run_outputs(result, out_dir)
    assert (out_dir / "episodes.json").read_bytes() == reference_json(result).encode("ascii")
    assert read(out_dir / "steps.csv") == reference_csv(
        result.config, ("episode", *STEP_KEYS),
        ((i, *record_values(r)) for i, log in enumerate(result.logs) for r in log.records))
    curves = (result.steps, result.trace_mean, result.trace_std, result.rmse_mean,
              result.rmse_std)
    assert read(out_dir / "curves.csv") == reference_csv(
        result.config, ("step", "trace_mean", "trace_std", "rmse_mean", "rmse_std"),
        zip(*(c.tolist() for c in curves)))


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # inf - inf in a sum
@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(result=results())
def test_batch_files_match_the_stdlib_writers(result, tmp_path):
    check_files(result, tmp_path)


def test_each_odd_value_and_action_matches_the_stdlib_writers(tmp_path):
    """Every odd value in every number field of an otherwise plain record,
    every action csv.writer quotes, and every kind of array the formats
    leave to the general walk."""
    plain = StepRecord(step=3, node=7, x=1.0, y=2.0, action="move(3)", remaining_budget=12.5,
                       true_reward=0.1, trace_of_variance=5e-324, rmse=-0.0)
    records = [replace(plain, **{name: value}) for name in NUMBER_FIELDS for value in ODD_VALUES]
    records += [replace(plain, action=action) for action in ACTIONS]
    located = np.array([[1.0, 2.0], [3.0, 1e16]])
    beliefs = [
        SimpleNamespace(prior_mean=0.5, kernel=SquaredExponential(), measured_locations=loc,
                        measurements=values, noise_variances=values)
        for loc, values in ((located, np.array([0.1, -0.0])),
                            (np.zeros((0, 2)), np.zeros(0)),
                            (np.array([[1.0, np.nan], [3.0, 4.0]]), np.array([np.inf, 1.0])),
                            (np.array([[1, 2], [3, 4]]), np.array([1, 2])),
                            (np.array([[0.5, 1.0]]), np.array([True])))
    ]
    logs = [EpisodeLog(records=tuple(records), status=STATUS_GOAL, seed=0, final_belief=b)
            for b in beliefs]
    logs.append(EpisodeLog(records=(), status=STATUS_FAILURE, seed=1, final_belief=beliefs[0]))
    check_files(batch(logs, [np.array([1.0, np.nan])] * 4, {"runs": 5}), tmp_path)


def test_each_episode_is_handed_on_when_made():
    """The writer holds no more than one episode's records text at a time."""
    record = StepRecord(step=1, node=0, x=1.0, y=2.0, action="drill", remaining_budget=3.0,
                        true_reward=0.0, trace_of_variance=4.0, rmse=0.5)
    doc = {"episodes": [{"records": _Rendered(_records_json, (record,) * 5)}] * 40}
    chunks = []
    _encode_json(doc, chunks.append)
    assert "".join(chunks) == json.dumps(
        {"episodes": [{"records": [dict(zip(STEP_KEYS, record_values(record)))] * 5}] * 40},
        sort_keys=True, indent=2) + "\n"
    assert max(chunk.count('"step"') for chunk in chunks) == 5


class Broken(Exception):
    """What the failing row iterator raises."""


@pytest.mark.parametrize("error", [Broken, KeyboardInterrupt])
def test_a_failing_row_leaves_no_csv(error, tmp_path):
    def rows():
        yield from ((i, i / 7) for i in range(5000))  # past the file's first buffer
        raise error

    with pytest.raises(error):
        _write_csv(tmp_path / "new.csv", {"runs": 1}, ("i", "x"), rows())
    kept = tmp_path / "kept.csv"
    kept.write_text("old\n")
    with pytest.raises(error):
        _write_csv(kept, {"runs": 1}, ("i", "x"), rows())
    assert sorted(p.name for p in tmp_path.iterdir()) == ["kept.csv"]
    assert kept.read_text() == "old\n"
