"""Batch experiment harness: seeded episode batches, parameter sweeps over the
benchmark grids, aggregation, and deterministic CSV/JSON emission.

Every output byte is a pure function of the experiment config: episode i uses
instance seed base_seed+i, timing never reaches the files, and the config
snapshot embedded in each file omits invocation plumbing such as the output
directory.
"""

from __future__ import annotations

import csv
import json
import math
import numbers
import operator
import os
import time
from dataclasses import asdict, dataclass, field, fields, is_dataclass, replace
from pathlib import Path

import numpy as np

from . import isrs as isrs_mod
from . import kernel
from . import rover as rover_mod
from .episodes import STATUS_GOAL, EpisodeLog, run_episode
from .isrs import IsrsInstance, IsrsMdp, generate_isrs
from .mcts import SolverConfig
from .mdp import SensingModality
from .policies import MctsPolicy, RasterPolicy, random_policy
from .rover import RoverInstance, RoverMdp, generate_rover

ENVIRONMENTS = ("isrs", "rover")
SOLVERS = ("mcts-dpw", "random", "raster")

DEFAULT_LAMBDA = {"isrs": isrs_mod.DEFAULT_INFORMATION_WEIGHT,
                  "rover": rover_mod.DEFAULT_INFORMATION_WEIGHT}
DEFAULT_BUDGET = {"isrs": isrs_mod.DEFAULT_BUDGET, "rover": rover_mod.DEFAULT_BUDGET}

# Default sweep grids mirroring the benchmark tables: rocks/beacons x p for the
# rock search, budget x spectrometer noise for the rover.
ISRS_SWEEP_CELLS = tuple(
    {"rocks": k, "beacons": b, "p_good": p}
    for (k, b) in ((10, 10), (10, 25), (25, 10), (25, 25))
    for p in (0.5, 0.75, 1.0)
)
ROVER_SWEEP_CELLS = tuple(
    {"budget": bud, "spectrometer_sigma": s}
    for bud in (30.0, 60.0, 100.0)
    for s in (0.1, 0.5, 1.0)
)


class ConfigError(ValueError):
    """Invalid experiment configuration."""


def _finite_non_negative(x) -> bool:
    return math.isfinite(x) and x >= 0


# what a field of ExperimentConfig may hold, by its annotation; bools are not numbers here
_FIELD_TYPES = {
    "str": ((str,), "a string"),
    "int": ((numbers.Integral,), "an integer"),
    "float": ((numbers.Real,), "a number"),
    "float | None": ((numbers.Real, type(None)), "a number or null"),
    "SolverConfig": ((SolverConfig,), "a solver config"),
}


def _check_types(prefix: str, cls, values: dict):
    """Raise a ``ConfigError`` naming the first field of dataclass ``cls``
    whose value in ``values`` is not of the field's type; bools are not
    numbers here."""
    for f in fields(cls):
        if f.name in values:
            types, what = _FIELD_TYPES[f.type]
            value = values[f.name]
            if isinstance(value, bool) or not isinstance(value, types):
                raise ConfigError(f"{prefix}{f.name} must be {what}, not {type(value).__name__}")


@dataclass(frozen=True)
class ExperimentConfig:
    environment: str = "isrs"
    solver: str = "mcts-dpw"
    runs: int = 50
    base_seed: int = 0
    grid_size: int = 10
    rocks: int = 10
    beacons: int = 10
    p_good: float = 0.5
    beta: int = 10
    spectrometer_sigma: float = 0.1
    budget: float | None = None
    information_weight: float | None = None
    solver_config: SolverConfig = field(default_factory=SolverConfig)

    def validate(self):
        _check_types("", ExperimentConfig, vars(self))
        _check_types("solver_config.", SolverConfig, vars(self.solver_config))
        if self.environment not in ENVIRONMENTS:
            raise ConfigError(f"unknown environment {self.environment!r}")
        if self.solver not in SOLVERS:
            raise ConfigError(f"unknown solver {self.solver!r}")
        if self.solver == "raster" and self.environment != "rover":
            raise ConfigError("the raster policy applies only to the rover environment")
        if self.runs < 1:
            raise ConfigError("runs must be >= 1")
        if self.base_seed < 0:
            raise ConfigError("base_seed must be non-negative")
        if self.grid_size < 2:
            raise ConfigError("grid size must be >= 2")
        if not 0.0 <= self.p_good <= 1.0:
            raise ConfigError("p must lie in [0, 1]")
        if self.environment == "isrs":
            n, cells = self.grid_size, self.grid_size * self.grid_size
            if self.rocks < 0 or self.beacons < 0:
                raise ConfigError("rocks and beacons must be non-negative")
            if self.rocks + 2 > cells:  # rocks avoid the origin, which is start and goal
                raise ConfigError(f"{self.rocks} rocks do not fit on a {n}x{n} grid")
            if self.beacons > cells:
                raise ConfigError(f"{self.beacons} beacons do not fit on a {n}x{n} grid")
        if self.beta < 2:
            raise ConfigError("beta must be >= 2")
        if not _finite_non_negative(self.spectrometer_sigma):
            raise ConfigError("spectrometer_sigma must be finite and non-negative")
        for name in ("budget", "information_weight"):  # None: the environment default
            value = getattr(self, name)
            if value is not None and not _finite_non_negative(value):
                raise ConfigError(f"{name} must be finite and non-negative")

    def resolved_budget(self) -> float:
        return DEFAULT_BUDGET[self.environment] if self.budget is None else float(self.budget)

    def resolved_information_weight(self) -> float:
        if self.information_weight is None:
            return DEFAULT_LAMBDA[self.environment]
        return float(self.information_weight)

    def to_dict(self) -> dict:
        d = {
            "environment": self.environment,
            "solver": self.solver,
            "runs": self.runs,
            "base_seed": self.base_seed,
            "grid_size": self.grid_size,
            "budget": self.resolved_budget(),
            "information_weight": self.resolved_information_weight(),
            "solver_config": asdict(self.solver_config),
        }
        if self.environment == "isrs":
            d.update(rocks=self.rocks, beacons=self.beacons, p_good=self.p_good)
        else:
            d.update(beta=self.beta, spectrometer_sigma=self.spectrometer_sigma)
        return d

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        if not isinstance(data, dict):
            raise ConfigError(f"a config must be a JSON object, not {type(data).__name__}")
        data = dict(data)
        solver_dict = data.pop("solver_config", {})
        known = {f for f in cls.__dataclass_fields__ if f != "solver_config"}
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        if not isinstance(solver_dict, dict):
            raise ConfigError(
                f"solver_config must be a JSON object, not {type(solver_dict).__name__}")
        # the types first, before SolverConfig compares the values
        _check_types("solver_config.", SolverConfig, solver_dict)
        try:
            solver_config = SolverConfig(**solver_dict)
            cfg = cls(solver_config=solver_config, **data)
        except (TypeError, ValueError) as exc:
            raise ConfigError(str(exc)) from exc
        cfg.validate()
        return cfg


# ----------------------------------------------------------------------
# instance / policy construction

def build_instance(cfg: ExperimentConfig, seed: int):
    if cfg.environment == "isrs":
        return generate_isrs(cfg.grid_size, cfg.rocks, cfg.beacons, cfg.p_good, seed,
                             budget=cfg.resolved_budget())
    return generate_rover(cfg.grid_size, cfg.beta, cfg.spectrometer_sigma, seed,
                          budget=cfg.resolved_budget())


def build_mdp(cfg: ExperimentConfig, inst):
    cls = IsrsMdp if cfg.environment == "isrs" else RoverMdp
    return cls(inst, information_weight=cfg.resolved_information_weight())


def build_policy(cfg: ExperimentConfig, inst):
    if cfg.solver == "mcts-dpw":
        return MctsPolicy(cfg.solver_config)
    if cfg.solver == "random":
        return random_policy
    return RasterPolicy(inst)


# ----------------------------------------------------------------------
# batches and aggregation

@dataclass(frozen=True)
class AggregateResult:
    """Summary of one seeded batch.

    ``mean_reward`` averages sentinel-carrying episode rewards over every run
    (failures contribute the sentinel); ``mean_reward_success`` averages the
    true reward over successful episodes only and is what the sweep tables
    report next to the failure count. Timing stays in memory only.
    """

    config: dict
    episode_rewards: tuple[float, ...]
    statuses: tuple[str, ...]
    mean_reward: float
    std_reward: float
    failures: int
    mean_reward_success: float | None
    mean_final_rmse: float
    mean_final_trace: float
    steps: np.ndarray
    trace_mean: np.ndarray
    trace_std: np.ndarray
    rmse_mean: np.ndarray
    rmse_std: np.ndarray
    seconds_per_episode: float
    logs: tuple[EpisodeLog, ...]


def _padded(series_list, fallbacks, length):
    out = np.empty((len(series_list), length))
    for i, (series, fb) in enumerate(zip(series_list, fallbacks)):
        k = len(series)
        out[i, :k] = series
        out[i, k:] = series[-1] if k else fb
    return out


def curve_stats(logs):
    """Per-step mean and stddev of Tr(Sigma) and RMSE across episodes.

    Shorter episodes are padded with their final values out to the longest
    episode; an empty episode is padded with its initial belief values.
    """
    length = max((len(log.records) for log in logs), default=0)
    steps = np.arange(1, length + 1)
    if length == 0:
        z = np.zeros(0)
        return steps, z, z, z, z
    traces = _padded([log.trace_series() for log in logs],
                     [log.initial_trace for log in logs], length)
    rmses = _padded([log.rmse_series() for log in logs],
                    [log.initial_rmse for log in logs], length)
    return (steps, traces.mean(axis=0), traces.std(axis=0),
            rmses.mean(axis=0), rmses.std(axis=0))


def run_batch(cfg: ExperimentConfig) -> AggregateResult:
    """Run ``cfg.runs`` episodes on seeds base_seed+i and aggregate them."""
    cfg.validate()
    snapshot = cfg.to_dict()
    logs = []
    kernel.lib()  # the first call builds the kernel, outside the episodes' clock
    t0 = time.perf_counter()
    for i in range(cfg.runs):
        seed = cfg.base_seed + i
        inst = build_instance(cfg, seed)
        mdp = build_mdp(cfg, inst)
        policy = build_policy(cfg, inst)
        logs.append(run_episode(mdp, policy, seed, config=snapshot))
    seconds = (time.perf_counter() - t0) / cfg.runs
    rewards = np.array([log.reward for log in logs])
    statuses = tuple(log.status for log in logs)
    success = [log.true_reward_sum for log in logs if log.status == STATUS_GOAL]
    steps, trace_mean, trace_std, rmse_mean, rmse_std = curve_stats(logs)
    return AggregateResult(
        config=snapshot,
        episode_rewards=tuple(float(r) for r in rewards),
        statuses=statuses,
        mean_reward=float(rewards.mean()),
        std_reward=float(rewards.std()),
        failures=sum(s != STATUS_GOAL for s in statuses),
        mean_reward_success=float(np.mean(success)) if success else None,
        mean_final_rmse=float(np.mean([log.final_rmse for log in logs])),
        mean_final_trace=float(np.mean([log.final_trace for log in logs])),
        steps=steps,
        trace_mean=trace_mean,
        trace_std=trace_std,
        rmse_mean=rmse_mean,
        rmse_std=rmse_std,
        seconds_per_episode=seconds,
        logs=tuple(logs),
    )


# ----------------------------------------------------------------------
# serialization

INSTANCE_TYPES = {"isrs": IsrsInstance, "rover": RoverInstance}

# (column, StepRecord field): the steps.csv header and the episodes.json record keys
STEP_COLUMNS = (
    ("step", "step"), ("loc_x", "x"), ("loc_y", "y"), ("action", "action"),
    ("budget", "remaining_budget"), ("reward", "true_reward"),
    ("trace", "trace_of_variance"), ("rmse", "rmse"),
)
_STEP_KEYS = tuple(column for column, _ in STEP_COLUMNS)
_step_values = operator.attrgetter(*(name for _, name in STEP_COLUMNS))


def _json_safe(obj):
    if isinstance(obj, dict):
        return {k: _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(v) for v in obj]
    if isinstance(obj, (np.floating, float)):
        x = float(obj)
        return None if not math.isfinite(x) else x
    if isinstance(obj, (str, int)):
        return obj
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return _json_safe(obj.tolist())
    if isinstance(obj, frozenset):
        return _json_safe(sorted(obj))
    if is_dataclass(obj):
        return {f.name: _json_safe(getattr(obj, f.name)) for f in fields(obj)}
    return obj


_encode_str = json.encoder.encode_basestring_ascii
_float_repr = float.__repr__
_int_repr = int.__repr__
_CHUNK_PARTS = 4096  # pieces of text buffered before a write


def _encode_json(obj, write) -> None:
    """Pass the text of ``json.dumps(_json_safe(obj), sort_keys=True, indent=2)``
    and a newline to ``write``, walking ``obj`` once.

    Leaves are formatted by the functions the stdlib encoder calls
    (``encode_basestring_ascii``, ``float.__repr__``, ``int.__repr__``), so the
    bytes match; values of any other type go through ``_json_safe`` first. Dict
    keys must be strings. Text is handed on whenever a container closes with
    more than ``_CHUNK_PARTS`` pieces pending, so neither the document nor the
    list of its pieces is ever held whole.
    """
    parts = []
    append = parts.append

    def value(o, nl):
        t = type(o)
        if t is float:
            append(_float_repr(o) if o - o == 0.0 else "null")  # o - o is nan for nan and inf
        elif t is str:
            append(_encode_str(o))
        elif t is int:
            append(_int_repr(o))
        elif t is dict:
            mapping(o, nl)
        elif t is list or t is tuple:
            sequence(o, nl)
        elif o is None:
            append("null")
        elif o is True:
            append("true")
        elif o is False:
            append("false")
        else:
            safe = _json_safe(o)
            if safe is not o:
                value(safe, nl)
            elif isinstance(o, str):
                append(_encode_str(o))
            elif isinstance(o, int):
                append(_int_repr(o))
            else:
                raise TypeError(f"Object of type {t.__name__} is not JSON serializable")

    def close(text):
        append(text)
        if len(parts) > _CHUNK_PARTS:
            write("".join(parts))
            parts.clear()

    def mapping(d, nl):
        if not d:
            append("{}")
            return
        inner = nl + "  "
        sep = "{" + inner
        for k, v in sorted(d.items()):  # _encode_str raises TypeError on a non-str key
            append(sep + _encode_str(k) + ": ")
            sep = "," + inner
            value(v, inner)
        close(nl + "}")

    def sequence(seq, nl):
        if not seq:
            append("[]")
            return
        inner = nl + "  "
        sep = "[" + inner
        for v in seq:
            append(sep)
            sep = "," + inner
            value(v, inner)
        close(nl + "]")

    try:
        value(obj, "\n")
        append("\n")
        write("".join(parts))
    finally:
        # the nested functions hold each other through their cells: unbind
        # them, so that ``write``'s file goes now, not at a cyclic collection
        del value, mapping, sequence, close


def write_json(obj, path: Path) -> Path:
    """Write ``obj`` as ``json.dumps(_json_safe(obj), sort_keys=True, indent=2)``
    plus a newline, byte for byte, without building the whole text.

    The text goes to a temporary file beside ``path`` that replaces it only
    once complete, so an unencodable value leaves no partial file.
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with tmp.open("w") as f:
            _encode_json(obj, f.write)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return path


def _write_csv(path: Path, snapshot: dict, header, rows) -> Path:
    """A ``# config`` comment line, the header, then the rows.

    The csv module writes Python floats as their repr, so values round-trip
    exactly; None becomes an empty field and text with commas is quoted.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as f:
        f.write("# config " + json.dumps(_json_safe(snapshot), sort_keys=True) + "\n")
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    return path


def belief_to_dict(gp) -> dict:
    """JSON form of a GP belief: prior, kernel, and the raw measurement lists."""
    return {
        "prior_mean": gp.prior_mean,
        "kernel": {"kind": gp.kernel.kind, **asdict(gp.kernel)},
        "measured_locations": gp.measured_locations.tolist(),
        "measurements": gp.measurements.tolist(),
        "noise_variances": gp.noise_variances.tolist(),
    }


def instance_to_dict(inst) -> dict:
    """JSON form of an environment instance, enough to re-run any episode: the
    instance's fields plus ``environment``."""
    for kind, cls in INSTANCE_TYPES.items():
        if type(inst) is cls:
            return {"environment": kind, **_json_safe(inst)}
    raise TypeError(f"unknown instance type {type(inst).__name__}")


def instance_from_dict(data: dict):
    """Rebuild an instance from ``instance_to_dict`` output through its
    constructor, so the constructor's checks run on the loaded data."""
    data = dict(data)
    kind = data.pop("environment", None)
    if kind not in INSTANCE_TYPES:
        raise ConfigError(f"unknown instance environment {kind!r}")
    if kind == "isrs":
        data.update(
            rock_nodes=tuple(data["rock_nodes"]),
            good_rocks=frozenset(data["good_rocks"]),
            beacons=frozenset(data["beacons"]),
            modalities=tuple(SensingModality(**m) for m in data["modalities"]),
        )
    return INSTANCE_TYPES[kind](**data)


# ----------------------------------------------------------------------
# file emission

def write_curves_csv(logs, out_dir, snapshot: dict) -> Path:
    """Write the per-step mean/stddev curves of a batch of logs to curves.csv."""
    steps, *curves = curve_stats(logs)
    rows = zip(steps.tolist(), *(c.tolist() for c in curves))
    return _write_csv(Path(out_dir) / "curves.csv", snapshot,
                      ("step", "trace_mean", "trace_std", "rmse_mean", "rmse_std"), rows)


def write_run_outputs(result: AggregateResult, out_dir) -> list[Path]:
    """Emit config.json, episodes.csv, steps.csv, curves.csv and episodes.json."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    snapshot, logs = result.config, result.logs

    config_json = write_json(snapshot, out_dir / "config.json")
    episodes_csv = _write_csv(
        out_dir / "episodes.csv", snapshot,
        ("episode", "seed", "status", "steps", "reward", "true_reward_sum",
         "final_trace", "final_rmse"),
        ((i, log.seed, log.status, len(log.records), log.reward, log.true_reward_sum,
          log.final_trace, log.final_rmse) for i, log in enumerate(logs)))
    steps_csv = _write_csv(
        out_dir / "steps.csv", snapshot, ("episode", *_STEP_KEYS),
        ((i, *_step_values(r)) for i, log in enumerate(logs) for r in log.records))
    curves_csv = write_curves_csv(logs, out_dir, snapshot)
    episodes_json = write_json({
        "config": snapshot,
        "episodes": [
            {
                "seed": log.seed,
                "status": log.status,
                "reward": log.reward,
                "true_reward_sum": log.true_reward_sum,
                "records": [dict(zip(_STEP_KEYS, _step_values(r))) for r in log.records],
                "final_belief": belief_to_dict(log.final_belief),
            }
            for log in logs
        ],
    }, out_dir / "episodes.json")
    return [config_json, episodes_csv, steps_csv, curves_csv, episodes_json]


# ----------------------------------------------------------------------
# sweeps

def default_sweep(environment: str):
    if environment == "isrs":
        return ISRS_SWEEP_CELLS, ("mcts-dpw", "random")
    if environment == "rover":
        return ROVER_SWEEP_CELLS, ("mcts-dpw", "random", "raster")
    raise ConfigError(f"unknown environment {environment!r}")


def run_sweep(base_cfg: ExperimentConfig, cells=None, solvers=None):
    """One aggregate per (cell, solver); a failing cell is recorded in-row and
    the sweep continues. Returns (rows, cell_keys, solvers)."""
    default_cells, default_solvers = default_sweep(base_cfg.environment)
    cells = list(cells) if cells is not None else list(default_cells)
    solvers = tuple(solvers) if solvers is not None else default_solvers
    if not cells:
        raise ConfigError("sweep grid must be non-empty")
    cell_keys = sorted({k for cell in cells for k in cell})
    rows = []
    for cell in cells:
        row = {"cell": dict(cell), "results": {}}
        for solver in solvers:
            cfg = replace(base_cfg, solver=solver, **cell)
            try:
                row["results"][solver] = run_batch(cfg)
            except Exception as exc:  # keep sweeping; the row records the failure
                row["results"][solver] = f"error: {exc}"
        rows.append(row)
    return rows, cell_keys, solvers


def write_sweep_csv(rows, cell_keys, solvers, out_dir, snapshot) -> Path:
    """Table layout: one row per parameter cell, one column group per solver."""
    header = list(cell_keys)
    for solver in solvers:
        header += [f"{solver}_mean", f"{solver}_std", f"{solver}_failures"]
    table = []
    for row in rows:
        values = [row["cell"].get(k, "") for k in cell_keys]
        for solver in solvers:
            res = row["results"][solver]
            if isinstance(res, AggregateResult):
                succ = [r for r, s in zip(res.episode_rewards, res.statuses) if s == STATUS_GOAL]
                std = float(np.std(succ)) if succ else None
                values += [res.mean_reward_success, std, res.failures]
            else:
                values += [res, "", ""]
        table.append(values)
    return _write_csv(Path(out_dir) / "sweep.csv", snapshot, header, table)
