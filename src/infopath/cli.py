"""Command-line experiment harness.

Subcommands:
  run           one seeded batch of episodes for a single (environment, solver)
  sweep         the benchmark parameter grid, one aggregate row per cell
  gen-instance  write a single environment instance as JSON

Flags override values from --config (a JSON experiment config). Outputs are
deterministic functions of the configuration; exit codes are 0 on success,
2 on configuration errors, 3 on runtime failures.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from .bench import (
    ENVIRONMENTS,
    SOLVERS,
    ConfigError,
    ExperimentConfig,
    build_instance,
    instance_to_dict,
    run_batch,
    run_sweep,
    write_json,
    write_run_outputs,
    write_sweep_csv,
)
from .mcts import SolverConfig

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3


def _add_common_flags(p: argparse.ArgumentParser):
    # each dest is an ExperimentConfig or SolverConfig field name
    p.add_argument("--env", dest="environment", choices=ENVIRONMENTS, help="environment")
    p.add_argument("--solver", choices=SOLVERS, help="policy")
    p.add_argument("--k", dest="rocks", type=int, help="number of rocks (isrs)")
    p.add_argument("--b", dest="beacons", type=int, help="number of beacons (isrs)")
    p.add_argument("--p", dest="p_good", type=float, help="probability a rock is good (isrs)")
    p.add_argument("--budget", type=float, help="mission budget")
    p.add_argument("--sigma", dest="spectrometer_sigma", type=float,
                   help="spectrometer noise stddev (rover)")
    p.add_argument("--beta", type=int, help="number of sample types (rover)")
    p.add_argument("--grid", dest="grid_size", type=int, help="grid side length")
    p.add_argument("--runs", type=int, help="episodes per batch")
    p.add_argument("--seed", dest="base_seed", type=int,
                   help="base seed; episode i uses seed+i")
    p.add_argument("--iters", dest="iterations", type=int,
                   help="tree-search iterations per step")
    p.add_argument("--depth", dest="max_depth", type=int, help="tree-search horizon")
    p.add_argument("--lambda", dest="information_weight", type=float,
                   help="information reward weight")
    p.add_argument("--config", type=Path, help="JSON experiment config")
    p.add_argument("--out", type=Path, default=Path("results"), help="output directory")


def _flag_values(args, cls) -> dict:
    """The flags given on the command line that name a field of ``cls``."""
    given = vars(args)
    return {f.name: given[f.name] for f in dataclasses.fields(cls)
            if given.get(f.name) is not None}


def _build_config(args) -> ExperimentConfig:
    if args.config is not None:
        try:
            data = json.loads(Path(args.config).read_text())
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}") from exc
        cfg = ExperimentConfig.from_dict(data)
    else:
        cfg = ExperimentConfig()
    updates = _flag_values(args, ExperimentConfig)
    solver_updates = _flag_values(args, SolverConfig)
    if solver_updates:
        try:
            updates["solver_config"] = dataclasses.replace(cfg.solver_config, **solver_updates)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    if updates:
        cfg = dataclasses.replace(cfg, **updates)
    cfg.validate()
    return cfg


def _cmd_run(args) -> int:
    cfg = _build_config(args)
    result = run_batch(cfg)
    paths = write_run_outputs(result, args.out)
    mean = "n/a" if result.mean_reward_success is None else f"{result.mean_reward_success:.3f}"
    print(f"{cfg.environment}/{cfg.solver}: runs={cfg.runs} "
          f"mean_reward={mean} failures={result.failures} "
          f"mean_final_rmse={result.mean_final_rmse:.4f}")
    print(f"  {result.seconds_per_episode:.2f} s/episode", file=sys.stderr)
    for p in paths:
        print(f"  wrote {p}")
    return EXIT_OK


def _cmd_sweep(args) -> int:
    cfg = _build_config(args)
    solvers = (args.solver,) if args.solver else None
    rows, cell_keys, solvers = run_sweep(cfg, solvers=solvers)
    snapshot = cfg.to_dict()
    snapshot.pop("solver", None)  # the table carries one column group per solver
    path = write_sweep_csv(rows, cell_keys, solvers, args.out, snapshot)
    print(f"wrote {path}")
    return EXIT_OK


def _cmd_gen_instance(args) -> int:
    cfg = _build_config(args)
    inst = build_instance(cfg, cfg.base_seed)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = write_json(instance_to_dict(inst), out_dir / "instance.json")
    print(f"wrote {path}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="infopath",
        description="Budget-constrained informative path planning benchmarks.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn, helptext in (
        ("run", _cmd_run, "run one batch of seeded episodes"),
        ("sweep", _cmd_sweep, "run the benchmark parameter grid"),
        ("gen-instance", _cmd_gen_instance, "write one environment instance as JSON"),
    ):
        p = sub.add_parser(name, help=helptext)
        _add_common_flags(p)
        p.set_defaults(fn=fn)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on bad usage
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # unexpected runtime failure
        print(f"runtime failure: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
