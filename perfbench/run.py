"""Benchmark command for infopath.

    python3 perfbench/run.py --workload isrs-mission --seed 1 --seconds 30 --trace 0

Runs one workload through the program's own batch path, ``bench.run_batch``
followed by ``bench.write_run_outputs``, in whole rounds until the timed
phase is as close to ``--seconds`` as whole rounds allow and has logged at
least 100 steps. Every written
batch is checked against computations made apart from the program (see
checks.py). With ``--trace 0`` the last line of standard output is a JSON
object with the end-to-end metrics; with ``--trace 1`` the run replays a
fixed number of rounds untraced and then traced, and reports the per-layer
metrics and the tracing overhead instead. The checks run in forked children,
so the memory they take is not counted in ``peak_rss_mb``. Exit status: 0 when every check
passed, 1 when a check failed, 2 on bad arguments or a checkout without
``src/infopath``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pickle
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import boot

PINNED = boot.boot()  # before anything below loads numpy

import infopath  # noqa: E402

boot.check_imported_from_src(infopath)

import numpy  # noqa: E402
import scipy  # noqa: E402
from infopath import bench  # noqa: E402

import checks  # noqa: E402
import layers  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 9
PROBE_TIMEOUT_S = 60
OUT = Path(__file__).resolve().parent / "out"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def setup_seconds(workload: str) -> float:
    """Median over SETUP_PROBES fresh interpreters of the time from process
    start to the point where the first mission could start."""
    probe = Path(__file__).resolve().parent / "probe.py"
    samples = []
    for _ in range(SETUP_PROBES):
        t0 = time.monotonic()
        done = subprocess.run([sys.executable, str(probe), workload], capture_output=True,
                              text=True, timeout=PROBE_TIMEOUT_S, check=True)
        samples.append(float(done.stdout.split()[-1]) - t0)
    return statistics.median(samples)


def in_child(fn, *args):
    """Return ``fn(*args)`` computed in a forked child process.

    What ``fn`` allocates is then counted in the child's peak resident set,
    not in this process's. An exception in the child is raised here as a
    RuntimeError with the child's traceback.
    """
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:  # child
        os.close(read_fd)
        try:
            payload = pickle.dumps((True, fn(*args)))
        except BaseException:
            payload = pickle.dumps((False, traceback.format_exc()))
        with os.fdopen(write_fd, "wb") as fh:
            fh.write(payload)
        os._exit(0)
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as fh:
        payload = fh.read()
    os.waitpid(pid, 0)
    ok, value = pickle.loads(payload) if payload else (False, "child exited without a result")
    if not ok:
        raise RuntimeError(f"check failed to run:\n{value}")
    return value


def digest(paths) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


class Phase:
    """Batches run under one set of spans, with their checks and digests."""

    def __init__(self, wl, full: bool):
        self.wl = wl
        self.tracer = tracer.Tracer(keep=layers.KEPT)
        self.audit = layers.TreeAudit()
        self.gp_updates = layers.GpUpdates()
        self.steps = layers.Steps()
        self.patches = layers.patches(self.tracer, full, self.audit, self.gp_updates)
        self.timed_s = 0.0
        self.missions = 0
        self.failed = 0
        self.output_bytes = 0
        self.worst_gap = 0.0
        self.digests: list[str] = []
        self.problems: list[str] = []

    def batch(self, cfg, out_dir: Path):
        with tracer.patched(self.patches):
            t0 = time.perf_counter()
            result = bench.run_batch(cfg)
            paths = bench.write_run_outputs(result, out_dir)
            self.timed_s += time.perf_counter() - t0
        self.steps.fold(self.tracer)
        self.output_bytes += sum(p.stat().st_size for p in paths)
        self.digests.append(digest(paths))
        problems, gap = in_child(checks.check_batch, cfg, result, paths, bench.build_instance)
        problems += [(None, v) for v in self.audit.violations]
        self.audit.violations.clear()
        self.worst_gap = max(self.worst_gap, gap)
        self.missions += cfg.runs
        if any(i is None for i, _ in problems):
            self.failed += cfg.runs
        else:
            self.failed += len({i for i, _ in problems})
        label = f"{cfg.environment}/{cfg.solver} seeds {cfg.base_seed}-{cfg.base_seed + cfg.runs - 1}"
        self.problems += [f"{label} episode {i}: {msg}" for i, msg in problems]
        print(f"batch {len(self.digests) - 1} {label} sha256 {self.digests[-1]}")

    def run(self, seed: int, out_dir: Path, *, seconds=None, rounds=None):
        """Run ``rounds`` whole rounds, or else whole rounds until the timed
        work is as close to ``seconds`` as whole rounds allow and at least
        MIN_STEPS steps were logged."""
        r = 0
        while True:
            if rounds is not None:
                if r == rounds:
                    return
            elif (r > 0 and len(self.steps.step_s) >= workloads.MIN_STEPS
                  and seconds - self.timed_s < 0.5 * self.timed_s / r):
                return  # less than half a mean round left
            for cfg in self.wl.round_configs(seed, r):
                self.batch(cfg, out_dir)
            r += 1


def main(argv=None) -> int:
    args = parse_args(argv)
    wl = workloads.WORKLOADS[args.workload]
    out_dir = OUT / wl.name
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    print(f"blas: {', '.join(f'{v}=1' for v in PINNED['vars'])} set before numpy loaded: "
          f"{PINNED['set_before_numpy']}")
    print(f"machine: nproc {len(os.sched_getaffinity(0))}, python {platform.python_version()}, "
          f"numpy {numpy.__version__}, scipy {scipy.__version__}")

    if args.trace == 0:
        setup_s = setup_seconds(wl.name)
        phase = Phase(wl, full=False)
        phase.run(args.seed, out_dir, seconds=args.seconds)
        metrics = layers.end_to_end(phase.steps, wl, phase.timed_s, phase.missions)
        metrics["setup_s"] = (setup_s, "s")
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
        phases = [phase]
    else:
        plain = Phase(wl, full=False)
        plain.run(args.seed, out_dir, rounds=wl.traced_rounds)
        traced = Phase(wl, full=True)
        traced.run(args.seed, out_dir, rounds=wl.traced_rounds)
        if traced.digests != plain.digests:
            traced.problems.append("traced outputs differ from untraced outputs")
            traced.failed = traced.missions
        metrics = layers.per_layer(traced.tracer, traced.steps, traced.audit, traced.gp_updates,
                                   traced.missions, traced.output_bytes)
        base = layers.end_to_end(plain.steps, wl, plain.timed_s, plain.missions)
        with_spans = layers.end_to_end(traced.steps, wl, traced.timed_s, traced.missions)
        for name, (value, unit) in base.items():
            metrics[f"trace.overhead.{name}"] = (with_spans[name][0] - value, unit)
            print(f"{name}: untraced {value:.6g} traced {with_spans[name][0]:.6g} {unit}")
        phases = [plain, traced]

    attempted = sum(p.missions for p in phases)
    failed = sum(p.failed for p in phases)
    run_digest = hashlib.sha256("".join(phases[-1].digests).encode()).hexdigest()
    worst_gap = max(p.worst_gap for p in phases)
    print(f"outputs sha256 {run_digest} over {len(phases[-1].digests)} batches")
    print(f"largest gap to the dense GP oracle: {worst_gap:.3g}")
    problems = [msg for p in phases for msg in p.problems]
    for msg in problems[:20]:
        print(f"check failed: {msg}", file=sys.stderr)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in sorted(metrics.items())},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
