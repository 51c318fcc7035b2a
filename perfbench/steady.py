"""Steadiness check: two sets of benchmark runs on different seeds, run
interleaved, with each end-to-end metric's median, quartiles and spread.

    python3 perfbench/steady.py

Every workload of BENCHMARK.json runs RUNS times per set, each run for the
run length BENCHMARK.json sets. Set A uses seeds 1..RUNS, set B seeds
101..100+RUNS; run i of set A is followed by run i of set B. The spread of a set is the distance between the
first and third quartile (statistics.quantiles, n=4) as a share of the
median. The shift is how much worse set B's median is than set A's, as a
share of set A's. Results go to perfbench/out/steady.json.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
RUNS = 10
SET_B_OFFSET = 100


def run_once(workload, seed, seconds):
    t0 = time.monotonic()
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, timeout=600, cwd=HERE.parent)
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {done.returncode}:\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    result["wall_s"] = time.monotonic() - t0
    return result


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "values": values}


def main():
    seconds = BENCHMARK["run_seconds"]
    names = [w["name"] for w in BENCHMARK["workloads"]]
    metrics = {m["name"]: m for m in BENCHMARK["end_to_end"]}
    report = {}
    for name in names:
        sets = {"A": [], "B": []}
        for i in range(1, RUNS + 1):
            for label, seed in (("A", i), ("B", SET_B_OFFSET + i)):
                result = run_once(name, seed, seconds)
                if not result["correct"] or result["failed"]:
                    raise SystemExit(f"{name} seed {seed}: checks failed")
                sets[label].append(result)
                print(f"{name} set {label} seed {seed} ({result['wall_s']:.1f} s): " + ", ".join(
                    f"{m}={v['value']:.5g}" for m, v in result["metrics"].items()), flush=True)
        report[name] = {}
        for metric, spec in metrics.items():
            a = summary([r["metrics"][metric]["value"] for r in sets["A"]])
            b = summary([r["metrics"][metric]["value"] for r in sets["B"]])
            sign = 1 if spec["better"] == "lower" else -1
            shift = sign * (b["median"] - a["median"]) / a["median"]
            report[name][metric] = {"A": a, "B": b, "shift": shift}
            print(f"{name:15s} {metric:17s} A {a['median']:.5g} [{a['q1']:.5g}, {a['q3']:.5g}] "
                  f"spread {a['spread']:.3f} | B {b['median']:.5g} spread {b['spread']:.3f} | "
                  f"shift {shift:+.3f} (bound {spec['bound']})", flush=True)
    out = HERE / "out" / "steady.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(report, indent=1) + "\n")


if __name__ == "__main__":
    main()
