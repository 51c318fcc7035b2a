"""Importing infopath and running episodes load no scipy module, and only
the first GP update builds the compiled kernel.

scipy's triangular solve is only needed by batch rebuilds and ``posterior()``,
so ``gp`` imports it on first use. One fresh interpreter checks, in order,
what is loaded after the import, after a random-policy episode, and after a
posterior, and the posterior values against pins taken before the import
moved. The import and a config validation, the benchmark's set-up probe,
must start no process and load no kernel: the kernel is compiled on the
first workspace update, which the episode makes.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

SCRIPT = """
import json, sys

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

import os, subprocess
spawned = []
popen_init, fork = subprocess.Popen.__init__, os.fork

def recording_init(self, args, *rest, **kwargs):
    spawned.append(args)
    popen_init(self, args, *rest, **kwargs)

def recording_fork():
    spawned.append("fork")
    return fork()

subprocess.Popen.__init__, os.fork = recording_init, recording_fork

import infopath, infopath.cli
from infopath.bench import ExperimentConfig
ExperimentConfig(environment="rover", solver="mcts-dpw").validate()
seen = {"import": scipy_modules(), "import_spawned": list(spawned),
        "import_kernel": sys.modules["infopath.kernel"]._state is not None,
        "import_so": [m for m in open("/proc/self/maps").read().split() if m.endswith("_kernel.so")]}

from infopath.episodes import run_episode
from infopath.isrs import IsrsMdp, generate_isrs
from infopath.policies import random_policy
log = run_episode(IsrsMdp(generate_isrs(6, 5, 4, 0.5, seed=4, budget=16.0)), random_policy, seed=4)
seen["episode"] = scipy_modules()
seen["episode_kernel"] = sys.modules["infopath.kernel"]._state is not None
seen["episode_measurements"] = len(log.final_belief.measurements)

from infopath.gp import GaussianProcessBelief, SquaredExponential
kernel = SquaredExponential(1.3, 1.1)
coords = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)]
chained = GaussianProcessBelief(0.5, kernel, coords).add_measurement(
    (1.0, 0.0), 0.9, 0.01).add_measurement((0.0, 1.0), 0.2, 0.05)
seen["chained_linalg"] = "scipy.linalg" in sys.modules
posteriors = {"chained": chained.posterior()}
seen["posterior_linalg"] = "scipy.linalg" in sys.modules
built = GaussianProcessBelief(0.5, kernel, coords, [(1.0, 0.0), (0.5, 0.5), (0.0, 1.0)],
                              [0.9, 0.4, 0.2], [0.01, 0.02, 0.05])
posteriors["built"] = built.posterior([(0.25, 0.75), (2.0, 1.5)])
seen["values"] = {name: [[v.hex() for v in p.mean.tolist()],
                         [v.hex() for v in p.covariance.ravel().tolist()]]
                  for name, p in posteriors.items()}
print(json.dumps(seen))
"""

# Mean and row-major covariance, as float.hex, from the cdist/solve_triangular
# code that imported scipy at module level.
PINNED = {
    "chained": [
        ["0x1.1b75d3b3253b2p-1", "0x1.ca481e3ba8ab2p-1", "0x1.c5945267f6240p-3"],
        ["0x1.0aad9c69df008p-1", "0x1.30af32da03a00p-8", "0x1.695a1bea09640p-6",
         "0x1.30af32da03a00p-8", "0x1.449e684cdbf00p-7", "0x1.9cd9cff5bb000p-13",
         "0x1.695a1bea09640p-6", "0x1.9cd9cff5bb000p-13", "0x1.8708258efa700p-5"],
    ],
    "built": [
        ["0x1.070746e9758d0p-2", "0x1.15fa6b0eecf41p-1"],
        ["0x1.59bbe06bb7440p-6", "0x1.4540ddca2c900p-10",
         "0x1.4540ddca2c900p-10", "0x1.33e797fab2bdbp+0"],
    ],
}


def test_scipy_loads_only_when_a_posterior_needs_a_solve():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", SCRIPT], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    seen = json.loads(done.stdout.splitlines()[-1])
    assert seen["import"] == []
    assert seen["import_spawned"] == []  # nothing compiled
    assert seen["import_kernel"] is False and seen["import_so"] == []  # nothing loaded
    assert seen["episode_kernel"] is True  # the first update tried the build
    assert seen["episode"] == []
    assert seen["episode_measurements"] > 0  # the episode did update its GP
    assert seen["chained_linalg"] is False  # rank-1 updates solve nothing
    assert seen["posterior_linalg"] is True
    assert seen["values"] == PINNED
