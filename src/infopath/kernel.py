"""The compiled step kernel, built on first use, and the fallback to Python.

``_kernel.c`` runs the rank-1 GP updates of ``gp._rank1_update`` and whole
MCTS-DPW searches over an MDP's location tables by integer action id, every
simulation of a plan in one call: the widening caps, UCB selection, tree
steps and uniform-random rollouts, with static steps and the drills and rock
visits of ``infopath.mdp``'s step kinds. The Python search
(``mcts.simulate``, ``mcts.rollout`` and ``BeliefMdp.generative_sample``)
is its reference; it also runs when the kernel cannot, and reruns a
compiled plan in which a pivot collapsed.

The first call to ``lib()`` compiles the kernel with the machine's C
compiler into a private temporary directory, against numpy's random library
and headers, loads it with ``ctypes.PyDLL`` and hands it the
``dgemv``/``ddot`` of the BLAS numpy itself loaded. ``FLAGS`` build it at
-O3, which vectorises the rank-1 update's loop over the query points and
the pairwise trace sum, and with -ffp-contract=off and no -ffast-math, so
that every operation rounds as numpy's does. Before use it must match the
Python kernel bit for bit on a few updates and draws, and its libm's
``erf``, ``rint``, ``log`` and ``pow`` must match ``math.erf``, ``round``,
``math.log`` and Python's ``float ** float``. If anything fails (no
compiler, a BLAS other than numpy's bundled scipy-openblas, a check that
differs), ``lib()`` returns None and the Python kernel runs. Importing the
package builds nothing.

``KERNEL`` is read-only: "compiled", or "python: <reason>". Reading it
builds the kernel if no update has yet.
"""

from __future__ import annotations

import ctypes
import itertools
import math
import os
import sys
import tempfile
import types
from pathlib import Path

import numpy as np

COMPILER = "gcc"
FLAGS = ("-O3", "-ffp-contract=off", "-fPIC", "-shared", "-Wl,--exclude-libs,ALL")
SOURCE = Path(__file__).with_name("_kernel.c")
BLAS = "scipy-openblas"  # numpy's bundled ILP64 OpenBLAS, whose cblas symbols end in 64_

_state = None  # (kernel or None, fallback reason) once tried


# an action's step kind in ``StepTables.kind``: the enum of ``tables_t``
STATIC, DRILL, VISIT = range(3)
# widening exponents at which the load check compares libm's pow with Python's
ALPHAS = (0.0, 0.1, 0.25, 1 / 3, 0.5, 0.75, 0.9)


class StepTables(ctypes.Structure):
    """An MDP's location tables as the compiled search reads them:
    ``tables_t`` of ``_kernel.c``."""

    _fields_ = (
        [(name, ctypes.c_void_p) for name in (
            "cheapest", "act_start", "cost", "back", "target", "kind", "param_start", "params",
            "site_start", "site_node", "site_nu")]
        + [("goal", ctypes.c_int64), ("weight", ctypes.c_double), ("failure", ctypes.c_double)]
    )


def lib():
    """The compiled kernel, or None when the Python kernel runs; the first
    call builds it."""
    global _state
    if _state is None:
        try:
            _state = (_load(), "")
        except Exception as exc:  # any failure leaves the Python kernel in charge
            _state = (None, f"{type(exc).__name__}: {exc}")
    return _state[0]


def _blas_name() -> str:
    return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]


def _numpy_blas() -> ctypes.CDLL:
    """numpy's bundled scipy-openblas, as numpy loaded it."""
    name = _blas_name()
    if name != BLAS:
        raise RuntimeError(f"numpy's BLAS is {name}, not {BLAS}")
    found = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas64_*.so"))
    if len(found) != 1:
        raise RuntimeError("numpy's bundled scipy-openblas library was not found")
    return ctypes.CDLL(str(found[0]), mode=os.RTLD_NOLOAD)  # raises unless already loaded


def _includes() -> list[str]:
    """The compiler's include flags: Python's headers and numpy's."""
    import sysconfig  # the build's own import, kept out of the package's

    return [f"-I{sysconfig.get_paths()['include']}", f"-I{np.get_include()}"]


def _load():
    import subprocess  # the build's own import, kept out of the package's

    blas = _numpy_blas()
    numpy_dir = Path(np.__file__).parent
    with tempfile.TemporaryDirectory(prefix="infopath-kernel-") as tmp:
        path = Path(tmp) / "_kernel.so"
        done = subprocess.run(
            [COMPILER, *FLAGS, *_includes(),
             str(SOURCE), str(numpy_dir / "random" / "lib" / "libnpyrandom.a"), "-lm",
             "-o", str(path)],
            capture_output=True, text=True, timeout=120)
        if done.returncode:
            raise RuntimeError(f"{COMPILER} failed: {done.stderr.strip()[-500:]}")
        dll = ctypes.PyDLL(str(path))  # mapped: the directory may go
    dll.set_blas.argtypes = (ctypes.c_void_p, ctypes.c_void_p)
    dll.set_blas(ctypes.cast(blas.scipy_cblas_dgemv64_, ctypes.c_void_p),
                 ctypes.cast(blas.scipy_cblas_ddot64_, ctypes.c_void_p))
    dll.functions.restype = ctypes.py_object
    kernel = types.SimpleNamespace(dll=dll, **dll.functions())
    _check_updates(kernel)
    _check_draws(kernel)
    _check_libm(kernel)
    return kernel


def _check_updates(kernel):
    """Rank-1 updates equal the Python kernel's at the shapes where numpy's
    product changes form: m = 0, q = 1 (a dot), q > 128 (a split sum); and
    where the vectorised loops leave remainders: an odd q (9, 131: a last
    lane over the query points, a tail after the pairwise sum's blocks of
    eight), and m >= 64."""
    from .gp import _rank1_update

    rng = np.random.default_rng(0)
    for q, m, k in ((1, 3, 2), (3, 0, 3), (9, 70, 2), (40, 1, 2), (100, 37, 3), (130, 18, 2),
                    (131, 5, 3)):
        w = rng.normal(size=(m + k, q)) * 0.1
        kqq = rng.normal(size=(q, q))
        mean, var = rng.normal(size=q), 1.0 + rng.random(q)
        sites = [(int(j), float(v), 1e-3) for j, v in zip(rng.integers(q, size=k), rng.random(k))]
        got, want = [w, mean, var], [w.copy(), mean.copy(), var.copy()]
        trace = kernel.rank1_update(*got, kqq, 1e-8, 1e-14, m, sites)
        expected = _rank1_update(*want, kqq, 1e-8, 1e-14, m, sites)
        if trace != expected or any(a.tobytes() != b.tobytes() for a, b in zip(got, want)):
            raise RuntimeError(f"rank-1 update differs from numpy's at q={q}, m={m}")


def _check_draws(kernel):
    """Normal and bounded draws equal numpy's, value and final state."""
    ours, numpys = np.random.PCG64(5), np.random.Generator(np.random.PCG64(5))
    bitgen = ours.ctypes.bit_generator.value
    for i in range(300):
        n = (1, 3, 10, 2**31 + 5, 2**32 - 1)[i % 5]
        if kernel.bounded(bitgen, n) != numpys.integers(n):
            raise RuntimeError("bounded draw differs from numpy's")
        if kernel.normal(bitgen, 0.25 * i, 0.5) != numpys.normal(0.25 * i, 0.5):
            raise RuntimeError("normal draw differs from numpy's")
    if ours.state != numpys.bit_generator.state:
        raise RuntimeError("draws leave another generator state than numpy's")


def _check_libm(kernel):
    """libm's erf equals ``math.erf`` and its rint equals ``round``, which
    the drill steps' probabilities and type indices use: erf on a dense grid
    over [-8, 8], on normal draws, at both zeros and at tiny values; rint at
    every half in [-20, 20] and on either side of each. Its log equals
    ``math.log`` and its pow Python's ``float ** float``, which UCB and the
    widening caps ``k * N ** alpha`` use, at the visit counts N a search
    reaches (every count to 4096, then either side of each power of two to
    2**40) and at the usual alphas. Values stream one by one, so the check
    adds nothing to the peak memory."""
    grid = (i / 1024 - 8.0 for i in range(2**14 + 1))
    tiny = (s * 2.0**e for e in range(-1074, -900, 7) for s in (1.0, -1.0))
    normals = np.random.default_rng(0).normal(0.0, 2.0, 2000)
    for x in itertools.chain(grid, normals, tiny, (0.0, -0.0, 5e-324, -5e-324, 1e-300)):
        got, want = kernel.erf(x), math.erf(x)
        if got != want or math.copysign(1.0, got) != math.copysign(1.0, want):  # or ±0
            raise RuntimeError("erf differs from math.erf")
    for k in range(-20, 20):
        for x in (k + 0.5, math.nextafter(k + 0.5, -math.inf), math.nextafter(k + 0.5, math.inf)):
            if kernel.rint(x) != round(x):
                raise RuntimeError("rint differs from round")
    wide = (float(2**e + d) for e in range(13, 41) for d in (-1, 0, 1))
    for n in itertools.chain(map(float, range(4097)), wide):
        if n and kernel.log(n) != math.log(n):
            raise RuntimeError("log differs from math.log")
        for alpha in ALPHAS:
            if kernel.pow(n, alpha) != n ** alpha:
                raise RuntimeError("pow differs from float ** float")


class _KernelModule(types.ModuleType):
    @property
    def KERNEL(self) -> str:
        """Which step kernel runs: "compiled" or "python: <reason>"."""
        return "compiled" if lib() is not None else f"python: {_state[1]}"


sys.modules[__name__].__class__ = _KernelModule
