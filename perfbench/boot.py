"""Process set-up shared by the benchmark and its set-up probe.

Runs before numpy is imported: it pins BLAS to one thread, so timings do not
depend on how a BLAS library sizes its thread pool, and it puts the
checkout's own ``src`` first on the import path, so the benchmark always
measures the sources next to it.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def boot() -> dict:
    """Pin BLAS threads and the import path; returns what was set.

    Exits with status 2 when the checkout holds no ``src/infopath``: there is
    nothing to measure.
    """
    if not (SRC / "infopath" / "__init__.py").is_file():
        print(f"error: no infopath sources under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    numpy_preloaded = "numpy" in sys.modules
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    if sys.path[:1] != [str(SRC)]:
        sys.path.insert(0, str(SRC))
    return {"blas_threads": 1, "vars": list(BLAS_THREAD_VARS),
            "set_before_numpy": not numpy_preloaded}


def check_imported_from_src(module) -> None:
    """Exit with status 2 if ``module`` was not loaded from this checkout's src."""
    path = Path(module.__file__).resolve()
    if SRC.resolve() not in path.parents:
        print(f"error: {module.__name__} loaded from {path}, not {SRC}", file=sys.stderr)
        raise SystemExit(2)
