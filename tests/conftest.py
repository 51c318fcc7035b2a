import os

# One BLAS thread per process, set before anything imports numpy: batch
# factorizations otherwise contend for every CPU and slow the suite by an
# order of magnitude on a busy machine. An explicit setting still wins.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import pytest  # noqa: E402

# Verdict lines recorded by the acceptance suite; replayed after the test
# progress so they always reach the terminal regardless of capture mode.
acceptance_verdicts = []


@pytest.fixture(scope="session")
def acceptance_report():
    def _report(name, ok, detail=""):
        line = f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}" \
            + (f" ({detail})" if detail else "")
        print(line)
        acceptance_verdicts.append(line)
        assert ok, f"{name}: {detail}"

    return _report


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if acceptance_verdicts:
        terminalreporter.section("acceptance criteria")
        for line in acceptance_verdicts:
            terminalreporter.write_line(line)


@pytest.fixture
def python_kernel(monkeypatch):
    """Run the Python step kernel, as when the compiled one cannot be built."""
    from infopath import kernel

    monkeypatch.setattr(kernel, "_state", (None, "forced by a test"))
