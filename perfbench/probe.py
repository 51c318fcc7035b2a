"""Set-up probe: start an interpreter, import infopath with numpy and scipy,
validate a workload's configs, and print the monotonic clock at that moment,
when the first mission could start.

    python3 perfbench/probe.py isrs-mission

The benchmark starts this several times and subtracts its own clock reading
taken just before each start; CLOCK_MONOTONIC is shared by all processes.
"""

import sys
import time

import boot


def main(workload: str) -> None:
    boot.boot()
    import infopath

    boot.check_imported_from_src(infopath)
    import workloads

    for cfg in workloads.WORKLOADS[workload].batches:
        cfg.validate()
    print(repr(time.monotonic()))


if __name__ == "__main__":
    main(sys.argv[1])
