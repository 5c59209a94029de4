"""One timed set-up of a workload, run as its own process by ``run.py``.

Imports ``repro``, builds the workload's programs and, for the pooled
workload, starts a worker pool; then prints ``ready`` and exits.  The parent
times process start to the ``ready`` line.

Usage: python3 perfbench/setup_probe.py WORKLOAD
"""

from __future__ import annotations

import sys

import bootstrap


def main() -> int:
    bootstrap.prepare()
    import workloads

    workload = workloads.make_workload(sys.argv[1])
    workload.build()
    workload.start()
    print("ready", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
