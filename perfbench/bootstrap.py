"""Process preparation shared by ``run.py`` and its set-up probe.

Runs before ``repro`` is imported: it pins the measured route by clearing the
environment overrides CI jobs set (they change the analysis route silently),
and puts the checkout's ``src/`` on ``sys.path``.  It also makes sure that no
process the benchmark starts outlives it: the process adopts its orphaned
descendants and, at exit, stops its ``multiprocessing`` resource tracker and
waits for every child to end.
"""

from __future__ import annotations

import atexit
import ctypes
import os
import pathlib
import signal
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Cached references live at the checkout root, outside the benchmark's files.
CACHE = ROOT / ".perfbench_cache"

_SCRUBBED_PREFIX = "REPRO_ANALYSIS_"
_SCRUBBED = ("REPRO_FAULTS", "REPRO_BENCH_TINY")

#: prctl option that makes orphaned descendants children of this process.
_PR_SET_CHILD_SUBREAPER = 36

#: Seconds children get to end on their own at exit before they are killed.
_REAP_GRACE_S = 30.0


def _children() -> list[int]:
    pids = []
    for task in pathlib.Path("/proc/self/task").iterdir():
        try:
            pids += [int(pid) for pid in (task / "children").read_text().split()]
        except OSError:
            continue
    return pids


def stop_children() -> None:
    """Stop the resource tracker, then wait until every child has ended.

    ``multiprocessing`` starts a resource-tracker process the first time a
    shared-memory segment is created; it only ends once it notices that its
    parent is gone, so without this it would outlive the benchmark.  Pool
    workers end when their pools shut down; any child still running after
    :data:`_REAP_GRACE_S` is killed.
    """
    tracker = sys.modules.get("multiprocessing.resource_tracker")
    if tracker is not None:
        tracker._resource_tracker._stop()
    deadline = time.monotonic() + _REAP_GRACE_S
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid:
            continue
        if time.monotonic() >= deadline:
            for child in _children():
                try:
                    os.kill(child, signal.SIGKILL)
                except ProcessLookupError:
                    pass
        time.sleep(0.01)


def prepare() -> list[str]:
    """Scrub route-changing variables and expose ``src/``; returns the names cleared.

    Raises ``FileNotFoundError`` when the checkout holds no ``repro`` sources.
    """
    # Registered before ``repro`` and ``multiprocessing`` register theirs, so
    # it runs after them (atexit runs last-in, first-out): pools are shut
    # down and segments unlinked before the tracker stops.
    atexit.register(stop_children)
    try:
        prctl = ctypes.CDLL(None, use_errno=True).prctl
    except (OSError, AttributeError):
        pass  # not Linux: orphans go to init instead
    else:
        prctl.argtypes = [ctypes.c_int] + [ctypes.c_ulong] * 4
        prctl.restype = ctypes.c_int
        prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    cleared = sorted(
        name for name in os.environ if name.startswith(_SCRUBBED_PREFIX) or name in _SCRUBBED
    )
    for name in cleared:
        del os.environ[name]
    if not (SRC / "repro" / "__init__.py").is_file():
        raise FileNotFoundError(f"no repro package under {SRC}")
    sys.path.insert(0, str(SRC))
    return cleared
