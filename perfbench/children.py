"""Run one child process at a time and take its wall time and peak RSS.

Peak memory comes from the child's own rusage (``os.wait4``), so nothing
outside the benchmark's processes is measured or changed.  A watchdog
kills a child that outlives its time limit.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class ChildResult:
    code: int
    wall_s: float
    peak_rss_mb: float
    timed_out: bool
    scale: float = 1.0  # host-speed factor of the child (hostspeed.py); 1.0 when not probed

    @property
    def scaled_s(self) -> float:
        """Wall time corrected for the CPU's speed while the child ran."""
        return self.wall_s * self.scale


def ddh_env(root: Path) -> dict[str, str]:
    """Environment in which ``python -m ddh`` imports the checkout's ``src``."""
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def ddh_argv(*args: str) -> list[str]:
    return [sys.executable, "-m", "ddh", *args]


def run_child(argv, env, stdout_path: Path, stderr_path: Path, limit_s: float) -> ChildResult:
    """Run ``argv`` to completion with output in files; kill it after ``limit_s``."""
    timed_out = threading.Event()
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env)

        def kill():
            timed_out.set()
            try:
                os.kill(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass

        watchdog = threading.Timer(max(limit_s, 0.1), kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
        watchdog.join()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildResult(proc.returncode, wall, usage.ru_maxrss / 1024.0, timed_out.is_set())
