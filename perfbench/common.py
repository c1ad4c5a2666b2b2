"""Paths, host context and small statistics shared by the benchmark modules.

The benchmark runs from a plain source checkout (no install): the checkout
root is the parent of this directory and ``repro`` is imported from its
``src/``.  Nothing here touches the program's state.
"""

from __future__ import annotations

import math
import os
import platform
import resource
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
#: where run records and span dumps go (inside the checkout, git-ignored)
OUT_DIR = ROOT / ".bench_out"
DIGESTS = Path(__file__).resolve().parent / "digests.json"
#: the workload seed whose simulated outputs are recorded in ``DIGESTS``
DEFAULT_SEED = 0
#: iterations of one speed probe (the calibration loop, best of three)
PROBE_ITERATIONS = 200_000
#: a speed probe's seconds on the reference host (2-core container,
#: CPython 3.11); star pass and cell times are reported at this speed
REFERENCE_PROBE_S = 0.010


class MissingProgram(RuntimeError):
    """The checkout has no ``src/repro`` to benchmark."""


def use_checkout() -> None:
    """Put the checkout's ``src`` first on the import path.

    Raises :class:`MissingProgram` instead of falling back to any other
    installed ``repro``: the benchmark must measure this checkout.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        raise MissingProgram(f"no program to benchmark: {SRC / 'repro'} is missing")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def calibrate(iterations: int = 2_000_000) -> float:
    """Best of three timings of a fixed pure-Python busy loop.

    The same loop as ``benchmarks/bench_obs_overhead.calibrate``, kept
    here so that editing that script never moves this benchmark's clock.
    """
    best = float("inf")
    for _ in range(3):
        acc = 0
        start = perf_counter()
        for i in range(iterations):
            acc += i & 7
        best = min(best, perf_counter() - start)
    return best


def other_work() -> int:
    """Python threads besides the calling one, plus live child processes.

    Native threads that libraries start on import (a BLAS pool) are not
    counted: they hold no GIL and idle unless the program calls into them.
    """
    found = threading.active_count() - 1
    for children in Path("/proc/self/task").glob("*/children"):
        try:
            found += len(children.read_text().split())
        except OSError:
            pass
    return found


class SpeedTracker:
    """Puts the wall times of single-process work on a reference clock.

    On the container the bounds were set on, a fixed pure-Python loop runs
    at speeds up to 1.7x apart within a minute, and ten raw runs of
    ``star-plain`` spread by up to 26% (interquartile range over median),
    more than the 25% bound.  A short calibration probe before and after
    every unit of work measures the host's speed around that unit;
    multiplying the unit's wall time by ``REFERENCE_PROBE_S / mean(probe
    before, probe after)`` reports it at the reference speed.

    The probe runs no program code, so a faster program is never
    normalised away.  It is only valid while nothing else of the program
    runs: a thread or child process left running beside the probe would
    slow it and make the program look faster, so :meth:`factor` refuses to
    probe then.  The probe times one core only, so it is used for the
    single-process star workloads and not for the two-worker sweep.
    """

    def __init__(self) -> None:
        self.last = self._probe()

    @staticmethod
    def _probe() -> float:
        busy = other_work()
        if busy:
            raise RuntimeError(
                f"{busy} threads or child processes run beside the speed "
                "probe, which would time them too")
        return calibrate(PROBE_ITERATIONS)

    def factor(self) -> float:
        """Probe again; the factor for the unit since the previous probe."""
        now = self._probe()
        factor = REFERENCE_PROBE_S / (0.5 * (self.last + now))
        self.last = now
        return factor


def git_sha() -> str:
    """The checkout's commit, or ``"unknown"`` outside a git work tree."""
    try:
        top = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        ).stdout.split()
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    if len(top) != 2 or Path(top[0]).resolve() != ROOT:
        return "unknown"  # an enclosing repository, not this checkout
    return top[1]


def host_context() -> dict:
    """Host facts recorded beside every result (not metrics)."""
    return {
        "calibration_s": calibrate(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "git_sha": git_sha(),
    }


def peak_rss_mb(children: bool) -> float:
    """Peak resident set of this process (and, optionally, its children)."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if children:
        peak = max(peak, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak / 1024.0  # Linux reports KiB


def quantile(values, q: float) -> float:
    """Nearest-rank ``q``-quantile of ``values`` (``0 < q <= 1``)."""
    xs = sorted(values)
    if not xs:
        raise ValueError("quantile of no values")
    return xs[max(0, math.ceil(q * len(xs)) - 1)]


def ratio(num: float, den: float) -> float:
    """``num / den``, or 0 when the base is empty (the base is reported too)."""
    return num / den if den else 0.0
