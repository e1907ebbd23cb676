"""Shared plumbing: checkout paths, child processes, statistics, host facts."""

from __future__ import annotations

import json
import math
import os
import platform
import subprocess
import sys
import tempfile
import threading
import time
from importlib import metadata
from pathlib import Path
from typing import Any

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_DIR = BENCH_DIR / ".work"
RESULTS_DIR = BENCH_DIR / "results"
REFERENCE = BENCH_DIR / "reference.json"


class BenchError(RuntimeError):
    """The benchmark cannot run here (missing program, broken child)."""


def require_checkout() -> None:
    """Refuse to run anywhere but the root of a checkout holding ``src/``."""
    if not (SRC / "repro" / "cli.py").is_file():
        raise BenchError(
            f"no program source at {SRC / 'repro'}; run from a checkout"
        )


def child_env() -> dict[str, str]:
    """Environment for every child: the checkout's ``src`` and nothing else."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("PYTHONSTARTUP", None)
    return env


def cli_argv(*args: str) -> list[str]:
    """``mlec-sim ARGS`` as the checkout runs it (no install needed)."""
    return [sys.executable, "-m", "repro.cli", *args]


def script_argv(name: str, *args: str) -> list[str]:
    return [sys.executable, str(BENCH_DIR / name), *args]


# ----------------------------------------------------------------------
# Host speed
# ----------------------------------------------------------------------
#: Rounds of the calibration loop, and its duration at reference speed.
CAL_ROUNDS = 40
CAL_REF_S = 0.003
_CAL_INPUT: list[Any] = []


def calibrate() -> float:
    """Seconds a fixed numpy loop takes right now.

    Other tenants of a shared host slow everything down, by up to 2x for
    minutes at a time.  The loop (seeded shuffles, sorts and counts of a
    small int array, like the program's own hot paths) is benchmark code
    the program cannot change, so scaling a duration measured beside it
    by ``CAL_REF_S / calibrate()`` removes the host's drift and keeps
    every change the program makes (README, "Wall and reference-speed
    seconds").  The garbage collector is off during the loop, so the
    objects the program leaves alive cannot change its cost.
    """
    import gc

    import numpy as np

    if not _CAL_INPUT:
        _CAL_INPUT.append(np.arange(2000, dtype=np.int64))
    base = _CAL_INPUT[0]
    enabled = gc.isenabled()
    gc.disable()
    try:
        t = time.perf_counter()
        for k in range(CAL_ROUNDS):
            a = np.random.default_rng(k).permutation(base)
            np.sort(a)
            np.bincount(a % 64)
        return time.perf_counter() - t
    finally:
        if enabled:
            gc.enable()


def ref_seconds(seconds: float, cal: float) -> float:
    """``seconds`` measured where the calibration loop took ``cal``."""
    return seconds * CAL_REF_S / cal


#: The reference process: a fresh interpreter importing numpy,
#: scipy.special and scipy.stats, the same libraries a ``mlec-sim``
#: process's start-up imports (the scipy import is most of ``import
#: repro.cli``), with about the same memory footprint and page faults,
#: and its duration at reference speed.  It runs no program code, so
#: scaling a time measured beside it by ``REF_PROCESS_S / its time``
#: removes the host's drift and keeps every change the program makes
#: (README, "Wall and reference-speed seconds").
REF_PROCESS = ("-c", "import numpy, scipy.special, scipy.stats")
REF_PROCESS_S = 1.3


def reference_process_s() -> float:
    """Wall seconds of one reference process, run now."""
    child = run_child([sys.executable, *REF_PROCESS])
    if child["code"] != 0:
        raise BenchError(f"reference process failed: {child['stderr'][-300:]}")
    return child["wall_s"]


def reference_scale(refs: list[float]) -> float:
    """Factor from wall to reference-speed seconds, given reference times."""
    return REF_PROCESS_S / median(refs)


def wait_child(proc: subprocess.Popen, timeout: float) -> tuple[int, float, bool]:
    """Reap ``proc``: its exit code, its own peak RSS in MB, timed out?

    ``os.wait4`` gives the child's own resource usage, so a workload can
    report the peak RSS of the program's processes without that of the
    reference processes it also runs.  Past ``timeout`` the child is
    killed.
    """
    killed = threading.Event()

    def kill() -> None:
        killed.set()
        proc.kill()

    timer = threading.Timer(timeout, kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024.0, killed.is_set()


def run_child(argv: list[str], timeout: float = 170.0) -> dict[str, Any]:
    """Run one child to completion; wall time, exit code, output, peak RSS.

    ``t0`` is taken just before the spawn on the system-wide monotonic
    clock, so a child may report its own progress against it.  Output
    goes to files in the checkout's work directory, so the child can be
    reaped with ``wait_child``.
    """
    WORK_DIR.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryFile(dir=WORK_DIR) as out, \
            tempfile.TemporaryFile(dir=WORK_DIR) as err:
        t0 = time.monotonic()
        proc = subprocess.Popen(argv, stdout=out, stderr=err,
                                env=child_env(), cwd=ROOT)
        code, maxrss_mb, timed_out = wait_child(proc, timeout)
        wall = time.monotonic() - t0
        if timed_out:
            raise BenchError(f"child timed out after {timeout:.0f} s: {argv}")
        out.seek(0)
        err.seek(0)
        return {
            "t0": t0,
            "wall_s": wall,
            "code": code,
            "stdout": out.read().decode("utf-8", "replace"),
            "stderr": err.read().decode("utf-8", "replace"),
            "maxrss_mb": maxrss_mb,
        }


def last_json_line(text: str) -> dict[str, Any]:
    for line in reversed(text.strip().splitlines()):
        line = line.strip()
        if line.startswith("{"):
            return json.loads(line)
    raise BenchError("child printed no JSON result line")


def peak_rss_mb() -> float:
    """Peak RSS of the calling process in MB (Linux reports KiB)."""
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def quantile(values: list[float], q: float) -> float:
    """Linear-interpolation quantile (numpy's default method)."""
    if not values:
        return math.nan
    xs = sorted(values)
    pos = (len(xs) - 1) * q
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values: list[float]) -> float:
    return quantile(values, 0.5)


# ----------------------------------------------------------------------
# Host facts
# ----------------------------------------------------------------------
def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _version(dist: str) -> str | None:
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return None


def _git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


#: Facts that must match for two records to be comparable.
HOST_KEYS = ("nproc", "cpu_model", "machine", "python", "numpy", "scipy")


def host_facts(seed: int) -> dict[str, Any]:
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count() or 1
    return {
        "nproc": nproc,
        "cpu_model": _cpu_model(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "git_sha": _git_sha(),
        "seed": seed,
    }
