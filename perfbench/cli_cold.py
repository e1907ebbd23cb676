"""``cli_cold``: one fresh ``mlec-sim`` process at a time.

Each command is timed from spawn to exit.  The loop alternates

* ``burst D/D -y 36 -x 6 --trials 4000`` (in-process trials, no journal);
* ``simulate C/D --months 12 --afr 0.05 --trials 8 --workers 2
  --checkpoint FRESH`` (a durable campaign: pool start, dispatch,
  pickling and one fsynced journal append per chunk).

Set-up time is the median of ``mlec-sim info C/D``, which does no work
beyond start-up.  Every figure is in reference-speed seconds: a median
wall time scaled by reference processes timed through the run.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Any

from checks import (
    check_cli_burst,
    check_cli_simulate,
    check_text,
    parse_cli_burst,
    parse_cli_simulate,
)
from common import (
    REFERENCE,
    BenchError,
    cli_argv,
    median,
    reference_process_s,
    reference_scale,
    run_child,
    script_argv,
)
from inproc import derived_seed
from tracer import merge_summaries

INFO_RUNS = 3
#: One process's time varies by about 10% on a shared 2-vCPU host, so
#: a p50 of three read 27% apart over ten seeds.
MIN_PAIRS = 7
MAX_PAIRS = 16
BURST = ("D/D", 36, 6, 4000)
CAMPAIGN = {"scheme": "C/D", "months": 12, "afr": 0.05, "trials": 8,
            "workers": 2}


def info_args() -> list[str]:
    return ["info", "C/D"]


def burst_args(seed: int, i: int) -> list[str]:
    scheme, y, x, trials = BURST
    return ["burst", scheme, "-y", str(y), "-x", str(x), "--trials",
            str(trials), "--seed", str(derived_seed(seed, "cli-burst", i))]


def campaign_args(seed: int, i: int, checkpoint: Path) -> list[str]:
    c = CAMPAIGN
    return ["simulate", c["scheme"], "--months", str(c["months"]), "--afr",
            str(c["afr"]), "--trials", str(c["trials"]), "--workers",
            str(c["workers"]), "--seed",
            str(derived_seed(seed, "cli-campaign", i)),
            "--checkpoint", str(checkpoint)]


class Checker:
    """Correctness of every CLI output against the stored reference."""

    def __init__(self) -> None:
        ref = json.loads(REFERENCE.read_text(encoding="utf-8"))
        self.info = ref["cli_info_cd"]
        scheme, y, x, _ = BURST
        cell = next(c for c in ref["mc_cells"]
                    if (c["scheme"], c["y"], c["x"]) == (scheme, y, x))
        self.burst_dp = cell["dp"]
        self.burst_survives = cell["survives"]
        self.errors: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.disk_failures = 0.0
        #: Largest peak RSS of the program's processes.
        self.maxrss_mb = 0.0

    def run(self, kind: str, argv: list[str]) -> dict[str, Any]:
        child = run_child(argv)
        self.attempted += 1
        self.maxrss_mb = max(self.maxrss_mb, child["maxrss_mb"])
        if child["code"] != 0:
            self.failed += 1
            self.errors.append(f"{kind} exited {child['code']}: "
                               f"{child['stderr'].strip()[-300:]}")
            return child
        out = child["stdout"]
        try:
            if kind == "info":
                self.errors += check_text("cli info C/D", out, self.info)
            elif kind == "burst":
                self.errors += check_cli_burst(
                    parse_cli_burst(out), self.burst_dp, exact=False,
                    survivable=self.burst_survives)
            else:
                parsed = parse_cli_simulate(out)
                self.disk_failures += parsed["disk_failures"]
                self.errors += check_cli_simulate(
                    parsed, CAMPAIGN["afr"], CAMPAIGN["months"] / 12)
        except ValueError as exc:
            self.errors.append(f"{kind}: {exc}")
        return child


def _journal_lines(path: Path) -> int:
    if not path.exists():  # the campaign failed before journaling
        return 0
    with open(path, encoding="utf-8") as fh:
        return sum(1 for _ in fh)


def measure(workdir: Path, seed: int, seconds: float) -> dict[str, Any]:
    checker = Checker()
    # Reference processes run before the info runs and after each pair,
    # so they sample the host's speed across the whole run; every figure
    # is a median wall in reference-speed seconds (README, "Wall and
    # reference-speed seconds").
    refs = [reference_process_s()]
    setups = [checker.run("info", cli_argv(*info_args()))
              for _ in range(INFO_RUNS)]
    refs.append(reference_process_s())
    bursts: list[dict[str, Any]] = []
    campaigns: list[dict[str, Any]] = []
    began = time.monotonic()
    i = 0
    while i < MAX_PAIRS and (i < MIN_PAIRS or time.monotonic() - began < seconds):
        bursts.append(checker.run("burst", cli_argv(*burst_args(seed, i))))
        ckpt = workdir / f"campaign-{i}.jsonl"
        campaigns.append(checker.run(
            "campaign", cli_argv(*campaign_args(seed, i, ckpt))))
        refs.append(reference_process_s())
        i += 1
    rss_mb = checker.maxrss_mb
    scale = reference_scale(refs)

    def p50(children: list[dict[str, Any]]) -> float:
        return median([c["wall_s"] for c in children])

    named = {
        "setup_wall_s": p50(setups),
        "rss_peak_mb": rss_mb,
        "cli_burst_p50_s": p50(bursts),
        "cli_campaign_p50_s": p50(campaigns),
        "cli_burst_samples": len(bursts),
        "cli_campaign_samples": len(campaigns),
        "reference_process_p50_s": median(refs),
    }
    return {
        "errors": checker.errors,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "named": named,
        "metrics": {
            "setup_s": named["setup_wall_s"] * scale,
            "rss_peak_mb": rss_mb,
            "main_s": named["cli_burst_p50_s"] * scale,
            "side_s": named["cli_campaign_p50_s"] * scale,
        },
    }


def traced(workdir: Path, seed: int, seconds: float) -> dict[str, Any]:
    """One info, burst and campaign untraced, then the same three traced."""
    del seconds  # fixed work, so the traced counts repeat exactly
    checker = Checker()
    walls: dict[str, float] = {"untraced": 0.0, "traced": 0.0}
    summaries = []
    journal_lines: dict[str, int] = {}
    failures: dict[str, float] = {}
    for label in ("untraced", "traced"):
        before = checker.disk_failures
        for kind in ("info", "burst", "campaign"):
            args = {"info": info_args(), "burst": burst_args(seed, 0),
                    "campaign": campaign_args(
                        seed, 0, workdir / f"campaign-{label}.jsonl")}[kind]
            if label == "untraced":
                argv = cli_argv(*args)
            else:
                out = workdir / f"trace-{kind}.json"
                argv = script_argv("traced_cli.py", "--out", str(out),
                                   "--t0", repr(time.monotonic()), "--", *args)
            child = checker.run(kind, argv)
            walls[label] += child["wall_s"]
            if label == "traced":
                if not out.exists():
                    raise BenchError(f"traced {kind} wrote no summary")
                summaries.append(json.loads(out.read_text(encoding="utf-8")))
        journal_lines[label] = _journal_lines(workdir / f"campaign-{label}.jsonl")
        failures[label] = checker.disk_failures - before
    summary = merge_summaries(summaries)
    errors = list(checker.errors)
    traced_appends = summary["counts"].get("runtime.journal_appends", 0)
    if traced_appends != journal_lines["untraced"]:
        errors.append(
            f"nondeterminism: runtime.journal_appends {traced_appends} traced "
            f"vs {journal_lines['untraced']} journal lines untraced")
    if failures["traced"] != failures["untraced"]:
        errors.append("nondeterminism: sim.simulator.disk_failures "
                      f"{failures['traced']} vs {failures['untraced']}")
    # Parsed from the printed per-trial mean (one decimal).
    summary["counts"]["sim.simulator.disk_failures"] = round(failures["traced"], 1)
    return {
        "errors": errors, "attempted": checker.attempted,
        "failed": checker.failed, "summary": summary,
        "overhead": walls["traced"] / walls["untraced"] - 1.0, "extra": {},
        "named": {},
    }


def run(workdir: Path, seed: int, seconds: float, trace: bool) -> dict[str, Any]:
    return traced(workdir, seed, seconds) if trace else measure(
        workdir, seed, seconds)
