"""The repository benchmark: one command per workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it runs the program from ``src/``
(nothing needs installing) and refuses to run without it.  With
``--trace 0`` it measures the workload untraced and prints every
end-to-end metric; with ``--trace 1`` it runs a fixed amount of the same
work untraced and then traced, and prints every per-layer metric.  Every
run checks the program's outputs; the last stdout line is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``, and the full
record (host facts, the workload's named metrics, exact-repeat counts)
is written under ``perfbench/results/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import time
from collections.abc import Callable
from pathlib import Path
from typing import Any

sys.path.insert(0, str(Path(__file__).resolve().parent))

import cli_cold  # noqa: E402
import service_mixed  # noqa: E402
from checks import (  # noqa: E402
    check_dp_value,
    check_finding4,
    check_guaranteed_zero,
    check_mc_vs_dp,
    check_mc_vs_expectation,
    check_poisson,
    expected_disk_failures,
)
from common import (  # noqa: E402
    REFERENCE,
    RESULTS_DIR,
    WORK_DIR,
    BenchError,
    host_facts,
    last_json_line,
    median,
    reference_process_s,
    reference_scale,
    require_checkout,
    run_child,
    script_argv,
)

WORKLOADS = ("mc_kernel", "exact_dp", "cli_cold", "service_mixed")

END_TO_END = {
    "setup_s": "s",
    "rss_peak_mb": "MB",
    "main_s": "s",
    "side_s": "s",
}

#: Timeline layers: their self times plus obs.unattributed_s add up to
#: obs.traced_wall_s.
TIMELINE_LAYERS = (
    "startup.import_repro_cli", "startup.import_scipy", "startup.import_numpy",
    "runtime.trial_rng", "runtime.aggregate", "runtime.run_chunk",
    "runtime.pool_start", "runtime.dispatch", "runtime.dispatch_wait",
    "runtime.pool_stop", "runtime.journal_append",
    "sim.burst.sample", "sim.batch.classify", "sim.burst.pdl_of_burst",
    "sim.simulator.run",
    "analysis.burst_dp", "analysis.burst_dp.netcp_tables",
    "analysis.burst_dp.cell_splits", "analysis.combinatorics",
    "service.http_submit", "service.http_poll", "service.spec_resolve",
    "service.store_append", "service.job_run", "service.result_read",
)
CALL_COUNTS = (
    "runtime.trial_rng", "sim.burst.sample", "sim.burst.pdl_of_burst",
    "analysis.burst_dp.netcp_tables", "analysis.burst_dp.cell_splits",
)
COUNTS = (
    "runtime.chunks", "runtime.journal_appends", "sim.batch.batched_trials",
    "sim.batch.demoted_trials", "sim.simulator.disk_failures",
    "service.store_appends",
)
#: Counts that must repeat exactly between runs of the same code and seed.
EXACT_REPEAT = (
    "sim.batch.demoted_trials", "runtime.journal_appends",
    "service.store_appends", "analysis.burst_dp.netcp_tables_calls",
    "sim.simulator.disk_failures",
)


def layer_units() -> dict[str, str]:
    units = {f"{name}_s": "s" for name in TIMELINE_LAYERS}
    units.update({f"{name}_calls": "count" for name in CALL_COUNTS})
    units.update({name: "count" for name in COUNTS})
    units.update({
        "sim.batch.vector_share": "ratio",
        "runtime.pool_chunk_s": "s",
        "service.queue_wait_s": "s",
        "service.polls_per_job": "count",
        "obs.trace_overhead_frac": "ratio",
        "obs.unattributed_s": "s",
        "obs.traced_wall_s": "s",
        "obs.failed_ops_frac": "ratio",
    })
    return units


def layer_metrics(summary: dict[str, Any], overhead: float,
                  extra: dict[str, float], failed_frac: float) -> dict[str, float]:
    self_s, calls = summary["self_s"], summary["calls"]
    counts, durations = summary["counts"], summary["durations"]
    out: dict[str, float] = {}
    for name in TIMELINE_LAYERS:
        out[f"{name}_s"] = float(self_s.get(name, 0.0))
    for name in CALL_COUNTS:
        out[f"{name}_calls"] = float(calls.get(name, 0))
    for name in COUNTS:
        out[name] = float(counts.get(name, 0))
    attempted = counts.get("sim.batch.attempted_trials", 0)
    out["sim.batch.vector_share"] = (
        counts.get("sim.batch.batched_trials", 0) / attempted if attempted else 0.0
    )
    out["runtime.pool_chunk_s"] = float(sum(durations.get("runtime.pool_chunk_s", ())))
    queue = durations.get("service.queue_wait_s", ())
    out["service.queue_wait_s"] = sum(queue) / len(queue) if queue else 0.0
    out["service.polls_per_job"] = float(extra.get("service.polls_per_job", 0.0))
    out["obs.trace_overhead_frac"] = overhead
    out["obs.unattributed_s"] = summary["unattributed_s"]
    out["obs.traced_wall_s"] = summary["wall_s"]
    out["obs.failed_ops_frac"] = failed_frac
    return out


def reconcile(summary: dict[str, Any]) -> list[str]:
    """Faults in the layer accounting of a traced run.

    ``obs.unattributed_s`` is the traced wall minus the layer self times,
    so the two always add up to the wall; that sum is reported, not
    checked.  What is checked: every layer the tracer timed is one this
    benchmark reports, and in no traced process did the layer times run
    ahead of its wall (a negative unattributed rest).
    """
    unknown = set(summary["self_s"]) - set(TIMELINE_LAYERS)
    errors = [f"unreported layer {name}" for name in sorted(unknown)]
    for i, rest in enumerate(summary["process_unattributed_s"]):
        if rest < -1e-9:
            errors.append(f"traced process {i}: layer times exceed its wall "
                          f"by {-rest:.6f} s")
    return errors


# ----------------------------------------------------------------------
# In-process workloads (children run perfbench/inproc.py)
# ----------------------------------------------------------------------
SETUP_SAMPLES = 3


def inproc_child(workload: str, seed: int, role: str, *, seconds: float | None = None,
                 units: int | None = None, trace: bool = False) -> dict[str, Any]:
    args = [workload, "--seed", str(seed), "--t0", repr(time.monotonic()),
            "--role", role]
    if seconds is not None:
        args += ["--seconds", repr(seconds)]
    if units is not None:
        args += ["--units", str(units)]
    if trace:
        args.append("--trace")
    child = run_child(script_argv("inproc.py", *args))
    if child["code"] != 0:
        raise BenchError(f"{workload} child failed:\n{child['stderr'][-2000:]}")
    return last_json_line(child["stdout"])


def _reference() -> dict[str, Any]:
    return json.loads(REFERENCE.read_text(encoding="utf-8"))


def check_mc_kernel(result: dict[str, Any]) -> list[str]:
    ref = {(c["scheme"], c["y"], c["x"]): c for c in _reference()["mc_cells"]}
    errors = []
    for cell in result["cells"]:
        key = (cell["scheme"], cell["y"], cell["x"])
        label = "mc_kernel %s (%d, %d)" % key
        if not cell["trials"]:
            continue
        mean = cell["total"] / cell["trials"]
        if cell["survives"] != ref[key]["survives"]:
            errors.append(f"{label}: tolerance says survives="
                          f"{cell['survives']}, reference {ref[key]['survives']}")
        errors += check_guaranteed_zero(label, mean, ref[key]["survives"])
        if not ref[key]["survives"]:
            errors += check_mc_vs_dp(label, mean, cell["trials"],
                                     ref[key]["dp"], ref[key]["exact"])
        if "mc_mean" in ref[key]:
            errors += check_mc_vs_expectation(
                f"{label} PDL", mean, cell["trials"], ref[key]["mc_mean"],
                ref[key]["mc_var"], ref[key]["mc_trials"])
            q = ref[key]["mc_exposure"]
            errors += check_mc_vs_expectation(
                f"{label} loss exposure", cell["losses"] / cell["trials"],
                cell["trials"], q, q * (1.0 - q), ref[key]["mc_trials"])
    sim = result["sim"]
    if sim["trials"]:
        errors += check_poisson(
            "mc_kernel simulate disk failures", sim["disk_failures"],
            expected_disk_failures(sim["afr"], sim["years"], sim["trials"]))
    return errors


def check_exact_dp(result: dict[str, Any]) -> list[str]:
    ref = {(c["kind"], c["scheme"], c["y"], c["x"]): c["value"]
           for c in _reference()["dp_cells"]}
    errors = []
    at_60_3 = {}
    for cell in result["cells"]:
        key = (cell["kind"], cell["scheme"], cell["y"], cell["x"])
        if cell["value"] is None:
            continue  # counted as a failed operation
        errors += check_dp_value("exact_dp %s %s (%d, %d)" % key,
                                 cell["value"], ref[key])
        if cell["kind"] == "mlec" and (cell["y"], cell["x"]) == (60, 3):
            at_60_3[cell["scheme"]] = cell["value"]
    if len(at_60_3) == 4:
        errors += check_finding4(at_60_3)
    return errors


def _setup_samples(workload: str, seed: int, count: int) -> list[float]:
    return [inproc_child(workload, seed, "setup")["setup_s"]
            for _ in range(count)]


def mc_kernel(workdir: Path, seed: int, seconds: float, trace: bool) -> dict[str, Any]:
    del workdir
    if trace:
        return inproc_traced("mc_kernel", seed, units=max(1, round(seconds / 5)),
                             check=check_mc_kernel)
    # Reference processes around the set-up samples scale setup_s to
    # reference-speed seconds (README, "Wall and reference-speed seconds").
    refs = [reference_process_s()]
    setups = _setup_samples("mc_kernel", seed, SETUP_SAMPLES - 1)
    refs.append(reference_process_s())
    result = inproc_child("mc_kernel", seed, "measure", seconds=seconds)
    setups.append(result["setup_s"])
    bursts, sims = result["burst_passes"], result["sim_maps"]

    def per_pass(key: str) -> float:
        # Each cell's median over the passes, summed: a host stall during
        # one pass moves one cell's sample, not the figure.
        return sum(median(list(times))
                   for times in zip(*(p[key] for p in bursts)))

    trials_per_pass = median([p["trials"] for p in bursts])
    named = {
        "setup_wall_s": median(setups),
        "rss_peak_mb": result["rss_peak_mb"],
        "burst_trials_per_s": (sum(p["trials"] for p in bursts)
                               / sum(p["seconds"] for p in bursts)),
        "sim_disk_failures_per_s": (sum(p["disk_failures"] for p in sims)
                                    / sum(p["seconds"] for p in sims)),
        "passes": len(bursts),
        # The gated figures in wall seconds, unscaled.
        "main_wall_s": 1e4 * per_pass("cell_s") / trials_per_pass,
        "side_wall_s": 1e4 * median([p["seconds"] / p["disk_failures"]
                                     for p in sims if p["disk_failures"]]),
    }
    return {
        "errors": check_mc_kernel(result),
        "attempted": result["attempted"],
        "failed": result["failed"],
        "named": named,
        "metrics": {
            "setup_s": named["setup_wall_s"] * reference_scale(refs),
            "rss_peak_mb": result["rss_peak_mb"],
            "main_s": 1e4 * per_pass("cell_ref_s") / trials_per_pass,
            "side_s": 1e4 * median([p["ref_s"] / p["disk_failures"]
                                    for p in sims if p["disk_failures"]]),
        },
    }


def exact_dp(workdir: Path, seed: int, seconds: float, trace: bool) -> dict[str, Any]:
    del workdir
    if trace:
        return inproc_traced("exact_dp", seed, units=1, check=check_exact_dp)
    refs = [reference_process_s()]  # as in mc_kernel
    setups: list[float] = []
    sweeps: list[dict[str, Any]] = []
    spent = 0.0
    # One sweep per fresh interpreter, so nothing cached by an earlier
    # sweep serves a later one; the median of several damps host drift.
    while len(sweeps) < SETUP_SAMPLES or spent < seconds:
        sweep = inproc_child("exact_dp", seed, "measure")
        setups.append(sweep["setup_s"])
        sweeps.append(sweep)
        spent += sweep["work_s"]
    refs.append(reference_process_s())

    def total(sweep: dict[str, Any], kinds: tuple[str, ...], key: str) -> float:
        return sum(c[key] for c in sweep["cells"] if c["kind"] in kinds)

    both = ("mlec", "slec")
    errors: list[str] = []
    for sweep in sweeps:
        errors += check_exact_dp(sweep)
    named = {
        "setup_wall_s": median(setups),
        "rss_peak_mb": max(s["rss_peak_mb"] for s in sweeps),
        "dp_sweep_s": median([total(s, both, "seconds") for s in sweeps]),
        "dp_mlec_spot_s": median([total(s, ("mlec",), "seconds")
                                  for s in sweeps]),
        "dp_slec_netcp_s": median([total(s, ("slec",), "seconds")
                                   for s in sweeps]),
        "sweeps": len(sweeps),
    }
    return {
        "errors": errors,
        "attempted": sum(len(s["cells"]) for s in sweeps),
        "failed": sum(s["failed"] for s in sweeps),
        "named": named,
        "metrics": {
            "setup_s": named["setup_wall_s"] * reference_scale(refs),
            "rss_peak_mb": named["rss_peak_mb"],
            "main_s": median([total(s, both, "ref_s") for s in sweeps]),
            "side_s": median([total(s, ("mlec",), "ref_s") for s in sweeps]),
        },
    }


def inproc_traced(workload: str, seed: int, units: int,
                  check: Callable[[dict[str, Any]], list[str]]) -> dict[str, Any]:
    """The same fixed work untraced, then traced, in fresh interpreters."""
    plain = inproc_child(workload, seed, "measure", units=units)
    traced = inproc_child(workload, seed, "measure", units=units, trace=True)
    summary = traced["trace"]
    errors = check(plain) + check(traced)
    for name, value in plain["counts"].items():
        seen = traced["counts"][name]
        if seen != value:
            errors.append(f"nondeterminism: {name} {seen} traced vs {value} "
                          "untraced on identical work")
        wrapped = summary["counts"].get(name, seen)
        if wrapped != seen:
            errors.append(f"{name}: the tracer counted {wrapped}, the "
                          f"program reported {seen}")
    summary["counts"].update(traced["counts"])
    return {
        "errors": errors,
        "attempted": plain["attempted"] + traced["attempted"],
        "failed": plain["failed"] + traced["failed"],
        "summary": summary,
        "overhead": traced["work_ref_s"] / plain["work_ref_s"] - 1.0,
        "extra": {},
        "named": {},
    }


RUNNERS = {
    "mc_kernel": mc_kernel,
    "exact_dp": exact_dp,
    "cli_cold": cli_cold.run,
    "service_mixed": service_mixed.run,
}


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        require_checkout()
        workdir = WORK_DIR / f"{args.workload}-{time.time_ns()}"
        workdir.mkdir(parents=True)
        try:
            out = RUNNERS[args.workload](workdir, args.seed, args.seconds,
                                         bool(args.trace))
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    except BenchError as exc:
        print(f"perfbench: error: {exc}", file=sys.stderr)
        return 2

    errors = list(out["errors"])
    failed_frac = out["failed"] / max(out["attempted"], 1)
    if args.trace:
        errors += reconcile(out["summary"])
        values = layer_metrics(out["summary"], out["overhead"], out["extra"],
                               failed_frac)
        units = layer_units()
        counts = {name: values[name] for name in EXACT_REPEAT}
    else:
        values = out["metrics"]
        units = END_TO_END
        counts = {}  # untraced work is time-bound, so counts vary by speed
    metrics = {name: {"value": values[name], "unit": units[name]}
               for name in units}
    correct = not errors and out["failed"] == 0

    record = {
        "workload": args.workload, "trace": args.trace,
        "seconds": args.seconds, "host": host_facts(args.seed),
        "unix_time": time.time(), "correct": correct, "errors": errors,
        "attempted": out["attempted"], "failed": out["failed"],
        "failed_ops_frac": failed_frac, "metrics": metrics,
        "named": out["named"], "counts": counts,
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.time_ns()}.json"
    (RESULTS_DIR / name).write_text(json.dumps(record, indent=1) + "\n",
                                    encoding="utf-8")

    for error in errors:
        print(f"CHECK FAILED: {error}")
    for key, value in sorted(out["named"].items()):
        print(f"{args.workload}.{key} = {value:.6g}")
    for key, metric in metrics.items():
        print(f"{key} = {metric['value']:.6g} {metric['unit']}")
    print(f"record: {RESULTS_DIR.name}/{name}")
    print(json.dumps({
        "correct": correct,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
