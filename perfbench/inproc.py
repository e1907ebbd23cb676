"""One fresh interpreter of an in-process workload (``mc_kernel``/``exact_dp``).

Run by ``run.py``, never by hand::

    python perfbench/inproc.py WORKLOAD --seed N --t0 T --role setup|measure
        [--seconds S | --units K] [--trace]

The child imports ``repro.cli`` (the startup layer), builds the inputs
from the seed, reports its set-up time against ``--t0`` (the parent's
spawn instant on the shared monotonic clock) and, with ``--role
measure``, runs the workload for ``--seconds`` or exactly ``--units``
passes.  The last stdout line is one JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path
from typing import Any

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import calibrate, peak_rss_mb, ref_seconds  # noqa: E402
from tracer import Tracer, import_repro_cli, install_layers  # noqa: E402

SCHEMES = ("C/C", "C/D", "D/C", "D/D")
#: Non-trivial fig05 cells: failures y x racks x that can lose data.
MC_CELLS = tuple((y, x) for y in (36, 48, 60) for x in (3, 4, 6, 12))
#: Control cells every scheme is guaranteed to survive (exact zeros).
CONTROL_CELLS = ((60, 2), (12, 12))
#: Clustered check cells whose exact PDL is large (0.09 and 0.30): a
#: (4+1)/(4+0) C/C code, whose local pools have no parity.  The paper's
#: C/C cells all have an exact PDL below 2e-10, so only these give the
#: two-sided MC check a lower side on the clustered path.
CHECK_PARAMS = (4, 1, 4, 0)
CHECK_CELLS = ((36, 3), (60, 6))
CHECK_SCHEME = "C/C (4+1)/(4+0)"
BURST_TRIALS = 200
#: The accelerated simulate pass: C/D + R_MIN, half-year missions,
#: mapped 16 at a time (one batched chunk per map) so each map is a
#: short timed unit.
SIM_MAPS = 4
SIM_TRIALS = 16
SIM_MONTHS = 6
SIM_AFR = 0.1
#: Exact DP: the 12 fig05 spot cells and two SLEC network-Cp cells.
DP_MLEC_CELLS = ((60, 3), (60, 12), (11, 3))
DP_SLEC_CELLS = ((24, 6), (36, 12))


def derived_seed(*parts: Any) -> int:
    """A 32-bit seed from the workload seed and a position (stable)."""
    blob = json.dumps(parts).encode()
    return int.from_bytes(hashlib.sha256(blob).digest()[:4], "big")


# ----------------------------------------------------------------------
# mc_kernel
# ----------------------------------------------------------------------
def build_mc_kernel(seed: int) -> dict[str, Any]:
    from repro import PAPER_MLEC, mlec_scheme_from_name
    from repro.cli import _simulate_trial
    from repro.core.config import YEAR, MLECParams
    from repro.core.tolerance import mlec_tolerance
    from repro.core.types import RepairMethod
    from repro.runtime import TrialRunner
    from repro.sim.burst import MLECBurstEvaluator

    cells = []
    for name in SCHEMES:
        scheme = mlec_scheme_from_name(name, PAPER_MLEC)
        evaluator = MLECBurstEvaluator(scheme)
        tolerance = mlec_tolerance(scheme)
        for y, x in MC_CELLS + CONTROL_CELLS:
            cells.append({
                "scheme": name, "y": y, "x": x, "evaluator": evaluator,
                "survives": tolerance.survives_burst(y, x),
            })
    check_scheme = mlec_scheme_from_name("C/C", MLECParams(*CHECK_PARAMS))
    check_evaluator = MLECBurstEvaluator(check_scheme)
    for y, x in CHECK_CELLS:
        cells.append({
            "scheme": CHECK_SCHEME, "y": y, "x": x,
            "evaluator": check_evaluator,
            "survives": mlec_tolerance(check_scheme).survives_burst(y, x),
        })
    sim_scheme = mlec_scheme_from_name("C/D", PAPER_MLEC)
    return {
        "seed": seed,
        "cells": cells,
        "runner": TrialRunner(workers=1, batch="auto"),
        "sim_runner": TrialRunner(workers=1, chunk_size=SIM_TRIALS,
                                  batch="auto"),
        "sim_fn": _simulate_trial,
        "sim_args": (sim_scheme, RepairMethod.R_MIN, SIM_AFR,
                     SIM_MONTHS / 12 * YEAR),
    }


def run_mc_kernel(inputs: dict[str, Any], seconds: float | None,
                  units: int | None) -> dict[str, Any]:
    from repro.runtime import TrialExecutionError
    from repro.sim.burst import burst_pdl_stats

    runner = inputs["runner"]
    seed = inputs["seed"]
    # cell index -> [trials, summed PDL, trials with a positive PDL]
    cell_stats = {i: [0, 0.0, 0] for i in range(len(inputs["cells"]))}
    burst_passes: list[dict[str, Any]] = []
    sim_maps: list[dict[str, float]] = []
    attempted = failed = 0
    sim_failures = 0
    sim_lost = 0
    began = time.monotonic()
    cal = calibrate()
    p = 0
    while (units is not None and p < units) or (
        units is None and (p == 0 or time.monotonic() - began < seconds)
    ):
        trials = 0
        cell_seconds = []
        cell_ref_s = []
        for i, cell in enumerate(inputs["cells"]):
            attempted += BURST_TRIALS
            t = time.perf_counter()
            try:
                agg = burst_pdl_stats(
                    cell["evaluator"], cell["y"], cell["x"],
                    trials=BURST_TRIALS,
                    seed=derived_seed(seed, "burst", p, i), runner=runner,
                )
            except TrialExecutionError:
                agg = None
                failed += BURST_TRIALS
            cell_seconds.append(time.perf_counter() - t)
            cal_after = calibrate()
            cell_ref_s.append(ref_seconds(cell_seconds[-1], (cal + cal_after) / 2))
            cal = cal_after
            if agg is None:
                continue
            cell_stats[i][0] += agg.trials
            cell_stats[i][1] += agg.total
            cell_stats[i][2] += agg.losses
            trials += agg.trials
        burst_passes.append({"seconds": sum(cell_seconds), "trials": trials,
                             "cell_s": cell_seconds, "cell_ref_s": cell_ref_s})

        for m in range(SIM_MAPS):
            sim_seed = derived_seed(seed, "sim", p, m)
            attempted += SIM_TRIALS
            t = time.perf_counter()
            try:
                results = inputs["sim_runner"].map(
                    inputs["sim_fn"], SIM_TRIALS, seed=sim_seed,
                    args=(*inputs["sim_args"], sim_seed),
                )
            except TrialExecutionError:
                failed += SIM_TRIALS
                results = []
            sim_s = time.perf_counter() - t
            cal_after = calibrate()
            map_failures = sum(r.n_disk_failures for r in results)
            sim_failures += map_failures
            sim_lost += sum(bool(r.lost_data) for r in results)
            sim_maps.append({"seconds": sim_s,
                             "ref_s": ref_seconds(sim_s, (cal + cal_after) / 2),
                             "disk_failures": map_failures,
                             "trials": len(results)})
            cal = cal_after
        p += 1

    ops = runner.ops_metrics.snapshot()["counters"]
    sim_ops = inputs["sim_runner"].ops_metrics.snapshot()["counters"]
    return {
        "work_s": time.monotonic() - began,
        "work_ref_s": (sum(sum(p["cell_ref_s"]) for p in burst_passes)
                       + sum(m["ref_s"] for m in sim_maps)),
        "attempted": attempted,
        "failed": failed,
        "burst_passes": burst_passes,
        "sim_maps": sim_maps,
        "cells": [
            {"scheme": c["scheme"], "y": c["y"], "x": c["x"],
             "survives": c["survives"], "trials": cell_stats[i][0],
             "total": cell_stats[i][1], "losses": cell_stats[i][2]}
            for i, c in enumerate(inputs["cells"])
        ],
        "sim": {"trials": sum(s["trials"] for s in sim_maps),
                "disk_failures": sim_failures, "lost_trials": sim_lost,
                "afr": SIM_AFR, "years": SIM_MONTHS / 12},
        "counts": {
            "sim.batch.demoted_trials": int(ops.get("sim.batch_demotions", 0)
                                            + sim_ops.get("sim.batch_demotions", 0)),
            "sim.simulator.disk_failures": sim_failures,
        },
    }


# ----------------------------------------------------------------------
# exact_dp
# ----------------------------------------------------------------------
def build_exact_dp(seed: int) -> dict[str, Any]:
    import random

    from repro import PAPER_MLEC, mlec_scheme_from_name
    from repro.core.config import SLECParams
    from repro.core.scheme import SLECScheme
    from repro.core.types import Level, Placement

    cells = [
        {"kind": "mlec", "scheme": name, "y": y, "x": x,
         "obj": mlec_scheme_from_name(name, PAPER_MLEC)}
        for name in SCHEMES for y, x in DP_MLEC_CELLS
    ]
    slec = SLECScheme(SLECParams(7, 3), Level.NETWORK, Placement.CLUSTERED)
    cells += [{"kind": "slec", "scheme": "net-Cp 7+3", "y": y, "x": x,
               "obj": slec} for y, x in DP_SLEC_CELLS]
    # The seed fixes the evaluation order, which decides what any memo
    # inside the DP can reuse.
    random.Random(seed).shuffle(cells)
    return {"cells": cells}


def run_exact_dp(inputs: dict[str, Any], seconds: float | None,
                 units: int | None) -> dict[str, Any]:
    import repro.analysis.burst_dp as burst_dp

    out = []
    failed = 0
    began = time.monotonic()
    cal = calibrate()
    for cell in inputs["cells"]:
        fn = (burst_dp.mlec_burst_pdl if cell["kind"] == "mlec"
              else burst_dp.slec_burst_pdl)
        t = time.perf_counter()
        try:
            value: float | None = fn(cell["obj"], cell["y"], cell["x"])
        except Exception:  # a raising cell is a failed operation
            value = None
            failed += 1
        seconds = time.perf_counter() - t
        cal_after = calibrate()
        out.append({"kind": cell["kind"], "scheme": cell["scheme"],
                    "y": cell["y"], "x": cell["x"], "value": value,
                    "seconds": seconds,
                    "ref_s": ref_seconds(seconds, (cal + cal_after) / 2)})
        cal = cal_after
    return {
        "work_s": time.monotonic() - began,
        "work_ref_s": sum(c["ref_s"] for c in out),
        "attempted": len(out),
        "failed": failed,
        "cells": out,
        "counts": {},
    }


WORKLOADS = {
    "mc_kernel": (build_mc_kernel, run_mc_kernel),
    "exact_dp": (build_exact_dp, run_exact_dp),
}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--role", choices=("setup", "measure"), required=True)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--units", type=int, default=None)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    tracer = Tracer(t0=args.t0) if args.trace else None
    import_repro_cli(tracer)
    build, run = WORKLOADS[args.workload]
    inputs = build(args.seed)
    setup_s = time.monotonic() - args.t0
    result: dict[str, Any] = {"setup_s": setup_s}
    if args.role == "measure":
        if tracer is not None:
            install_layers(tracer)
        result.update(run(inputs, args.seconds, args.units))
        if tracer is not None:
            result["trace"] = tracer.finish()
    result["rss_peak_mb"] = peak_rss_mb()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
