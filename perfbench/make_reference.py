"""Regenerate ``reference.json``: exact values the checks compare against.

    PYTHONPATH=src python perfbench/make_reference.py

Stores the exact DP at every cell the benchmark checks (deterministic
numerics, no random stream involved), the stdout of ``mlec-sim info
C/D`` and, for every declustered cell, a high-trial estimate of the
expected MC outcome (mean, sample variance and the share of trials with
a positive outcome).  The estimate is an expectation with a stated
sample size, not bytes: the checks allow for its own error, so any
valid random stream passes them.  Re-run it only for an intended result
change, and say so.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import REFERENCE  # noqa: E402
from inproc import (  # noqa: E402
    CHECK_CELLS,
    CHECK_PARAMS,
    CHECK_SCHEME,
    CONTROL_CELLS,
    DP_MLEC_CELLS,
    DP_SLEC_CELLS,
    MC_CELLS,
    SCHEMES,
    derived_seed,
)

#: Trials behind each stored MC expectation (about 25x a measured run's).
REF_TRIALS = 40_000


def mc_expectation(evaluator, y: int, x: int, runner, label: str) -> dict:
    from repro.sim.burst import burst_pdl_stats

    agg = burst_pdl_stats(evaluator, y, x, trials=REF_TRIALS,
                          seed=derived_seed("reference", label, y, x),
                          runner=runner)
    n = agg.trials
    mean = agg.total / n
    return {
        "mc_trials": n,
        "mc_mean": mean,
        "mc_var": max(agg.total_sq / n - mean * mean, 0.0) * n / (n - 1),
        "mc_exposure": agg.losses / n,
    }


def main() -> int:
    from repro import PAPER_MLEC, mlec_scheme_from_name
    from repro.analysis.burst_dp import mlec_burst_pdl, slec_burst_pdl
    from repro.cli import main as cli_main
    from repro.core.config import MLECParams, SLECParams
    from repro.core.scheme import SLECScheme
    from repro.core.tolerance import mlec_tolerance
    from repro.core.types import Level, Placement
    from repro.runtime import TrialRunner
    from repro.sim.burst import MLECBurstEvaluator

    runner = TrialRunner(workers=2, batch="auto")
    mc_cells = []
    dp_cells = []
    for name in SCHEMES:
        scheme = mlec_scheme_from_name(name, PAPER_MLEC)
        tolerance = mlec_tolerance(scheme)
        evaluator = MLECBurstEvaluator(scheme)
        for y, x in MC_CELLS + CONTROL_CELLS:
            cell = {
                "scheme": name, "y": y, "x": x,
                "dp": mlec_burst_pdl(scheme, y, x),
                # The DP is exact only where both levels are clustered.
                "exact": name == "C/C",
                "survives": tolerance.survives_burst(y, x),
            }
            if not cell["exact"] and not cell["survives"]:
                cell.update(mc_expectation(evaluator, y, x, runner, name))
            mc_cells.append(cell)
        for y, x in DP_MLEC_CELLS:
            dp_cells.append({"kind": "mlec", "scheme": name, "y": y, "x": x,
                             "value": mlec_burst_pdl(scheme, y, x)})
    check = mlec_scheme_from_name("C/C", MLECParams(*CHECK_PARAMS))
    for y, x in CHECK_CELLS:
        mc_cells.append({
            "scheme": CHECK_SCHEME, "y": y, "x": x,
            "dp": mlec_burst_pdl(check, y, x), "exact": True,
            "survives": mlec_tolerance(check).survives_burst(y, x),
        })
    slec = SLECScheme(SLECParams(7, 3), Level.NETWORK, Placement.CLUSTERED)
    for y, x in DP_SLEC_CELLS:
        dp_cells.append({"kind": "slec", "scheme": "net-Cp 7+3", "y": y,
                         "x": x, "value": slec_burst_pdl(slec, y, x)})

    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        cli_main(["info", "C/D"])
    reference = {"mc_cells": mc_cells, "dp_cells": dp_cells,
                 "cli_info_cd": buffer.getvalue()}
    REFERENCE.write_text(json.dumps(reference, indent=1) + "\n",
                         encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
