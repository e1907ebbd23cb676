"""Run service sweep specs offline, for the service correctness check.

    python perfbench/offline.py SPECS.json

``SPECS.json`` maps job ids to spec objects.  Each spec is resolved with
the service's own :class:`~repro.service.spec.SweepSpec` and run through
a plain in-process :class:`~repro.runtime.TrialRunner`; the last stdout
line maps each job id to the fields the service result must match.
"""

from __future__ import annotations

import json
import sys
from typing import Any


def run_offline(spec_json: dict[str, Any]) -> dict[str, Any]:
    from repro.runtime import TrialRunner
    from repro.service.spec import SweepSpec

    spec = SweepSpec.from_json(spec_json)
    plan = spec.resolve()
    runner = TrialRunner(workers=1, chunk_size=plan.chunk, batch=plan.batch)
    if spec.kind == "burst":
        agg = runner.run(plan.fn, plan.trials, seed=plan.seed, args=plan.args)
        return {"trials": agg.trials, "pdl_mean": agg.mean,
                "losses": agg.losses}
    results = runner.map(plan.fn, plan.trials, seed=plan.seed, args=plan.args)
    return {
        "trials": len(results),
        "disk_failures": sum(r.n_disk_failures for r in results),
        "loss_trials": sum(1 for r in results if r.lost_data),
        "catastrophic_events": sum(r.n_catastrophic_events for r in results),
    }


def main() -> int:
    with open(sys.argv[1], encoding="utf-8") as fh:
        specs = json.load(fh)
    print(json.dumps({job: run_offline(spec) for job, spec in specs.items()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
