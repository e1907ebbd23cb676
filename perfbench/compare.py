"""Compare benchmark records of two commits measured on the same host.

    python perfbench/compare.py --base A1.json A2.json ... --new B1.json ...

Records are the JSON files ``run.py`` writes under ``perfbench/results/``.
The tool refuses (exit 2) to mix records from different hosts or
environments (``common.HOST_KEYS``), workloads or trace modes: a ratio
across hosts measures the hosts, not the change.  It then

* checks exact-repeat counts within each side: records of one side with
  the same seed must carry identical counts, or the run is reported as
  nondeterministic (exit 1);
* prints, per metric, both medians, the new/base ratio, the bound from
  ``BENCHMARK.json`` and a verdict: ``worse`` when the new median is
  worse by more than the bound (exit 1), ``unresolved`` when the base's
  own quartile spread exceeds the bound.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import HOST_KEYS, ROOT, median, quantile  # noqa: E402


def load(paths: list[str]) -> list[dict[str, Any]]:
    return [json.loads(Path(p).read_text(encoding="utf-8")) for p in paths]


def refusal(base: list[dict[str, Any]], new: list[dict[str, Any]]) -> str | None:
    """Why these records may not be compared, or ``None``."""
    records = base + new
    first = records[0]
    for record in records[1:]:
        for key in HOST_KEYS:
            if record["host"].get(key) != first["host"].get(key):
                return (f"host fact {key!r} differs: "
                        f"{first['host'].get(key)!r} vs {record['host'].get(key)!r}")
        for key in ("workload", "trace"):
            if record[key] != first[key]:
                return f"{key} differs: {first[key]!r} vs {record[key]!r}"
    return None


def nondeterminism(records: list[dict[str, Any]], side: str) -> list[str]:
    """Exact-repeat counts must match between records with one seed."""
    by_seed: dict[int, dict[str, Any]] = {}
    problems = []
    for record in records:
        seed = record["host"]["seed"]
        counts = record.get("counts", {})
        if seed not in by_seed:
            by_seed[seed] = counts
            continue
        for name, value in counts.items():
            other = by_seed[seed].get(name)
            if other is not None and other != value:
                problems.append(f"nondeterminism ({side}, seed {seed}): "
                                f"{name} {other} vs {value}")
    return problems


def bounds() -> dict[str, dict[str, Any]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}


def compare(base: list[dict[str, Any]], new: list[dict[str, Any]],
            spec: dict[str, dict[str, Any]]) -> tuple[list[str], bool]:
    lines = [f"{'metric':40} {'base':>12} {'new':>12} {'new/base':>9} "
             f"{'bound':>6}  verdict"]
    worse = False
    for name in base[0]["metrics"]:
        b = [r["metrics"][name]["value"] for r in base]
        n = [r["metrics"][name]["value"] for r in new]
        mb, mn = median(b), median(n)
        ratio = mn / mb if mb else float("nan")
        meta = spec.get(name, {})
        bound = meta.get("bound")
        verdict = ""
        if bound is not None:
            spread = (quantile(b, 0.75) - quantile(b, 0.25)) / mb if mb else 0.0
            lower = meta.get("better") == "lower"
            change = (mn - mb) / mb if lower else (mb - mn) / mb
            if spread > bound:
                verdict = "unresolved"
            elif change > bound:
                verdict = "worse"
                worse = True
            else:
                verdict = "ok"
        lines.append(f"{name:40} {mb:12.6g} {mn:12.6g} {ratio:9.3f} "
                     f"{'' if bound is None else bound:>6}  {verdict}")
    return lines, worse


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--new", nargs="+", required=True)
    args = parser.parse_args(argv)
    base, new = load(args.base), load(args.new)
    reason = refusal(base, new)
    if reason is not None:
        print(f"compare: refusing to compare: {reason}", file=sys.stderr)
        return 2
    problems = nondeterminism(base, "base") + nondeterminism(new, "new")
    lines, worse = compare(base, new, bounds())
    print("\n".join(lines))
    for problem in problems:
        print(problem)
    return 1 if worse or problems else 0


if __name__ == "__main__":
    sys.exit(main())
