"""Each benchmark check passes on a good value and fails on a corrupted one.

    python -m pytest perfbench -q
"""

from __future__ import annotations

import json
import math
import sys
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import compare  # noqa: E402
import run  # noqa: E402
from common import REFERENCE, ROOT  # noqa: E402
from tracer import Tracer  # noqa: E402

REF = json.loads(REFERENCE.read_text(encoding="utf-8"))


def _cell(scheme: str, y: int, x: int) -> dict:
    return next(c for c in REF["mc_cells"]
                if (c["scheme"], c["y"], c["x"]) == (scheme, y, x))


class TestMonteCarloBounds:
    def test_exact_cell_two_sided(self):
        dp = 0.01
        n = 10_000
        t = checks.bernstein_halfwidth(dp * (1 - dp), n)
        assert checks.check_mc_vs_dp("c", dp, n, dp, exact=True) == []
        assert checks.check_mc_vs_dp("c", dp + 0.9 * t, n, dp, exact=True) == []
        assert checks.check_mc_vs_dp("c", dp + 1.1 * t, n, dp, exact=True)
        assert checks.check_mc_vs_dp("c", dp - 1.1 * t, n, dp, exact=True)

    def test_declustered_cell_one_sided(self):
        dp = _cell("D/D", 60, 3)["dp"]
        n = 800
        # The DP is an upper bound: far below it is fine, far above is not.
        assert checks.check_mc_vs_dp("c", 0.0, n, dp, exact=False) == []
        assert checks.check_mc_vs_dp("c", min(1.0, dp + 0.2), n, dp,
                                     exact=False)

    def test_expectation_two_sided(self):
        cell = _cell("D/D", 60, 3)
        n = 1000
        mean = (cell["mc_mean"], cell["mc_var"], cell["mc_trials"])
        assert checks.check_mc_vs_expectation("c", mean[0], n, *mean) == []
        assert checks.check_mc_vs_expectation("c", 3 * mean[0], n, *mean)
        # The share of trials exposed to loss is binary per trial, so
        # under-reporting fails too, unlike against the DP upper bound.
        q = cell["mc_exposure"]
        share = (q, q * (1 - q), cell["mc_trials"])
        assert checks.check_mc_vs_expectation("c", q, n, *share) == []
        assert checks.check_mc_vs_expectation("c", 0.0, n, *share)
        assert checks.check_mc_vs_expectation("c", q / 2, n, *share)

    def test_sigma_upper_covers_the_sample(self):
        assert checks.sigma_upper(0.01, 40_000) > 0.1
        assert checks.sigma_upper(0.0, 40_000) > 0.0

    def test_mean_outside_unit_interval(self):
        assert checks.check_mc_vs_dp("c", -1e-3, 10, 0.0, exact=False)
        assert checks.check_mc_vs_dp("c", 1.5, 10, 1.0, exact=True)

    def test_bound_is_about_z_times_se_for_large_n(self):
        var, n = 0.25, 10**8
        z = checks.bernstein_halfwidth(var, n) / math.sqrt(var / n)
        assert 6.0 < z < 6.7

    def test_guaranteed_zero(self):
        assert checks.check_guaranteed_zero("c", 0.0, True) == []
        assert checks.check_guaranteed_zero("c", 1e-12, True)
        assert checks.check_guaranteed_zero("c", 0.3, False) == []

    def test_poisson_count(self):
        expected = checks.expected_disk_failures(0.1, 0.5, 64)
        assert checks.check_poisson("s", expected, expected) == []
        assert checks.check_poisson("s", expected + 6 * math.sqrt(expected),
                                    expected)
        # AFR alone (not -ln(1-AFR)) is 5 sigma off at this volume.
        assert checks.check_poisson("s", 57_600 * 0.1 * 0.5 * 64, expected)


class TestMcKernel:
    """The whole ``mc_kernel`` check on a synthetic result."""

    @staticmethod
    def _result(trials: int, scale: float) -> dict:
        cells = []
        for c in REF["mc_cells"]:
            if c["survives"]:
                mean = exposure = 0.0
            elif "mc_mean" in c:
                mean, exposure = c["mc_mean"], c["mc_exposure"]
            else:
                mean = exposure = c["dp"]
            cells.append({"scheme": c["scheme"], "y": c["y"], "x": c["x"],
                          "survives": c["survives"], "trials": trials,
                          "total": scale * mean * trials,
                          "losses": round(scale * exposure * trials)})
        return {"cells": cells, "sim": {"trials": 0}}

    def test_expected_outcomes_pass(self):
        for trials in (400, 1000):
            assert run.check_mc_kernel(self._result(trials, 1.0)) == []

    def test_all_zero_kernel_fails(self):
        # A kernel that never reports a loss, at the traced run's 400
        # trials per cell and at a measured run's ~1000.
        for trials in (400, 1000):
            assert run.check_mc_kernel(self._result(trials, 0.0))

    def test_halved_losses_fail(self):
        assert run.check_mc_kernel(self._result(1000, 0.5))


class TestExactReferences:
    def test_dp_value(self):
        ref = 1.9323920241731685e-10
        assert checks.check_dp_value("d", ref, ref) == []
        assert checks.check_dp_value("d", ref + 5e-13, ref) == []
        assert checks.check_dp_value("d", ref * 1.01, ref)
        assert checks.check_dp_value("d", math.nan, ref)

    def test_finding4(self):
        at_60_3 = {c["scheme"]: c["value"] for c in REF["dp_cells"]
                   if c["kind"] == "mlec" and (c["y"], c["x"]) == (60, 3)}
        assert checks.check_finding4(at_60_3) == []
        at_60_3["C/C"], at_60_3["D/C"] = at_60_3["D/C"], at_60_3["C/C"]
        assert checks.check_finding4(at_60_3)

    def test_info_text(self):
        text = REF["cli_info_cd"]
        assert checks.check_text("info", text, text) == []
        assert checks.check_text("info", text.replace("11", "12", 1), text)


class TestCliOutput:
    DP = _cell("D/D", 36, 6)["dp"]

    def _burst(self, pdl: str, survivable: str = "no") -> dict:
        out = (f"PDL[36 failures across 6 racks] = {pdl}   [Monte-Carlo "
               f"(4000 trials)]  95% CI +/- 6.537e-08\n"
               f"guaranteed survivable: {survivable}\n")
        return checks.parse_cli_burst(out)

    def test_burst(self):
        good = self._burst(f"{self.DP:.3e}")
        assert checks.check_cli_burst(good, self.DP, False, False) == []
        assert checks.check_cli_burst(self._burst("5.000e-01"), self.DP,
                                      False, False)
        assert checks.check_cli_burst(self._burst(f"{self.DP:.3e}", "yes"),
                                      self.DP, False, False)

    def test_simulate(self):
        trials, afr = 8, 0.05
        mean = checks.expected_disk_failures(afr, 1.0, trials) / trials
        out = (f"  trials with data loss: 0/{trials}\n"
               f"  mean disk failures   : {mean:.1f}\n")
        parsed = checks.parse_cli_simulate(out)
        assert checks.check_cli_simulate(parsed, afr, 1.0) == []
        lossy = dict(parsed, loss_trials=1)
        assert checks.check_cli_simulate(lossy, afr, 1.0)
        skewed = dict(parsed, disk_failures=parsed["disk_failures"] * 1.05)
        assert checks.check_cli_simulate(skewed, afr, 1.0)


class TestService:
    def test_cache_hits(self):
        fresh = {"j1": {"pdl_mean": 0.25}}
        assert checks.check_cache_hits([("j1", {"pdl_mean": 0.25})], fresh) == []
        assert checks.check_cache_hits([("j1", {"pdl_mean": 0.5})], fresh)
        assert checks.check_cache_hits([("j2", {"pdl_mean": 0.25})], fresh)

    def test_offline_match(self):
        a = {"trials": 240, "pdl_mean": 1e-3, "losses": 3}
        assert checks.check_offline_match("burst", a, dict(a)) == []
        assert checks.check_offline_match("burst", a, dict(a, losses=4))


class TestCompare:
    def _record(self, **host) -> dict:
        facts = {"nproc": 2, "cpu_model": "cpu", "machine": "x86_64",
                 "python": "3.11.7", "numpy": "2.4.6", "scipy": "1.17.1",
                 "git_sha": "a", "seed": 1}
        facts.update(host)
        return {"host": facts, "workload": "mc_kernel", "trace": 1,
                "metrics": {"main_s": {"value": 1.0, "unit": "s"}},
                "counts": {"sim.batch.demoted_trials": 10}}

    def test_refuses_other_host(self):
        a, b = self._record(), self._record(nproc=4, git_sha="b")
        assert compare.refusal([a], [b]) is not None
        assert compare.refusal([a], [self._record(git_sha="b")]) is None

    def test_nondeterminism(self):
        a, b = self._record(), self._record()
        assert compare.nondeterminism([a, b], "base") == []
        b["counts"]["sim.batch.demoted_trials"] = 11
        assert compare.nondeterminism([a, b], "base")


class TestTracer:
    def test_self_times_reconcile_with_threads(self):
        tracer = Tracer()

        def work(layer: str, inner: str) -> None:
            with tracer.span(layer):
                time.sleep(0.02)
                with tracer.span(inner):
                    time.sleep(0.02)

        threads = [threading.Thread(target=work, args=("runtime.run_chunk",
                                                       "sim.burst.sample"))
                   for _ in range(2)]
        for thread in threads:
            thread.start()
        work("analysis.burst_dp", "analysis.combinatorics")
        for thread in threads:
            thread.join(timeout=5)
            assert not thread.is_alive()
        summary = tracer.finish()
        assert run.reconcile(summary) == []
        assert summary["calls"]["runtime.run_chunk"] == 2
        assert summary["unattributed_s"] >= 0.0

    def test_single_thread_self_time(self):
        tracer = Tracer()
        with tracer.span("analysis.burst_dp"):
            time.sleep(0.03)
            with tracer.span("analysis.burst_dp.netcp_tables"):
                time.sleep(0.05)
        summary = tracer.finish()
        self_s = summary["self_s"]
        assert 0.045 < self_s["analysis.burst_dp.netcp_tables"] < 0.2
        assert 0.025 < self_s["analysis.burst_dp"] < 0.2

    def test_reconcile_flags_faults(self):
        summary = {"wall_s": 2.0, "self_s": {"runtime.run_chunk": 1.0},
                   "unattributed_s": 1.0, "process_unattributed_s": [1.0]}
        assert run.reconcile(summary) == []
        summary["process_unattributed_s"] = [1.5, -0.5]
        assert any("exceed" in e for e in run.reconcile(summary))
        summary["process_unattributed_s"] = [1.0]
        summary["self_s"]["not.a.layer"] = 0.5
        assert any("not.a.layer" in e for e in run.reconcile(summary))


def test_hits_split_by_overlap_with_a_job():
    import service_mixed

    traffic = service_mixed.Traffic(port=0, seed=0)
    traffic.job_spans = [(10.0, 10.04), (10.1, 10.14)]
    spans = [(9.95, 9.96), (10.02, 10.03), (10.035, 10.045),
             (10.05, 10.06), (10.09, 10.11), (10.2, 10.21)]
    traffic.hit_spans = spans
    traffic.hit_latency = [float(i) for i in range(len(spans))]
    idle, busy = service_mixed.split_hits(traffic)
    assert busy == [1.0, 2.0, 4.0]
    assert idle == [0.0, 3.0, 5.0]


def test_benchmark_json_lists_what_run_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
