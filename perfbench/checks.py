"""Correctness checks: statistical bounds and references, no golden MC bytes.

Every Monte-Carlo check holds for *any* valid random stream: it compares
an MC mean against the exact DP with a bound whose false-alarm rate is
stated, instead of comparing bytes a different RNG contract would move.
Exact values (the DP itself, ``mlec-sim info``) are compared against the
stored reference within a tight tolerance.

Each function returns a list of human-readable failures (empty = pass).
"""

from __future__ import annotations

import math
import re
from collections.abc import Sequence
from typing import Any

#: Per-check false-alarm probability of the MC-vs-DP bounds.
ALPHA = 1e-9
#: Exact-DP agreement: relative tolerance, plus an absolute floor for
#: values computed as ``1 - survive/total`` (cancellation near 0 leaves
#: noise up to ~3e-13 in the stored values).
DP_RTOL = 1e-6
DP_ATOL = 1e-12
#: Poisson count check width, in standard deviations.
POISSON_SIGMAS = 5.0
#: Disks in the paper's deployment (60 racks x 960 disks).
TOTAL_DISKS = 57_600


def bernstein_halfwidth(variance: float, n: int, alpha: float = ALPHA) -> float:
    """Deviation ``t`` with ``P(|mean - mu| >= t) <= alpha`` per side.

    Bernstein's inequality for the mean of ``n`` iid outcomes in [0, 1]
    with variance at most ``variance``.  For large ``n`` this is
    ``z * SE`` with ``z = sqrt(2 ln(1/alpha))`` (6.4 at the default
    alpha); for small ``n`` it stays valid where a normal z-test is not.
    """
    if n <= 0:
        return math.inf
    log_term = math.log(1.0 / alpha)
    a = 2.0 * log_term / 3.0
    return (a + math.sqrt(a * a + 8.0 * n * log_term * variance)) / (2.0 * n)


def check_mc_vs_dp(label: str, mc_mean: float, n: int, dp: float,
                   exact: bool) -> list[str]:
    """MC mean of ``n`` trials against the exact DP value.

    ``exact`` (fully clustered placement): the DP is the true PDL, so the
    bound is two-sided.  Otherwise the DP is a worst-case upper bound
    and only ``MC <= DP + t`` is required.  The variance bound is the
    largest a [0, 1] outcome with that mean can have.
    """
    if not (0.0 <= mc_mean <= 1.0):
        return [f"{label}: MC mean {mc_mean!r} outside [0, 1]"]
    if exact:
        t = bernstein_halfwidth(dp * (1.0 - dp), n)
        if abs(mc_mean - dp) > t:
            return [f"{label}: MC {mc_mean:.4e} (n={n}) differs from exact DP "
                    f"{dp:.4e} by more than {t:.3e}"]
        return []
    m = min(dp, 0.5)
    t = bernstein_halfwidth(m * (1.0 - m), n)
    if mc_mean > dp + t:
        return [f"{label}: MC {mc_mean:.4e} (n={n}) exceeds DP upper bound "
                f"{dp:.4e} by more than {t:.3e}"]
    return []


def sigma_upper(sample_var: float, n: int, alpha: float = ALPHA) -> float:
    """Upper bound on the standard deviation of [0, 1] outcomes.

    From the unbiased sample variance of ``n`` outcomes, exceeded with
    probability at most ``alpha`` (Maurer and Pontil 2009, Theorem 10).
    """
    return math.sqrt(sample_var) + math.sqrt(2.0 * math.log(1.0 / alpha)
                                             / (n - 1))


def check_mc_vs_expectation(label: str, mc_mean: float, n: int,
                            ref_mean: float, ref_var: float,
                            ref_n: int) -> list[str]:
    """Two-sided: an MC mean against a stored high-trial estimate of it.

    Both are means of the same expectation, so their gap is bounded by
    the sum of two Bernstein half-widths, with a variance bound derived
    from the reference sample.  Unlike the DP upper bound, this has a
    lower side, so a kernel that under-reports data loss fails it.
    False alarms stay below ``3 * ALPHA`` per side.
    """
    if not (0.0 <= mc_mean <= 1.0):
        return [f"{label}: MC mean {mc_mean!r} outside [0, 1]"]
    sigma = min(0.5, sigma_upper(ref_var, ref_n))
    var = sigma * sigma
    t = bernstein_halfwidth(var, n) + bernstein_halfwidth(var, ref_n)
    if abs(mc_mean - ref_mean) > t:
        return [f"{label}: MC {mc_mean:.4e} (n={n}) differs from the "
                f"expected {ref_mean:.4e} (n={ref_n}) by more than {t:.3e}"]
    return []


def check_guaranteed_zero(label: str, mc_mean: float, survives: bool) -> list[str]:
    """A burst the tolerance guarantees survivable never loses data."""
    if survives and mc_mean != 0.0:
        return [f"{label}: guaranteed survivable but MC PDL is {mc_mean!r}"]
    return []


def expected_disk_failures(afr: float, years: float, trials: int) -> float:
    """Mean failures of the exponential model (rate -ln(1-AFR) per disk-year).

    Failed disks are replaced at their failure instant, so each disk is a
    Poisson process; the count over ``trials`` missions is Poisson too.
    """
    return TOTAL_DISKS * -math.log1p(-afr) * years * trials


def check_poisson(label: str, observed: float, expected: float,
                  sigmas: float = POISSON_SIGMAS) -> list[str]:
    if abs(observed - expected) > sigmas * math.sqrt(expected):
        return [f"{label}: {observed:.0f} not within {sigmas:g} sigma of "
                f"{expected:.0f}"]
    return []


def check_dp_value(label: str, value: float, reference: float) -> list[str]:
    if not math.isfinite(value):
        return [f"{label}: DP value {value!r} is not finite"]
    if abs(value - reference) > max(DP_RTOL * abs(reference), DP_ATOL):
        return [f"{label}: DP {value!r} != reference {reference!r}"]
    return []


def check_finding4(values: dict[str, float]) -> list[str]:
    """Finding 4 at (60 failures, 3 racks): D/D > C/D > D/C > C/C."""
    order = ("D/D", "C/D", "D/C", "C/C")
    got = [values[name] for name in order]
    if not all(a > b for a, b in zip(got, got[1:])):
        return [f"Finding-4 ordering broken at (60, 3): "
                f"{dict(zip(order, got))}"]
    return []


def check_text(label: str, text: str, reference: str) -> list[str]:
    if text != reference:
        return [f"{label}: output differs from the stored reference"]
    return []


# ----------------------------------------------------------------------
# CLI output parsing
# ----------------------------------------------------------------------
_BURST_RE = re.compile(
    r"^PDL\[(\d+) failures across (\d+) racks\] = (\S+)\s+"
    r"\[Monte-Carlo \((\d+) trials\)\]", re.M,
)
_SIM_LOSS_RE = re.compile(r"trials with data loss: (\d+)/(\d+)")
_SIM_FAIL_RE = re.compile(r"mean disk failures\s*:\s*(\S+)")


def parse_cli_burst(stdout: str) -> dict[str, Any]:
    match = _BURST_RE.search(stdout)
    if match is None:
        raise ValueError("no Monte-Carlo PDL line in burst output")
    survivable = re.search(r"guaranteed survivable: (yes|no)", stdout)
    return {
        "failures": int(match.group(1)),
        "racks": int(match.group(2)),
        "pdl": float(match.group(3)),
        "trials": int(match.group(4)),
        "survivable": survivable.group(1) == "yes" if survivable else None,
    }


def parse_cli_simulate(stdout: str) -> dict[str, Any]:
    loss = _SIM_LOSS_RE.search(stdout)
    fails = _SIM_FAIL_RE.search(stdout)
    if loss is None or fails is None:
        raise ValueError("no campaign summary in simulate output")
    trials = int(loss.group(2))
    return {
        "loss_trials": int(loss.group(1)),
        "trials": trials,
        "disk_failures": float(fails.group(1)) * trials,
    }


def check_cli_burst(parsed: dict[str, Any], dp: float, exact: bool,
                    survivable: bool) -> list[str]:
    label = f"cli burst ({parsed['failures']}, {parsed['racks']})"
    # The printed mean is rounded to 4 significant digits (%.3e): the
    # check passes if any mean that prints the same way passes.
    pdl = parsed["pdl"]
    lo, hi = pdl * (1.0 - 5e-4), pdl * (1.0 + 5e-4)
    candidates = (pdl, lo, hi, min(max(dp, lo), hi))
    verdicts = [check_mc_vs_dp(label, c, parsed["trials"], dp, exact)
                for c in candidates]
    errors = [] if any(not v for v in verdicts) else verdicts[0]
    if parsed["survivable"] is not survivable:
        errors.append(f"{label}: printed survivability "
                      f"{parsed['survivable']!r}, expected {survivable!r}")
    errors += check_guaranteed_zero(label, pdl, survivable)
    return errors


def check_cli_simulate(parsed: dict[str, Any], afr: float,
                       years: float) -> list[str]:
    errors = []
    if parsed["loss_trials"] != 0:
        errors.append(f"cli simulate: {parsed['loss_trials']} trial(s) lost "
                      "data at a rate the workload never loses at")
    expected = expected_disk_failures(afr, years, parsed["trials"])
    # The printed mean has one decimal: allow its rounding on top.
    slack = 0.05 * parsed["trials"]
    observed = parsed["disk_failures"]
    nearest = min(max(expected, observed - slack), observed + slack)
    return errors + check_poisson("cli simulate disk failures", nearest,
                                  expected)


# ----------------------------------------------------------------------
# Service
# ----------------------------------------------------------------------
def check_cache_hits(hits: Sequence[tuple[str, Any]],
                     fresh: dict[str, Any]) -> list[str]:
    """Every cache hit returns exactly the result its fresh job produced."""
    errors = []
    for job_id, result in hits:
        if job_id not in fresh:
            errors.append(f"cache hit for unknown job {job_id}")
        elif result != fresh[job_id]:
            errors.append(f"cache hit for {job_id} returned a different result")
    return errors


def check_offline_match(kind: str, service: dict[str, Any],
                        offline: dict[str, Any]) -> list[str]:
    """A service result equals an offline run of the same resolved spec."""
    if service != offline:
        return [f"service {kind} result differs from the offline run: "
                f"{service!r} != {offline!r}"]
    return []
