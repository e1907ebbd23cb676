"""Exhaustive validation of the burst DP on a tiny datacenter.

On a 3-rack x 6-disk toy topology every failure layout can be enumerated,
so the DP's layout-counting answer (the paper's methodology) is checked
against ground truth with zero statistical slack.
"""

import itertools

import numpy as np
import pytest

from repro.analysis.burst_dp import mlec_burst_pdl, slec_burst_pdl
from repro.core.config import DatacenterConfig, MLECParams, SLECParams
from repro.core.scheme import SLECScheme, mlec_scheme_from_name
from repro.core.types import Level, Placement

TINY = DatacenterConfig(
    racks=3,
    enclosures_per_rack=1,
    disks_per_enclosure=6,
    disk_capacity_bytes=6 * 128 * 1024,
    chunk_size_bytes=128 * 1024,
)
PARAMS = MLECParams(2, 1, 2, 1)  # (2+1)/(2+1): n_n = 3 racks, n_l = 3 disks
# (1+2)/(2+1): loss takes p_n+1 = 3 catastrophic pools at one position, so
# the collision DP tracks two occupancy levels instead of one.
PARAMS_T3 = MLECParams(1, 2, 2, 1)


def _enumerate_layouts(racks_used: tuple[int, ...], failures: int):
    """All failure sets of the given size touching exactly these racks."""
    disks = [r * 6 + d for r in racks_used for d in range(6)]
    for combo in itertools.combinations(disks, failures):
        touched = {d // 6 for d in combo}
        if touched == set(racks_used):
            yield combo


def _brute_force_pdl(loss_fn, failures: int, racks: int) -> float:
    """Average the loss predicate over all layouts and rack choices."""
    losses = 0
    total = 0
    for racks_used in itertools.combinations(range(3), racks):
        for combo in _enumerate_layouts(racks_used, failures):
            total += 1
            losses += bool(loss_fn(np.array(combo)))
    return losses / total


def _cc_loss(failed: np.ndarray) -> bool:
    """C/C ground truth: 2 catastrophic local-Cp pools at the same pool
    position across racks (single group of 3 racks)."""
    pools = failed // 3  # 2 pools of 3 disks per rack
    counts = np.bincount(pools, minlength=6)
    catastrophic = counts >= 2  # p_l + 1
    positions = np.nonzero(catastrophic)[0] % 2
    return np.bincount(positions, minlength=2).max() >= 2  # p_n + 1


def _dc_loss(failed: np.ndarray) -> bool:
    """D/C worst case: catastrophic pools in >= 2 distinct racks."""
    pools = failed // 3
    counts = np.bincount(pools, minlength=6)
    racks = np.nonzero(counts >= 2)[0] // 2
    return len(set(racks.tolist())) >= 2


def _cd_loss(failed: np.ndarray) -> bool:
    """C/D worst case: >= 2 catastrophic enclosures at the same enclosure
    position (only one position here) across the group."""
    enclosures = failed // 6
    counts = np.bincount(enclosures, minlength=3)
    return (counts >= 2).sum() >= 2


def _cc_t3_loss(failed: np.ndarray) -> bool:
    """(1+2)/(2+1) C/C: 3 catastrophic pools at the same pool position."""
    counts = np.bincount(failed // 3, minlength=6)
    positions = np.nonzero(counts >= 2)[0] % 2
    return np.bincount(positions, minlength=2).max() >= 3


def _cd_t3_loss(failed: np.ndarray) -> bool:
    """(1+2)/(2+1) C/D worst case: every rack's enclosure catastrophic."""
    return bool((np.bincount(failed // 6, minlength=3) >= 2).all())


def _net_cp_t3_loss(failed: np.ndarray) -> bool:
    """Net-Cp (1+2) SLEC: one in-rack disk position failed in 3 racks."""
    return np.bincount(failed % 6, minlength=6).max() >= 3


def _loc_cp_loss(failed: np.ndarray) -> bool:
    """Local-Cp (2+1) SLEC: any pool with >= 2 failures loses."""
    pools = failed // 3
    return np.bincount(pools).max() >= 2


class TestMLECDPAgainstBruteForce:
    @pytest.mark.parametrize("failures,racks", [
        (2, 1), (3, 1), (4, 1), (6, 1),
        (2, 2), (3, 2), (4, 2), (6, 2),
        (3, 3), (4, 3), (5, 3), (8, 3),
    ])
    def test_cc_exact(self, failures, racks):
        scheme = mlec_scheme_from_name("C/C", PARAMS, TINY)
        dp = mlec_burst_pdl(scheme, failures, racks)
        brute = _brute_force_pdl(_cc_loss, failures, racks)
        assert dp == pytest.approx(brute, abs=1e-9), (failures, racks)

    @pytest.mark.parametrize("failures,racks", [
        (2, 2), (3, 2), (4, 2), (4, 3), (6, 3),
    ])
    def test_dc_worst_case_exact(self, failures, racks):
        scheme = mlec_scheme_from_name("D/C", PARAMS, TINY)
        dp = mlec_burst_pdl(scheme, failures, racks)
        brute = _brute_force_pdl(_dc_loss, failures, racks)
        assert dp == pytest.approx(brute, abs=1e-9), (failures, racks)

    @pytest.mark.parametrize("failures,racks", [
        (2, 2), (4, 2), (4, 3), (6, 3),
    ])
    def test_cd_worst_case_exact(self, failures, racks):
        scheme = mlec_scheme_from_name("C/D", PARAMS, TINY)
        dp = mlec_burst_pdl(scheme, failures, racks)
        brute = _brute_force_pdl(_cd_loss, failures, racks)
        assert dp == pytest.approx(brute, abs=1e-9), (failures, racks)

    @pytest.mark.parametrize("failures", [6, 7, 8, 9, 12])
    def test_cc_threshold_3_exact(self, failures):
        scheme = mlec_scheme_from_name("C/C", PARAMS_T3, TINY)
        dp = mlec_burst_pdl(scheme, failures, 3)
        brute = _brute_force_pdl(_cc_t3_loss, failures, 3)
        assert dp == pytest.approx(brute, abs=1e-9), failures

    @pytest.mark.parametrize("failures", [6, 7, 9])
    def test_cd_threshold_3_worst_case_exact(self, failures):
        scheme = mlec_scheme_from_name("C/D", PARAMS_T3, TINY)
        dp = mlec_burst_pdl(scheme, failures, 3)
        brute = _brute_force_pdl(_cd_t3_loss, failures, 3)
        assert dp == pytest.approx(brute, abs=1e-9), failures


class TestSLECDPAgainstBruteForce:
    @pytest.mark.parametrize("failures,racks", [
        (1, 1), (2, 1), (3, 1), (2, 2), (4, 2), (5, 3),
    ])
    def test_loc_cp_exact(self, failures, racks):
        scheme = SLECScheme(
            SLECParams(2, 1), Level.LOCAL, Placement.CLUSTERED, TINY
        )
        dp = slec_burst_pdl(scheme, failures, racks)
        brute = _brute_force_pdl(_loc_cp_loss, failures, racks)
        assert dp == pytest.approx(brute, abs=1e-9), (failures, racks)

    @pytest.mark.parametrize("failures", [3, 4, 5, 6, 8, 10])
    def test_net_cp_threshold_3_exact(self, failures):
        scheme = SLECScheme(
            SLECParams(1, 2), Level.NETWORK, Placement.CLUSTERED, TINY
        )
        dp = slec_burst_pdl(scheme, failures, 3)
        brute = _brute_force_pdl(_net_cp_t3_loss, failures, 3)
        assert dp == pytest.approx(brute, abs=1e-9), failures
