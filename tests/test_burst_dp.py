"""Exact burst DP: paper anchors, consistency with Monte Carlo."""

import math

import numpy as np
import pytest

from repro.analysis.burst_dp import (
    CellCollisionDP,
    _MarkSelector,
    mlec_burst_pdl,
    slec_burst_pdl,
)
from repro.core.config import PAPER_MLEC, MLECParams, SLECParams
from repro.core.scheme import SLECScheme, mlec_scheme_from_name
from repro.core.types import Level, Placement
from repro.sim.burst import MLECBurstEvaluator, burst_pdl

PARAMS = MLECParams(10, 2, 17, 3)
FLOAT_FLOOR = 1e-12  # documented numeric floor of the linear-space DP


def scheme(name):
    return mlec_scheme_from_name(name, PARAMS)


class TestCellCollisionDP:
    def test_no_marks_survives(self):
        dp = CellCollisionDP(n_cells=10, threshold=3)
        dp.add_rack(np.array([1.0]))
        assert dp.survive_probability() == pytest.approx(1.0)

    def test_single_rack_cannot_collide(self):
        dp = CellCollisionDP(n_cells=10, threshold=2)
        dp.add_rack(np.array([0.0, 0.0, 0.0, 1.0]))  # 3 marks, distinct cells
        assert dp.survive_probability() == pytest.approx(1.0)

    def test_guaranteed_collision(self):
        """2 racks each marking every cell must collide at threshold 2."""
        dp = CellCollisionDP(n_cells=4, threshold=2)
        full = np.zeros(5)
        full[4] = 1.0
        dp.add_rack(full)
        dp.add_rack(full)
        assert dp.survive_probability() == pytest.approx(0.0)

    def test_birthday_collision_probability(self):
        """2 racks, 1 mark each, C cells: collision probability 1/C."""
        c = 7
        dp = CellCollisionDP(n_cells=c, threshold=2)
        one = np.array([0.0, 1.0])
        dp.add_rack(one)
        dp.add_rack(one)
        assert dp.survive_probability() == pytest.approx(1 - 1 / c)

    def test_validation(self):
        with pytest.raises(ValueError):
            CellCollisionDP(0, 3)


class TestMarkSelectorAgainstReference:
    """The state-tensor kernel against the scalar CellCollisionDP."""

    @pytest.mark.parametrize("seed", range(16))
    def test_random_j_pmfs(self, seed):
        rng = np.random.default_rng(seed)
        cells = int(rng.integers(3, 13))
        threshold = int(rng.integers(1, 5))
        racks = int(rng.integers(2, 6))
        per_rack = int(rng.integers(1, cells + 1))
        select = _MarkSelector(cells, threshold - 1, racks * per_rack, per_rack)
        ways = np.array([math.comb(cells, k) for k in range(per_rack + 1)])
        reference = CellCollisionDP(cells, threshold)
        states = np.zeros(select.shape)
        states[0, 0] = 1.0
        for _ in range(racks):
            pmf = rng.dirichlet(np.ones(per_rack + 1))
            reference.add_rack(pmf)
            states = select(states, pmf / ways)
        assert states.sum() == pytest.approx(
            reference.survive_probability(), rel=1e-12, abs=1e-300
        )
        # State by state: row (n_2, ..., n_L), column n_1.
        for state, weight in reference.states.items():
            cell = select.rows[state[1:]], state[0] if state else 0
            assert states[cell] == pytest.approx(weight, rel=1e-12)


class TestMLECDPAnchors:
    def test_zero_regions_finding3(self):
        """PDL = 0 (up to float floor) for <= p_n racks and y <= x+8."""
        for name in ("C/C", "C/D", "D/C", "D/D"):
            s = scheme(name)
            assert mlec_burst_pdl(s, 60, 1) <= FLOAT_FLOOR
            assert mlec_burst_pdl(s, 60, 2) <= FLOAT_FLOOR
            assert mlec_burst_pdl(s, 11, 3) <= FLOAT_FLOOR

    def test_just_above_boundary_nonzero(self):
        """y = x+9 failures in 3 racks can build 3 lost stripes."""
        assert mlec_burst_pdl(scheme("D/D"), 12, 3) > FLOAT_FLOOR

    def test_scheme_ordering_at_worst_cell(self):
        """Findings 4-7: at y=60, x=3 the PDL orders D/D > C/D > D/C > C/C."""
        pdl = {name: mlec_burst_pdl(scheme(name), 60, 3)
               for name in ("C/C", "C/D", "D/C", "D/D")}
        assert pdl["D/D"] > pdl["C/D"] > pdl["D/C"] > pdl["C/C"]

    def test_scattering_monotonicity(self):
        """Finding 2: spreading 60 failures over more racks lowers PDL."""
        s = scheme("D/D")
        values = [mlec_burst_pdl(s, 60, x) for x in (3, 6, 12, 30)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_validation(self):
        with pytest.raises(ValueError):
            mlec_burst_pdl(scheme("C/C"), 2, 5)
        with pytest.raises(ValueError):
            mlec_burst_pdl(scheme("C/C"), 10, 0)
        slec = SLECScheme(SLECParams(7, 3), Level.NETWORK, Placement.CLUSTERED)
        dpr = slec.dc.disks_per_rack
        for name in ("C/C", "C/D", "D/C", "D/D"):
            with pytest.raises(ValueError, match="more failures than disks"):
                mlec_burst_pdl(scheme(name), 2 * dpr + 1, 2)
        for level in Level:
            for placement in Placement:
                s = SLECScheme(SLECParams(7, 3), level, placement)
                with pytest.raises(ValueError, match="more failures than disks"):
                    slec_burst_pdl(s, dpr + 1, 1)
        # The largest burst the racks can hold is still a valid input.
        assert mlec_burst_pdl(scheme("D/D"), dpr, 1) <= FLOAT_FLOOR


class TestDPvsMonteCarlo:
    def test_dd_upper_bounds_monte_carlo(self):
        """The worst-case-declustering DP must upper-bound the placement-
        averaged MC estimate (it assumes any p_n+1 catastrophic pools in
        distinct racks are co-striped, which the MC refines away)."""
        s = scheme("D/D")
        dp = mlec_burst_pdl(s, 60, 3)
        rng = np.random.default_rng(0)
        mc = burst_pdl(MLECBurstEvaluator(s), 60, 3, trials=150, rng=rng)
        assert dp >= mc - 0.05  # upper bound modulo MC noise
        assert mc > 0.0  # both see the hot cell

    def test_cc_exactness_against_dedicated_mc(self):
        """C/C is fully clustered: DP is exact, MC agrees within noise."""
        s = scheme("C/C")
        rng = np.random.default_rng(1)
        y, x = 40, 2  # a guaranteed-zero cell
        assert mlec_burst_pdl(s, y, x) <= FLOAT_FLOOR
        assert burst_pdl(MLECBurstEvaluator(s), y, x, trials=50, rng=rng) == 0.0


class TestSLECDP:
    def _s(self, level, placement, k=7, p=3):
        return SLECScheme(SLECParams(k, p), level, placement)

    def test_loc_cp_burst_pdl_positive_when_localized(self):
        v = slec_burst_pdl(self._s(Level.LOCAL, Placement.CLUSTERED), 60, 1)
        assert 0.05 < v < 0.6

    def test_loc_dp_worse_than_cp_localized(self):
        cp = slec_burst_pdl(self._s(Level.LOCAL, Placement.CLUSTERED), 60, 1)
        dp = slec_burst_pdl(self._s(Level.LOCAL, Placement.DECLUSTERED), 60, 1)
        assert dp > cp

    def test_loc_cp_safe_below_p_plus_1(self):
        assert slec_burst_pdl(self._s(Level.LOCAL, Placement.CLUSTERED), 3, 1) == 0.0

    def test_net_dp_worst_case_rule(self):
        s = self._s(Level.NETWORK, Placement.DECLUSTERED)
        assert slec_burst_pdl(s, 60, 3) == 0.0
        assert slec_burst_pdl(s, 60, 4) == 1.0

    def test_net_cp_zero_within_p_racks(self):
        s = self._s(Level.NETWORK, Placement.CLUSTERED)
        assert slec_burst_pdl(s, 60, 3) <= FLOAT_FLOOR

    def test_net_cp_collision_probability_plausible(self):
        """Scattered failures: position collisions are rare but non-zero."""
        s = self._s(Level.NETWORK, Placement.CLUSTERED)
        v = slec_burst_pdl(s, 60, 60)
        assert 0.0 <= v < 1e-3


# The benchmark's exact-DP reference cells (perfbench/reference.json,
# "dp_cells") and net-Cp (60, 60), all computed by the dict-of-states DP
# with pruning that the state-tensor kernel replaced.
PINNED_MLEC = {
    ("C/C", 60, 3): 1.9323920241731685e-10,
    ("C/C", 60, 12): 0.0,
    ("C/C", 11, 3): 0.0,
    ("C/D", 60, 3): 0.0026182217974756172,
    ("C/D", 60, 12): 1.130940958660176e-06,
    ("C/D", 11, 3): 0.0,
    ("D/C", 60, 3): 1.357095388101559e-05,
    ("D/C", 60, 12): 2.701447700559972e-10,
    ("D/C", 11, 3): 0.0,
    ("D/D", 60, 3): 0.7511937072374252,
    ("D/D", 60, 12): 0.0020290055360620814,
    ("D/D", 11, 3): 0.0,
}
PINNED_NET_CP = {
    (24, 6): 8.833673348362936e-09,
    (36, 12): 1.0177401510436113e-07,
    (60, 60): 1.4170474829100499e-06,
}


def _cell_id(cell):
    return "-".join(map(str, cell))


def _pinned(value, reference):
    """The benchmark's rule: 1e-6 relative or 1e-12 absolute."""
    return abs(value - reference) <= max(1e-6 * abs(reference), 1e-12)


class TestPinnedValues:
    @pytest.mark.parametrize("cell", sorted(PINNED_MLEC), ids=_cell_id)
    def test_mlec(self, cell):
        name, y, x = cell
        value = mlec_burst_pdl(mlec_scheme_from_name(name, PAPER_MLEC), y, x)
        assert _pinned(value, PINNED_MLEC[cell]), (cell, value)

    @pytest.mark.parametrize("cell", sorted(PINNED_NET_CP), ids=_cell_id)
    def test_net_cp(self, cell):
        s = SLECScheme(SLECParams(7, 3), Level.NETWORK, Placement.CLUSTERED)
        value = slec_burst_pdl(s, *cell)
        assert _pinned(value, PINNED_NET_CP[cell]), (cell, value)
