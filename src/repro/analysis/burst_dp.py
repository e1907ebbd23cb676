"""Exact PDL under correlated failure bursts by dynamic programming (§3).

The paper's third methodology: "count the number of all the possible disk
failure layouts under a certain correlated failure burst scenario, and then
count how many such failure layouts could cause a data loss".  This module
does exactly that -- no sampling -- for all four MLEC schemes and the SLEC
placements, under the burst model "y simultaneous failures across x racks,
at least one per affected rack, all layouts equally likely".

Two layers of counting:

1. *Within a rack*: failures land uniformly among the rack's disks; the
   distribution of the number of catastrophic pool positions (pools with
   more than ``p_l`` failures) follows from exchangeable-cell counting
   (:func:`repro.analysis.combinatorics.cells_over_threshold_pmfs`).

2. *Across racks*: a cell-collision DP tracks how many shared positions
   have accumulated 1, 2, ... catastrophic pools, rack by rack, and kills
   states where any position reaches the loss threshold.  It runs on a
   dense state tensor (:class:`_MarkSelector`); :class:`CellCollisionDP`
   is its scalar reference.  An outer DP allocates the ``y`` failures (and,
   for network-clustered schemes, the ``x`` racks) across rack groups.

Declustered caveat: wherever a declustered placement is involved the DP
uses the worst-case declustering assumption (a pool with more than ``p_l``
failures *has* lost stripes; any ``p_n+1`` co-striped catastrophic pools
*do* lose a network stripe).  For clustered-everything (C/C, Loc-Cp,
Net-Cp) the numbers are exact; for D-flavoured schemes they are tight upper
bounds, and the Monte-Carlo burst engine (:mod:`repro.sim.burst`) provides
the placement-averaged refinement.  The test suite checks DP >= MC.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Any

import numpy as np

from ..core.arrays import AnyArray
from ..core.scheme import MLECScheme, SLECScheme
from ..core.types import Level, Placement
from .combinatorics import cells_over_threshold_pmfs

__all__ = [
    "CellCollisionDP",
    "mlec_burst_pdl",
    "slec_burst_pdl",
]


class CellCollisionDP:
    """Survival DP for racks throwing marks into shared exchangeable cells.

    ``n_cells`` positions are shared across racks.  Racks are processed one
    at a time; rack ``i`` contributes ``j`` marks (with a caller-supplied
    distribution over ``j``), thrown into ``j`` *distinct* cells uniformly.
    A cell that accumulates ``threshold`` marks is a data loss; the DP
    tracks the joint distribution of how many cells sit at each occupancy
    level ``1..threshold-1`` and accumulates only surviving states.

    States are dicts ``{(n_1, ..., n_{threshold-1}): weight}``.  This is
    the scalar reference the tests hold the dense kernel to.
    """

    def __init__(self, n_cells: int, threshold: int) -> None:
        if n_cells <= 0 or threshold < 1:
            raise ValueError("n_cells and threshold must be positive")
        self.n_cells = n_cells
        self.threshold = threshold
        self.levels = threshold - 1  # tracked occupancy levels 1..threshold-1
        empty = (0,) * self.levels
        self.states: dict[tuple[int, ...], float] = {empty: 1.0}

    def survive_probability(self) -> float:
        """Total surviving weight (callers keep it normalized)."""
        return float(sum(self.states.values()))

    def add_rack(self, j_pmf: AnyArray) -> None:
        """Fold in one rack with ``P[j marks] = j_pmf[j]``.

        Marks hitting a level-``i`` cell promote it to level ``i+1``; a hit
        on a level-``threshold-1`` cell is a loss and the state's weight is
        dropped.  The hit split across levels is multivariate
        hypergeometric over the cell counts.
        """
        j_pmf = np.asarray(j_pmf, dtype=float)
        new: dict[tuple[int, ...], float] = {}
        for state, weight in self.states.items():
            n_free = self.n_cells - sum(state)
            for j, pj in enumerate(j_pmf):
                if pj <= 0.0:
                    continue
                if j == 0:
                    key = state
                    new[key] = new.get(key, 0.0) + weight * pj
                    continue
                if j > self.n_cells:
                    continue  # impossible; weight is lost (treated as loss)
                denom = math.comb(self.n_cells, j)
                for split, ways in self._splits(state, n_free, j):
                    w = weight * pj * ways / denom
                    new[split] = new.get(split, 0.0) + w
        self.states = new

    def _splits(
        self, state: tuple[int, ...], n_free: int, j: int
    ) -> list[tuple[tuple[int, ...], float]]:
        """Yield (new_state, ways) for surviving allocations of j marks."""
        if self.levels == 0:
            # threshold == 1: any mark is a loss; only j == 0 survives
            # (handled by caller), so nothing to yield here.
            return []
        out: list[tuple[tuple[int, ...], float]] = []
        # a[i] = marks hitting level-(i+1) cells, i = 0..levels-1; the top
        # level cannot take any mark (that would reach the threshold).
        top = self.levels - 1

        def rec(i: int, remaining: int, counts: list[int], ways: float) -> None:
            if i == top:
                # marks on the top level would cause loss -> must be 0
                a_free = remaining
                if a_free > n_free:
                    return
                w = ways * math.comb(n_free, a_free)
                new_state = list(state)
                for lvl in range(self.levels):
                    new_state[lvl] += counts[lvl]
                # free-cell hits create level-1 cells
                new_state[0] += a_free
                out.append((tuple(new_state), w))
                return
            for a in range(min(state[i], remaining) + 1):
                counts[i] -= a  # a cells leave level i+1... see note below
                counts[i + 1] += a
                rec(i + 1, remaining - a, counts, ways * math.comb(state[i], a))
                counts[i] += a
                counts[i + 1] -= a

        # counts: net change per level; start at zero.
        rec(0, j, [0] * self.levels, 1.0)
        return out


def _scaled_rack_weights(disks_per_rack: int, max_f: int) -> AnyArray:
    """Layout-count weights C(disks, f) scaled to stay in float range.

    Each weight is divided by ``exp(f * c)`` with a per-failure constant
    ``c``; any product of weights over racks whose failure counts sum to a
    fixed total is then scaled by the same ``exp(-total * c)``, which
    cancels in every survive/total ratio.
    """
    f = np.arange(max_f + 1)
    log_ways = np.array(
        [math.lgamma(disks_per_rack + 1) - math.lgamma(k + 1)
         - math.lgamma(disks_per_rack - k + 1) for k in f]
    )
    c = log_ways[max_f] / max_f if max_f > 0 else 0.0
    return np.exp(log_ways - f * c)


@lru_cache(maxsize=None)
def _cat_position_pmf(cells: int, cell_size: int, max_f: int, p_l: int) -> AnyArray:
    """Cached P[exactly j catastrophic positions | f failures in rack].

    Row ``f`` for ``f = 0..max_f``; read-only, as every caller shares it.
    """
    table = cells_over_threshold_pmfs(cells, cell_size, max_f, p_l)
    table.flags.writeable = False
    return table


# ----------------------------------------------------------------------
# Network-declustered schemes: racks are exchangeable, loss happens when
# enough racks contain a catastrophic pool.
# ----------------------------------------------------------------------
def _netdp_pdl(
    disks_per_rack: int,
    cells: int,
    cell_size: int,
    p_l: int,
    loss_racks: int,
    failures: int,
    racks: int,
) -> float:
    """P[>= loss_racks racks hold a catastrophic pool] under the burst.

    DP over the ``x`` affected racks, allocating failures (>= 1 each,
    weighted by layout counts C(disks_per_rack, f)) and tracking the capped
    count of catastrophic racks.  Exact counting; weights are renormalized
    every step to stay in float range.
    """
    max_f = min(failures, disks_per_rack)
    j_dists = _cat_position_pmf(cells, cell_size, max_f, p_l)
    q_cat = np.array([1.0 - d[0] for d in j_dists])  # P[rack catastrophic | f]
    w = _scaled_rack_weights(disks_per_rack, max_f)

    cap = loss_racks
    # dp[u, c] = weight of using u failures so far with c catastrophic racks
    dp = np.zeros((failures + 1, cap + 1))
    dp[0, 0] = 1.0
    for _ in range(racks):
        new = np.zeros_like(dp)
        for f in range(1, max_f + 1):
            wf = w[f]
            src = dp[: failures + 1 - f]
            cat = q_cat[f]
            new[f:, : cap] += src[:, :cap] * (wf * (1 - cat))
            new[f:, 1 : cap + 1] += src[:, :cap] * (wf * cat)
            new[f:, cap] += src[:, cap] * wf
        dp = new / new.sum()  # rescale; relative shares are what matters
    final = dp[failures]
    return float(final[cap] / final.sum())


# ----------------------------------------------------------------------
# Network-clustered schemes: racks live in groups of n_n; loss requires
# >= p_n+1 catastrophic pools at the same pool position within one group.
# ----------------------------------------------------------------------
def _binomials(values: range, a_max: int) -> AnyArray:
    """Table ``[v - values.start, a]`` of C(v, a) as floats (0 for v < 0)."""
    return np.array(
        [[float(math.comb(v, a)) if v >= 0 else 0.0 for a in range(a_max + 1)]
         for v in values]
    ).reshape(len(values), a_max + 1)


class _MarkSelector:
    """One rack of :meth:`CellCollisionDP.add_rack`, for all states at once.

    A state tensor has a row per upper occupancy ``(n_2, ..., n_levels)``
    holding at most ``max_marks`` marks (``sum_i i * n_i``), numbered by
    :attr:`rows`, and a column per ``n_1``; trailing axes ride along.  A rack
    marking ``k`` distinct cells, none at the top level, reaches a successor
    in ``prod_i C(n_i, a_i) * C(n_free, a_0)`` ways (see
    :meth:`CellCollisionDP._splits`), each weighted by ``gain[k]``.

    Levels are picked from the highest down, so every pick sees the rack's
    original counts: cells leave level ``i`` before any arrive from level
    ``i-1``, and promotions leave ``n_free`` unchanged.  Free cells come last.
    Columns past the mark budget hold states that reach no valid state.
    """

    def __init__(self, cells: int, levels: int, max_marks: int, per_rack: int) -> None:
        self.max_marks = max_marks
        self.per_rack = per_rack
        uppers: list[tuple[tuple[int, ...], int]] = [((), 0)]
        for i in range(2, levels + 1):
            uppers = [(u + (n,), mu + i * n) for u, mu in uppers
                      for n in range(min((max_marks - mu) // i, cells - sum(u)) + 1)]
        #: Row of each upper occupancy (n_2, ..., n_levels).
        self.rows = {u: r for r, (u, _) in enumerate(uppers)}
        self.shape = (len(uppers), min(cells, max_marks) + 1 if levels else 1)
        n_1 = np.arange(self.shape[1])
        #: Marks held by each state.
        self.marks = np.array([mu for _, mu in uppers])[:, None] + n_1
        n_free = cells - np.array([sum(u) for u in self.rows])[:, None] - n_1
        low = int(n_free.min())
        self._free_ways = _binomials(range(low, cells + 1), per_rack)
        self._free_row = n_free - low
        # _moves[lose][a - 1]: a cells promoted from level lose to lose + 1,
        # as source rows, target rows, source and target columns, and ways.
        ways = _binomials(range(self.shape[1]), per_rack)
        counts = np.array(list(self.rows)).reshape(len(uppers), -1)
        self._moves: dict[int, list[tuple[Any, ...]]] = {}
        for lose in range(levels - 1, 0, -1):
            moves: list[tuple[Any, ...]] = []
            self._moves[lose] = moves
            for a in range(1, per_rack + 1):
                shift = np.zeros(levels - 1, dtype=int)
                shift[lose - 1] = a
                if lose > 1:
                    shift[lose - 2] = -a
                found = [(r, self.rows.get(tuple(c + shift))) for r, c in enumerate(counts)]
                pairs = [(r, t) for r, t in found if t is not None]
                cols = min(self.shape[1], max_marks - a + 1)  # sources in budget
                if not pairs or cols <= a:
                    break
                src, dst = np.array(pairs).T
                moves.append(
                    (src, dst, slice(0, cols), slice(0, cols),
                     ways[counts[src, lose - 2], a][:, None]) if lose > 1
                    else (src, dst, slice(a, cols), slice(0, cols - a), ways[a:cols, a]))

    def __call__(self, states: AnyArray, gain: AnyArray) -> AnyArray:
        """The successor states after one rack.

        ``gain[k]`` weighs a rack that marks ``k`` cells: a number, or, for
        states with one riding axis, a matrix applied along it.
        """
        riding = (1,) * (states.ndim - 2)
        y = states[None]  # y[k]: k occupied cells picked so far
        for moves in self._moves.values():  # highest level first
            src_y, grow = y, min(len(moves), self.per_rack + 1 - len(y))
            y = np.concatenate([y, np.zeros((grow,) + states.shape)])
            for a, (src, dst, cols, to, ways) in enumerate(moves, start=1):
                n = min(len(src_y), len(y) - a)
                y[a : a + n, dst, to] += src_y[:n, src, cols] * ways.reshape(
                    ways.shape + riding)
        picks = min(self.shape[1] - 1, self.per_rack)
        if gain.ndim == 1:
            # z[a] = sum_k y[k] gain[k + a], one Hankel product batched over
            # rows, each small enough for BLAS to keep on the calling thread.
            pad = np.zeros(len(y) + picks)
            pad[: min(len(gain), len(pad))] = gain[: len(pad)]
            window = np.lib.stride_tricks.sliding_window_view(pad, len(y))
            z = np.matmul(window, y.swapaxes(0, 1)).swapaxes(0, 1)
            new = z[0].copy()
            for a in range(1, picks + 1):
                self._free_picks(new, z[a], a, riding)
            return new
        # With a riding axis the Hankel product costs a matrix product per
        # (k, a) pair, so the free picks are added to each total u = k + a
        # first, and each total takes one product.
        new = np.zeros(states.shape)
        for u in range(min(len(y) - 1 + picks, self.per_rack) + 1):
            x_u = y[u].copy() if u < len(y) else np.zeros(states.shape)
            for a in range(max(1, u - len(y) + 1), min(u, picks) + 1):
                self._free_picks(x_u, y[u - a], a, riding)
            new += x_u @ gain[u]
        return new

    def _free_picks(
        self, dst: AnyArray, src: AnyArray, a: int, riding: tuple[int, ...]
    ) -> None:
        """``a`` free cells become level 1, from sources within budget."""
        cols = min(self.shape[1] - a, self.max_marks - a + 1)
        ways = self._free_ways[self._free_row[:, :cols], a]
        dst[:, a : a + cols] += src[:, :cols] * ways.reshape(ways.shape + riding)


def _netcp_group_tables(
    disks_per_rack: int,
    cells: int,
    cell_size: int,
    p_l: int,
    loss_threshold: int,
    max_m: int,
    max_r: int,
) -> tuple[AnyArray, AnyArray]:
    """Per-group survival and total tables.

    Returns ``(survive, total)`` with shape ``(max_m+1, max_r+1)``:
    ``total[m, r]`` is the (scaled) number of layouts of ``r`` failures in
    ``m`` affected racks of the group (each >= 1), and ``survive[m, r]`` the
    portion in which no pool position collects ``loss_threshold``
    catastrophic pools.  Both use the same per-failure weights.  The state
    tensor has an axis over ``r``, except for one-disk cells marked at their
    first failure (SLEC network-Cp positions), where ``r`` is the marks.
    """
    max_f = min(max_r, disks_per_rack)
    w = _scaled_rack_weights(disks_per_rack, max_f)
    # A position is marked once it holds p_l+1 failures.
    per_mark = p_l + 1
    select = _MarkSelector(cells, loss_threshold - 1, max_r // per_mark,
                           min(cells, max_f // per_mark))
    denom = np.array([math.comb(cells, j) for j in range(select.per_rack + 1)], float)
    positions = cell_size == 1 and p_l == 0
    if positions:
        # gain[k]: a rack of k failures, all of them marks.
        gain = np.zeros(select.per_rack + 1)
        gain[1:] = w[1 : select.per_rack + 1] / denom[1:]
    else:
        # gain[j, r, r + f]: a rack of f failures holding j catastrophic
        # pools, a Toeplitz band in r.
        j_dists = _cat_position_pmf(cells, cell_size, max_f, p_l)
        gain = np.zeros((select.per_rack + 1, max_r + 1, max_r + 1))
        for f in range(1, max_f + 1):
            r = np.arange(max_r + 1 - f)
            pmf = j_dists[f][: select.per_rack + 1]
            gain[:, r, r + f] = (w[f] * pmf / denom)[:, None]

    survive = np.zeros((max_m + 1, max_r + 1))
    total = np.zeros((max_m + 1, max_r + 1))
    survive[0, 0] = total[0, 0] = 1.0
    states = np.zeros(select.shape if positions else select.shape + (max_r + 1,))
    states.flat[0] = 1.0
    for m in range(1, max_m + 1):
        for f in range(1, max_f + 1):
            total[m, f:] += total[m - 1, : max_r + 1 - f] * w[f]
        states = select(states, gain)
        if positions:
            survive[m] = np.bincount(select.marks.ravel(), states.ravel(),
                                     minlength=max_r + 1)[: max_r + 1]
        else:
            survive[m] = states.reshape(-1, max_r + 1).sum(axis=0)
    return survive, total


def _netcp_pdl(
    disks_per_rack: int,
    cells: int,
    cell_size: int,
    p_l: int,
    loss_threshold: int,
    group_size: int,
    n_groups: int,
    failures: int,
    racks: int,
) -> float:
    """PDL for network-clustered schemes: exact count over group layouts."""
    max_m = min(group_size, racks)
    survive, total = _netcp_group_tables(
        disks_per_rack, cells, cell_size, p_l, loss_threshold, max_m, failures
    )
    # Outer DP over groups: allocate affected racks m_g (weight C(group,m))
    # and failures r_g; numerator uses survive, denominator total.
    choose = np.array([math.comb(group_size, m) for m in range(max_m + 1)])
    num = _fold_groups(survive, choose, n_groups, racks, failures, max_m)
    den = _fold_groups(total, choose, n_groups, racks, failures, max_m)
    return _ratio_to_pdl(num, den)


# ----------------------------------------------------------------------
# Public entry points
# ----------------------------------------------------------------------
def _check_burst(scheme: MLECScheme | SLECScheme, failures: int, racks: int) -> None:
    """The burst model's input rules, as :meth:`BurstGenerator.sample`."""
    dc = scheme.dc
    if racks < 1 or racks > dc.racks:
        raise ValueError("racks out of range")
    if failures < racks:
        raise ValueError("need at least one failure per affected rack")
    if failures > racks * dc.disks_per_rack:
        raise ValueError("more failures than disks in the affected racks")


def mlec_burst_pdl(scheme: MLECScheme, failures: int, racks: int) -> float:
    """Exact (worst-case-declustering) PDL of an MLEC scheme under a burst.

    Parameters
    ----------
    scheme:
        Any of the four MLEC schemes.
    failures, racks:
        The burst: ``failures`` simultaneous disk failures spread over
        ``racks`` racks (each affected rack has at least one).
    """
    _check_burst(scheme, failures, racks)
    s = scheme
    if s.local_placement is Placement.CLUSTERED:
        cells = s.local_pools_per_rack
        cell_size = s.params.n_l
    else:
        cells = s.dc.enclosures_per_rack
        cell_size = s.dc.disks_per_enclosure
    loss = s.params.p_n + 1
    if s.network_placement is Placement.DECLUSTERED:
        return _netdp_pdl(
            s.dc.disks_per_rack, cells, cell_size, s.params.p_l,
            loss, failures, racks,
        )
    return _netcp_pdl(
        s.dc.disks_per_rack, cells, cell_size, s.params.p_l,
        loss, s.network_group_racks, s.network_groups, failures, racks,
    )


def slec_burst_pdl(scheme: SLECScheme, failures: int, racks: int) -> float:
    """Exact (worst-case-declustering) PDL of a SLEC placement under a burst.

    * Local SLEC: loss iff any local pool exceeds ``p`` failures -- the
      network-Dp machinery with a loss threshold of one catastrophic rack.
    * Network-Dp: worst case, loss iff at least ``p+1`` racks are affected
      (every affected rack has a failed disk and any ``p+1`` disks in
      distinct racks co-host a stripe).
    * Network-Cp: collision DP over in-rack disk positions within each rack
      group, threshold ``p+1``.
    """
    _check_burst(scheme, failures, racks)
    s = scheme
    p = s.params.p
    if s.level is Level.LOCAL:
        if s.placement is Placement.CLUSTERED:
            cells = s.dc.disks_per_rack // s.params.n
            cell_size = s.params.n
        else:
            cells = s.dc.enclosures_per_rack
            cell_size = s.dc.disks_per_enclosure
        # Loss as soon as one rack has a catastrophic pool.
        return _netdp_pdl(
            s.dc.disks_per_rack, cells, cell_size, p, 1, failures, racks
        )
    if s.placement is Placement.DECLUSTERED:
        return 1.0 if racks >= p + 1 else 0.0
    # Network-Cp: each failed disk marks its in-rack position; loss iff a
    # position inside one rack group collects p+1 marks.  This is the
    # group-collision DP with positions as one-disk cells that a single
    # failure marks.
    return _netcp_pdl(
        s.dc.disks_per_rack, s.dc.disks_per_rack, 1, 0, p + 1,
        s.params.n, s.dc.racks // s.params.n, failures, racks,
    )


def _fold_groups(
    tables: AnyArray,
    choose: AnyArray,
    n_groups: int,
    racks: int,
    failures: int,
    max_m: int,
) -> tuple[float, float]:
    """Convolve per-group (racks, failures) tables across all groups.

    Returns ``(value, log_scale)``: the DP cell for exactly (racks,
    failures), along with the accumulated log of the rescaling applied to
    keep floats in range -- the true value is ``value * exp(log_scale)``.
    """
    dp = np.zeros((racks + 1, failures + 1))
    dp[0, 0] = 1.0
    log_scale = 0.0
    for _ in range(n_groups):
        new = np.zeros_like(dp)
        for m in range(0, max_m + 1):
            t = tables[m] * choose[m]
            for r in np.flatnonzero(t):
                new[m:, r:] += dp[: racks + 1 - m, : failures + 1 - r] * t[r]
        dp = new
        scale = dp.max()
        if scale > 0:
            dp /= scale
            log_scale += math.log(scale)
    return float(dp[racks, failures]), log_scale


def _ratio_to_pdl(
    num: tuple[float, float], den: tuple[float, float]
) -> float:
    """PDL = 1 - survive/total from two scaled fold results."""
    num_val, num_log = num
    den_val, den_log = den
    if den_val <= 0.0:
        return float("nan")
    if num_val <= 0.0:
        return 1.0
    ratio = num_val / den_val * math.exp(num_log - den_log)
    return float(min(1.0, max(0.0, 1.0 - ratio)))
