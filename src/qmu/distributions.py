"""Finite probability distributions on the reals and Wasserstein-2 machinery.

Two independent routes to the 2-deviation are kept deliberately separate:
``w2_quantile`` evaluates the comonotone (quantile) closed form exactly by
merging cumulative breakpoints (``quantile_coupling`` returns the coupling
itself), while ``w2_lp_oracle`` solves the coupling linear program exactly,
by a rational transportation simplex, up to ``LP_MAX`` support points a side.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

PROB_TOL = 1e-10          # total-probability tolerance
MARGINAL_TOL = 1e-9       # coupling marginal tolerance
MERGE_TOL = 1e-9          # relative support-merge tolerance
LP_MAX = 64               # oracle scale


@dataclass(frozen=True)
class Distribution:
    """Probability measure with finite support on the reals."""

    support: np.ndarray
    probs: np.ndarray

    def __post_init__(self):
        support = np.asarray(self.support, dtype=float).reshape(-1)
        probs = np.asarray(self.probs, dtype=float).reshape(-1)
        if support.shape != probs.shape or support.size == 0:
            raise ValueError("support and probs must be equal-length nonempty arrays")
        if np.any(support[1:] <= support[:-1]):
            raise ValueError("support must be strictly increasing")
        if probs.min() < -PROB_TOL:
            raise ValueError(f"negative probability {probs.min():.3e}")
        if abs(probs.sum() - 1.0) > PROB_TOL:
            raise ValueError(f"probabilities sum to {float(probs.sum())!r}, expected 1")
        _check_finite(support, probs)  # NaN passes the comparisons above
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "probs", np.clip(probs, 0.0, None))

    def moment(self, n: int) -> float:
        return float(np.sum(self.support**n * self.probs))

    @property
    def mean(self) -> float:
        return self.moment(1)

    @property
    def variance(self) -> float:
        m = self.mean
        return float(np.sum((self.support - m) ** 2 * self.probs))

    @property
    def std(self) -> float:
        return math.sqrt(max(self.variance, 0.0))


def _check_finite(values, probs) -> None:
    if not (np.isfinite(values).all() and np.isfinite(probs).all()):
        raise ValueError("support and probabilities must be finite")


def splits_from(v, first):
    """The outcome-merge rule: whether v starts a new group after the one begun at first.

    v joins when |v - first| <= MERGE_TOL * max(1, |v|, |first|).  Written as
    three comparisons so that it takes floats and, elementwise, arrays alike.
    """
    gap = abs(v - first)
    return (gap > MERGE_TOL) & (gap > MERGE_TOL * abs(v)) & (gap > MERGE_TOL * abs(first))


def merge_groups(values) -> tuple[np.ndarray, np.ndarray]:
    """Sort real values and group the nearly equal ones by ``splits_from``.

    Returns ``order``, the stable ascending argsort of ``values``, and
    ``starts``, the positions in ``values[order]`` where each group begins.  A
    value is compared with its group's *first* value, so a chain of small
    gaps still splits once it drifts ``MERGE_TOL`` away from where it began.
    When every value splits from its sorted neighbour, each is compared with
    its own group's first value, so every value starts a group without the
    loop.
    """
    values = np.asarray(values, dtype=float)
    order = values.argsort(kind="stable")
    ordered = values[order]
    with np.errstate(over="ignore", invalid="ignore"):  # inf or nan gaps, as Python floats give
        if splits_from(ordered[1:], ordered[:-1]).all():
            return order, np.arange(order.size)
    starts = []
    for k, v in enumerate(ordered.tolist()):
        if not starts or splits_from(v, first):
            starts.append(k)
            first = v
    return order, np.array(starts, dtype=np.intp)


def merge_outcomes(values, weights) -> tuple[np.ndarray, np.ndarray]:
    """Each group's first value (ascending) and its weights summed along axis 0.

    Groups come from ``merge_groups`` and are summed left to right in sorted
    order; ``np.add.reduceat`` would sum groups of nine or more pairwise and
    move the last bits of analytically zero figures.
    """
    order, starts = merge_groups(values)
    values, weights = np.asarray(values, dtype=float)[order], np.asarray(weights)[order]
    if starts.size == order.size:
        return values, weights
    sums = weights[starts]
    sizes = np.diff(starts, append=order.size)
    for k in range(1, sizes.max(initial=1)):
        longer = sizes > k
        sums[longer] += weights[starts[longer] + k]
    return values[starts], sums


def make_distribution(values, probs) -> Distribution:
    """Build a Distribution, sorting and merging nearby support points.

    Support points are merged by ``merge_outcomes``, their probabilities
    summed; zero-probability atoms are kept only if needed to leave at least
    one point.  Non-finite input is rejected before the merge, which would
    fold a NaN or an infinity into a neighbouring group.
    """
    values = np.asarray(values, dtype=float).reshape(-1)
    probs = np.asarray(probs, dtype=float).reshape(-1)
    _check_finite(values, probs)
    v_arr, p_arr = merge_outcomes(values, probs)
    keep = p_arr > 0
    if keep.any():
        v_arr, p_arr = v_arr[keep], p_arr[keep]
    else:
        v_arr, p_arr = v_arr[:1], p_arr[:1]
    return Distribution(v_arr, p_arr)


def convolve(mu: Distribution, nu: Distribution) -> Distribution:
    """Convolution mu * nu on finite supports (law of the sum)."""
    sums = mu.support[:, None] + nu.support[None, :]
    weights = mu.probs[:, None] * nu.probs[None, :]
    return make_distribution(sums.reshape(-1), weights.reshape(-1))


@dataclass(frozen=True)
class Coupling:
    """Joint measure on a product of finite supports with prescribed marginals.

    Stored by its cells: cell k carries mass ``weights[k]`` at
    ``(row_support[rows[k]], col_support[cols[k]])``.  The quantile coupling
    has at most m+n-1 cells, listed in staircase order.
    """

    row_support: np.ndarray
    col_support: np.ndarray
    rows: np.ndarray
    cols: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        rs = np.asarray(self.row_support, dtype=float).reshape(-1)
        cs = np.asarray(self.col_support, dtype=float).reshape(-1)
        rows = np.asarray(self.rows, dtype=np.intp)
        cols = np.asarray(self.cols, dtype=np.intp)
        w = np.asarray(self.weights, dtype=float)
        if not rows.shape == cols.shape == w.shape == (w.size,):
            raise ValueError("rows, cols and weights must be 1-D arrays of equal length")
        if w.size and w.min() < -PROB_TOL:
            raise ValueError(f"negative coupling weight {w.min():.3e}")
        object.__setattr__(self, "row_support", rs)
        object.__setattr__(self, "col_support", cs)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "weights", np.maximum(w, 0.0))

    def row_marginal(self) -> np.ndarray:
        return np.bincount(self.rows, self.weights, self.row_support.size)

    def col_marginal(self) -> np.ndarray:
        return np.bincount(self.cols, self.weights, self.col_support.size)

    def check_marginals(self, mu: Distribution, nu: Distribution):
        if self.rows.size and (
            min(self.rows.min(), self.cols.min()) < 0
            or self.rows.max() >= self.row_support.size
            or self.cols.max() >= self.col_support.size
        ):
            raise ValueError("coupling cell index outside the supports")
        if self.row_support.shape != mu.support.shape or not np.allclose(
            self.row_support, mu.support
        ):
            raise ValueError("row support does not match first marginal")
        if self.col_support.shape != nu.support.shape or not np.allclose(
            self.col_support, nu.support
        ):
            raise ValueError("column support does not match second marginal")
        if np.max(np.abs(self.row_marginal() - mu.probs)) > MARGINAL_TOL:
            raise ValueError("row sums do not reproduce the first marginal")
        if np.max(np.abs(self.col_marginal() - nu.probs)) > MARGINAL_TOL:
            raise ValueError("column sums do not reproduce the second marginal")


def quantile_cells(p: np.ndarray, q: np.ndarray):
    """Cells (i, j, w) of the staircase couplings of probability rows p and q.

    ``p`` is (N, m) and ``q`` is (N, n).  Both quantile functions of a row
    are constant between its merged cumulative breakpoints ``t``, so each
    interval (t[k-1], t[k]] of positive length is one cell, at the atoms
    whose cumulative sums first reach t[k]: on each side, the atoms whose
    breakpoints the stable merge puts before t[k].  The stable sort merges
    each row's sorted runs of breakpoints, so time and memory are linear in
    m+n a row.  Returns three (N, K) arrays: each row's cells in staircase
    order (at most m+n-1 of them), then zero-weight cells up to the longest
    row's count K.
    """
    rows, m = p.shape
    n = q.shape[1]
    t = np.empty((rows, 1 + m + n))
    t[:, 0] = 0.0
    np.add.accumulate(p, axis=1, out=t[:, 1:m + 1])  # cumsum, without its wrapper's cost
    np.add.accumulate(q, axis=1, out=t[:, m + 1:])
    # Clamped to at most 1, so that a partial sum rounding above 1 cannot
    # become a breakpoint past the other side's last one.
    np.minimum(t, 1.0, out=t)
    t[:, m] = t[:, -1] = 1.0
    order = t.argsort(axis=1, kind="stable")[:, :-1]
    # Sorting t again (a merge of its sorted runs) is faster than gathering
    # it by the permutation, both for one short row and for stacks.
    t.sort(axis=1, kind="stable")
    w = t[:, 1:] - t[:, :-1]
    # The stable sort keeps each side's breakpoints in order after the
    # leading 0, so j, the number of q's breakpoints among the first k+1, is
    # the running count of them, and the other k+1-j are the 0 and k-j of
    # p's.  Only zero-length intervals reach i = m.
    j = np.add.accumulate(order > m, axis=1, dtype=np.intp)
    i = np.minimum(np.arange(m + n) - j, m - 1)
    keep = w > 0
    cells = (~keep).argsort(axis=1, kind="stable")[:, :keep.sum(axis=1).max()]
    cells += np.arange(0, rows * (m + n), m + n)[:, None]
    return i.ravel()[cells], j.ravel()[cells], w.ravel()[cells]


def w2_quantile_rows(x: np.ndarray, y: np.ndarray, p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Wasserstein 2-deviations of probability rows on shared supports.

    ``x`` (m,) and ``y`` (n,) are increasing supports, ``p`` (N, m) and
    ``q`` (N, n) rows of probabilities on them; returns the (N,) values,
    each the cost of its row's staircase coupling as one dot product.
    """
    return _staircase_w2(x, y, *quantile_cells(p, q))


# Supports with a reach in [2**-SQUARE_SAFE_EXP, 2**SQUARE_SAFE_EXP) are not
# rescaled.  Below the upper end every support difference is below 2**511 and
# its square below 2**1022, so the staircase cost cannot overflow.
SQUARE_SAFE_EXP = 510
SQUARE_SAFE = 2.0**SQUARE_SAFE_EXP
SQUARE_TINY = 2.0**-SQUARE_SAFE_EXP


def support_reach(x, y) -> float:
    """The largest |value| of increasing supports x and y: an O(1) read of the endpoints."""
    return max(-x[0], x[-1], -y[0], y[-1])


def scale_exponent(x, y) -> int:
    """The power of two 2**-k by which to scale increasing supports x and y.

    Supports with a reach in [2**-SQUARE_SAFE_EXP, 2**SQUARE_SAFE_EXP), and
    all-zero ones, take k = 0.  Others are scaled to a reach just below
    2**SQUARE_SAFE_EXP: far-out ones down (k > 0), so that no square
    overflows, and tiny ones up (k < 0), so that their squares do not
    underflow.  W2 is 1-homogeneous and scaling by a power of two is exact
    short of subnormals, so W2 of the scaled supports, times 2**k, is W2.
    """
    reach = support_reach(x, y)
    if SQUARE_TINY <= reach < SQUARE_SAFE or reach == 0:
        return 0
    return int(np.frexp(reach)[1]) - SQUARE_SAFE_EXP


def _staircase_w2(x, y, i, j, w) -> np.ndarray:
    """Square roots of the staircase costs, scaled by ``scale_exponent``.

    A value above the float range comes out inf.
    """
    k = scale_exponent(x, y)
    if k:
        x, y = np.ldexp(x, -k), np.ldexp(y, -k)
    diff = x[i] - y[j]
    cost = (w[:, None, :] @ (diff * diff)[:, :, None])[:, 0, 0]
    value = np.sqrt(np.maximum(cost, 0.0))
    if k:
        with np.errstate(over="ignore"):
            value = np.ldexp(value, k)
    return value


def w2_quantile(mu: Distribution, nu: Distribution) -> float:
    """Wasserstein 2-deviation via the quantile (comonotone) construction.

    The one-row case of ``w2_quantile_rows``: the squared value is the
    integral of the squared quantile difference, the cost of the staircase
    coupling that ``quantile_coupling`` returns.
    """
    return float(w2_quantile_rows(mu.support, nu.support, mu.probs[None], nu.probs[None])[0])


def quantile_coupling(mu: Distribution, nu: Distribution) -> Coupling:
    """The staircase coupling of mu and nu; it attains ``w2_quantile``."""
    return w2_quantile_with_coupling(mu, nu)[1]


def w2_quantile_with_coupling(mu: Distribution, nu: Distribution) -> tuple[float, Coupling]:
    """``w2_quantile`` and ``quantile_coupling`` of one pair from one set of cells.

    The value is bitwise ``w2_quantile(mu, nu)``: the same cells, the same
    dot product.
    """
    i, j, w = quantile_cells(mu.probs[None], nu.probs[None])
    value = float(_staircase_w2(mu.support, nu.support, i, j, w)[0])
    return value, Coupling(mu.support, nu.support, i[0], j[0], w[0])


# ---------------------------------------------------------------------------
# LP oracle
# ---------------------------------------------------------------------------


def w2_lp_oracle(mu: Distribution, nu: Distribution) -> float:
    """Wasserstein 2-deviation by solving the coupling linear program exactly.

    An exact rational transportation simplex, for supports of up to
    ``LP_MAX`` points per side.  Deliberately independent of the quantile
    construction; only the power-of-two scaling of far-out supports
    (``scale_exponent``) is shared.  The scaled supports go to the simplex as
    lists, not as Distributions: scaling far-out supports down may round tiny
    values beside them to one value, which the simplex takes as the quantile
    kernel does.
    """
    m, n = mu.support.size, nu.support.size
    if m > LP_MAX or n > LP_MAX:
        raise ValueError(f"oracle scale exceeded: supports {m}x{n} > {LP_MAX}")
    k = scale_exponent(mu.support, nu.support)
    cost = _transport_simplex_exact(
        np.ldexp(mu.support, -k).tolist(), mu.probs.tolist(),
        np.ldexp(nu.support, -k).tolist(), nu.probs.tolist(),
    )
    return math.ldexp(math.sqrt(cost), k)


def _transport_simplex_exact(row_vals, row_probs, col_vals, col_probs) -> Fraction:
    """Minimum squared-difference transport cost, exact over the rationals.

    Classic transportation simplex with Bland's anti-cycling rule.  Floats
    are dyadic rationals, so converting inputs to ``Fraction`` is lossless;
    pivoting only adds and subtracts masses, so denominators stay bounded.
    The initial basis is a north-west corner solution on *reversed* index
    order, so the start point is unrelated to the comonotone coupling.
    """
    m, n = len(row_vals), len(col_vals)
    supply = [Fraction(p) for p in row_probs]
    demand = [Fraction(q) for q in col_probs]
    ts, td = sum(supply), sum(demand)
    if ts == 0 or td == 0:
        raise ValueError("degenerate distribution with zero total mass")
    supply = [s / ts for s in supply]
    demand = [d / td for d in demand]
    cost = [[(Fraction(x) - Fraction(y)) ** 2 for y in col_vals] for x in row_vals]

    # Each step moves one row or one column on, so the m+n-1 cells differ.
    oi = list(range(m))[::-1]
    oj = list(range(n))[::-1]
    weight: dict[tuple[int, int], Fraction] = {}
    i = j = 0
    s, d = supply[oi[0]], demand[oj[0]]
    while True:
        t = min(s, d)
        weight[oi[i], oj[j]] = t
        s -= t
        d -= t
        if i == m - 1 and j == n - 1:
            break
        if s == 0 and i < m - 1:
            i += 1
            s = supply[oi[i]]
        else:
            j += 1
            d = demand[oj[j]]

    # ``weight`` holds exactly the basis cells, degenerate ones at zero.
    while True:
        by_row: dict[int, list[int]] = {}
        by_col: dict[int, list[int]] = {}
        for i, j in weight:
            by_row.setdefault(i, []).append(j)
            by_col.setdefault(j, []).append(i)
        u, v = _transport_potentials(m, n, by_row, by_col, cost)
        entering = next(
            ((ii, jj) for ii in range(m) for jj in range(n)
             if cost[ii][jj] < u[ii] + v[jj]),
            None,
        )
        if entering is None:
            return sum(w * cost[ii][jj] for (ii, jj), w in weight.items())
        cycle = _transport_cycle(by_row, by_col, entering)
        minus = cycle[1::2]
        theta = min(weight[c] for c in minus)
        leaving = min(c for c in minus if weight[c] == theta)
        weight[entering] = Fraction(0)
        for k, cell in enumerate(cycle):
            weight[cell] += theta if k % 2 == 0 else -theta
        del weight[leaving]


def _transport_potentials(m, n, by_row, by_col, cost):
    """Dual potentials u_i + v_j = c_ij on the basis tree (u_0 = 0).

    ``by_row`` and ``by_col`` list the basis tree's columns of each row and
    rows of each column.
    """
    u = [None] * m
    v = [None] * n
    u[0] = Fraction(0)
    stack = [("r", 0)]
    while stack:
        kind, idx = stack.pop()
        if kind == "r":
            for j in by_row.get(idx, ()):
                if v[j] is None:
                    v[j] = cost[idx][j] - u[idx]
                    stack.append(("c", j))
        else:
            for i in by_col.get(idx, ()):
                if u[i] is None:
                    u[i] = cost[i][idx] - v[idx]
                    stack.append(("r", i))
    if any(x is None for x in u) or any(x is None for x in v):
        raise RuntimeError("basis does not span the transportation graph")
    return u, v


def _transport_cycle(by_row, by_col, entering):
    """Unique alternating cycle formed by the basis tree plus the entering cell.

    ``by_row`` and ``by_col`` are the basis tree's adjacency, as for
    ``_transport_potentials``.  Returned as a cell list starting at the
    entering cell; even positions gain mass, odd positions lose it.
    """
    i0, j0 = entering
    # Path in the basis tree from column j0 back to row i0.
    parent: dict[tuple[str, int], tuple[str, int]] = {}
    start, goal = ("c", j0), ("r", i0)
    stack = [start]
    seen = {start}
    while stack:
        node = stack.pop()
        if node == goal:
            break
        kind, idx = node
        neighbors = (
            [("r", i) for i in by_col.get(idx, ())]
            if kind == "c"
            else [("c", j) for j in by_row.get(idx, ())]
        )
        for nb in neighbors:
            if nb not in seen:
                seen.add(nb)
                parent[nb] = node
                stack.append(nb)
    node = goal
    path = [node]
    while node != start:
        node = parent[node]
        path.append(node)
    path.reverse()  # ("c", j0), ..., ("r", i0) alternating
    cycle = [entering]
    for a, b in zip(path, path[1:]):
        cell = (b[1], a[1]) if a[0] == "c" else (a[1], b[1])
        cycle.append(cell)
    return cycle
