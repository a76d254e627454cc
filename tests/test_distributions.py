import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from closed_forms import (
    cauchy_schwarz_bounds,
    coupling_cost,
    delta,
    point_deviation,
    wide_random_pairs,
)
from qmu.distributions import (
    MERGE_TOL,
    Coupling,
    Distribution,
    convolve,
    make_distribution,
    merge_groups,
    merge_outcomes,
    quantile_cells,
    quantile_coupling,
    scale_exponent,
    splits_from,
    support_reach,
    w2_lp_oracle,
    w2_quantile,
    w2_quantile_rows,
    w2_quantile_with_coupling,
)


def random_distribution(rng, max_support=10, span=4.0):
    k = int(rng.integers(1, max_support + 1))
    support = np.sort(rng.uniform(-span, span, size=k))
    while np.any(np.diff(support) <= 1e-6):
        support = np.sort(rng.uniform(-span, span, size=k))
    probs = rng.dirichlet(np.ones(k))
    return Distribution(support, probs)


def test_point_measures():
    val = w2_quantile(delta(1.5), delta(-2.0))
    coupling = quantile_coupling(delta(1.5), delta(-2.0))
    assert abs(val - 3.5) < 1e-15
    coupling.check_marginals(delta(1.5), delta(-2.0))


def test_translation_distance():
    rng = np.random.default_rng(1)
    mu = random_distribution(rng)
    nu = Distribution(mu.support + 0.7, mu.probs)
    val = w2_quantile(mu, nu)
    assert abs(val - 0.7) < 1e-12


def test_point_vs_two_point():
    # Unique product coupling with a point measure: cost = 0.5*(0-0)^2 + 0.5*(2-0)^2 = 2.
    nu = Distribution([0.0, 2.0], [0.5, 0.5])
    val = w2_quantile(delta(0.0), nu)
    coupling = quantile_coupling(delta(0.0), nu)
    assert abs(val**2 - 2.0) < 1e-14
    coupling.check_marginals(delta(0.0), nu)


def test_coupling_attains_value():
    rng = np.random.default_rng(2)
    for _ in range(50):
        mu, nu = random_distribution(rng), random_distribution(rng)
        val = w2_quantile(mu, nu)
        coupling = quantile_coupling(mu, nu)
        coupling.check_marginals(mu, nu)
        assert abs(coupling_cost(coupling) - val**2) < 1e-12


def test_quantile_matches_exact_lp():
    # The LP oracle IS the independent route; agreement certifies the closed form.
    rng = np.random.default_rng(3)
    for _ in range(200):
        mu = random_distribution(rng, max_support=3)
        nu = random_distribution(rng, max_support=3)
        val = w2_quantile(mu, nu)
        assert abs(val - w2_lp_oracle(mu, nu)) < 1e-9


def test_lp_oracle_exact_above_16_points():
    rng = np.random.default_rng(4)
    for _ in range(5):
        mu = random_distribution(rng, max_support=30)
        nu = random_distribution(rng, max_support=30)
        if mu.support.size <= 16 and nu.support.size <= 16:
            continue
        val = w2_quantile(mu, nu)
        assert abs(val - w2_lp_oracle(mu, nu)) < 1e-9


def test_lp_oracle_agrees_on_wide_random_pairs_up_to_64_points():
    # A float LP called the third pair infeasible and missed the gate on nine.
    for mu, nu in wide_random_pairs(60):
        gap = abs(w2_lp_oracle(mu, nu) - w2_quantile(mu, nu))
        assert gap <= 1e-9 * max(1.0, support_reach(mu.support, nu.support))


def test_lp_oracle_scale_guard():
    support = np.arange(65.0)
    probs = np.full(65, 1 / 65)
    with pytest.raises(ValueError):
        w2_lp_oracle(Distribution(support, probs), delta(0.0))


def test_identical_distributions_zero():
    rng = np.random.default_rng(5)
    mu = random_distribution(rng)
    assert w2_quantile(mu, mu) == 0.0
    assert w2_lp_oracle(mu, mu) < 1e-12


def test_metric_axioms():
    rng = np.random.default_rng(6)
    for _ in range(100):
        mu, nu, rho = (random_distribution(rng) for _ in range(3))
        dmn = w2_quantile(mu, nu)
        dnm = w2_quantile(nu, mu)
        assert abs(dmn - dnm) < 1e-9
        dmr = w2_quantile(mu, rho)
        drn = w2_quantile(rho, nu)
        assert dmn <= dmr + drn + 1e-9
    # identity of indiscernibles
    mu = random_distribution(rng)
    shifted = Distribution(mu.support + 1e-3, mu.probs)
    assert w2_quantile(mu, shifted) > 0


def test_scale_covariance_and_translation_invariance():
    rng = np.random.default_rng(7)
    mu, nu = random_distribution(rng), random_distribution(rng)
    base = w2_quantile(mu, nu)
    for lam in (0.5, 2.0, 3.7):
        scaled = w2_quantile(Distribution(mu.support * lam, mu.probs),
                             Distribution(nu.support * lam, nu.probs))
        assert abs(scaled - lam * base) < 1e-9
    shifted = w2_quantile(Distribution(mu.support + 2.2, mu.probs),
                          Distribution(nu.support + 2.2, nu.probs))
    assert abs(shifted - base) < 1e-12


def test_cauchy_schwarz_sandwich_random():
    rng = np.random.default_rng(8)
    attain_failures = 0
    for _ in range(300):
        mu, nu = random_distribution(rng), random_distribution(rng)
        val = w2_quantile(mu, nu)
        lower, upper = cauchy_schwarz_bounds(mu, nu)
        assert val**2 >= lower - 1e-9
        assert val**2 <= upper + 1e-9
        if abs(val**2 - lower) > 1e-9:
            attain_failures += 1
    # Lower-branch attainment by the quantile coupling is not asserted;
    # report how often it fails for the record.
    print(f"lower-bound attainment failures: {attain_failures}/300")


def test_convolution_against_bruteforce():
    rng = np.random.default_rng(9)
    mu, nu = random_distribution(rng, 4), random_distribution(rng, 5)
    conv = convolve(mu, nu)
    table = {}
    for x, p in zip(mu.support, mu.probs):
        for y, q in zip(nu.support, nu.probs):
            table[round(x + y, 12)] = table.get(round(x + y, 12), 0.0) + p * q
    assert abs(conv.probs.sum() - 1.0) < 1e-12
    assert abs(conv.mean - (mu.mean + nu.mean)) < 1e-12
    assert abs(conv.variance - (mu.variance + nu.variance)) < 1e-12
    for v, p in table.items():
        idx = np.argmin(np.abs(conv.support - v))
        assert abs(conv.support[idx] - v) < 1e-9


def test_make_distribution_merges():
    d = make_distribution([1.0, 1.0 + 1e-12, 2.0], [0.25, 0.25, 0.5])
    assert d.support.size == 2
    np.testing.assert_allclose(d.probs, [0.5, 0.5])


def test_merge_splits_chains_at_the_first_value():
    # Consecutive gaps of 0.6e-9 stay below the tolerance, but the third
    # value lies 1.2e-9 from the group's first one: it starts a new group.
    values = np.array([1.0 + 1.2e-9, 1.0, 5.0, 1.0 + 0.6e-9])
    order, starts = merge_groups(values)
    np.testing.assert_array_equal(order, [1, 3, 0, 2])
    np.testing.assert_array_equal(starts, [0, 2, 3])
    outcomes, sums = merge_outcomes(values, np.array([0.1, 0.2, 0.3, 0.4]))
    np.testing.assert_array_equal(outcomes, [1.0, 1.0 + 1.2e-9, 5.0])
    np.testing.assert_allclose(sums, [0.6, 0.1, 0.3], rtol=0, atol=1e-15)
    # Matrix weights are summed per group along the leading axis.
    mats = np.arange(4.0)[:, None, None] * np.eye(2)
    _, summed = merge_outcomes(values, mats)
    np.testing.assert_array_equal(summed, np.array([4.0, 0.0, 2.0])[:, None, None] * np.eye(2))


def merge_groups_by_the_loop(values):
    """The merge rule value by value, each value against its group's first one."""
    values = np.asarray(values, dtype=float)
    order = values.argsort(kind="stable")
    starts = []
    for k, v in enumerate(values[order].tolist()):
        if not starts or splits_from(v, first):
            starts.append(k)
            first = v
    return order, np.array(starts, dtype=np.intp)


@st.composite
def merge_inputs(draw):
    """Unsorted values in chains of steps of up to 1.5 merge tolerances from each base."""
    bases = draw(st.lists(st.one_of(
        st.floats(-1e300, 1e300),
        st.sampled_from([0.0, -0.0, 1.0, -1.0, 1e300, -1e300, 1.7e308, -1.7e308]),
    ), min_size=1, max_size=5))
    values = []
    for base in bases:
        value, scale = base, MERGE_TOL * max(1.0, abs(base))
        values.append(value)
        for step in draw(st.lists(st.floats(0.0, 1.5), max_size=4)):
            value += step * scale
            values.append(value)
    return draw(st.permutations(values))


@settings(max_examples=300, deadline=None)
@given(merge_inputs())
@example([1.7e308, -1.7e308])  # a gap above the float range
@example([0.0, -0.0, 1.0])
def test_property_merge_fast_path_equals_the_loop(values):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        order, starts = merge_groups(values)
        outcomes, sums = merge_outcomes(values, np.arange(len(values), dtype=float))
    loop_order, loop_starts = merge_groups_by_the_loop(values)
    np.testing.assert_array_equal(order, loop_order)
    assert starts.dtype == loop_starts.dtype and starts.tolist() == loop_starts.tolist()
    ordered = np.asarray(values, dtype=float)[order]
    assert outcomes.tobytes() == ordered[starts].tobytes()
    groups = np.split(order.astype(float), starts[1:])
    np.testing.assert_array_equal(sums, [g.sum() for g in groups])


def test_merge_rule_takes_floats_and_arrays_alike():
    # Gaps within 2 % of tol * max(1, |v|, |first|), magnitudes from 1e-3 to 1e3
    # and both signs, so that each of the three terms is the largest somewhere.
    rng = np.random.default_rng(4)
    first = rng.choice([-1.0, 1.0], 400) * 10.0 ** rng.uniform(-3, 3, 400)
    gap = MERGE_TOL * np.maximum(1.0, np.abs(first)) * rng.uniform(0.98, 1.02, 400)
    v = first + rng.choice([-1.0, 1.0], 400) * gap
    stacked = splits_from(v, first)
    for k in range(400):
        x, y = float(v[k]), float(first[k])
        assert splits_from(x, y) == stacked[k] == (abs(x - y) > MERGE_TOL * max(1.0, abs(x), abs(y)))
    assert 0 < stacked.sum() < 400


def test_make_distribution_drops_zero_mass_atoms():
    d = make_distribution([2.0, 0.0, 1.0, 1.0 + 1e-12], [0.5, 0.5, 0.0, 0.0])
    np.testing.assert_array_equal(d.support, [0.0, 2.0])
    np.testing.assert_array_equal(d.probs, [0.5, 0.5])


def test_validation_errors():
    with pytest.raises(ValueError):
        Distribution([1.0, 0.5], [0.5, 0.5])
    with pytest.raises(ValueError):
        Distribution([0.0, 1.0], [0.7, 0.7])
    with pytest.raises(ValueError):
        Coupling([0.0], [0.0, 1.0], [0, 0], [0, 1], [0.5, -0.5])
    with pytest.raises(ValueError):
        Coupling([0.0], [0.0, 1.0], [0, 0], [0], [0.5, 0.5])
    with pytest.raises(ValueError):
        Coupling([0.0], [0.0, 1.0], [0, 1], [0, 1], [0.5, 0.5]).check_marginals(
            delta(0.0), Distribution([0.0, 1.0], [0.5, 0.5])
        )


def quantile_integral(mu, nu):
    """Squared-quantile integral on the merged breakpoints, read off at midpoints."""
    cp, cq = np.cumsum(mu.probs), np.cumsum(nu.probs)
    cp[-1] = cq[-1] = 1.0
    t = np.union1d(cp, cq)
    t = t[(t > 0.0) & (t <= 1.0)]
    lengths = np.diff(np.concatenate(([0.0], t)))
    mid = t - 0.5 * lengths
    i = np.minimum(np.searchsorted(cp, mid), mu.support.size - 1)
    j = np.minimum(np.searchsorted(cq, mid), nu.support.size - 1)
    return np.sqrt(np.sum(lengths * (mu.support[i] - nu.support[j]) ** 2))


def assert_staircase(mu, nu, val, coupling):
    """Cells in one monotone chain, at most m+n-1 of them, reproducing both marginals."""
    assert coupling.weights.size <= mu.support.size + nu.support.size - 1
    assert np.all(coupling.weights > 0)
    assert np.all(np.diff(coupling.rows) >= 0) and np.all(np.diff(coupling.cols) >= 0)
    steps = np.diff(coupling.rows) + np.diff(coupling.cols)
    assert np.all(steps > 0)
    coupling.check_marginals(mu, nu)
    assert abs(coupling_cost(coupling) - val**2) <= 1e-12 * max(1.0, val**2)


def test_staircase_zero_probability_atoms():
    cases = [
        (Distribution([-1.0, 0.0, 1.0, 2.0, 3.0], [0.0, 0.25, 0.0, 0.75, 0.0]),
         Distribution([0.0, 0.5, 4.0], [0.5, 0.0, 0.5])),
        (Distribution([0.0, 1.0, 2.0], [0.5, 0.5, 0.0]),
         Distribution([-2.0, 0.0, 1.0], [0.0, 0.0, 1.0])),
        (Distribution([0.0, 1.0], [0.0, 1.0]), Distribution([5.0, 6.0], [1.0, 0.0])),
    ]
    for mu, nu in cases:
        val = w2_quantile(mu, nu)
        coupling = quantile_coupling(mu, nu)
        assert abs(val - w2_lp_oracle(mu, nu)) < 1e-9
        assert_staircase(mu, nu, val, coupling)
        assert np.all(mu.probs[coupling.rows] > 0) and np.all(nu.probs[coupling.cols] > 0)


def test_staircase_cumulative_overshoot():
    # Twenty atoms of 0.05 sum to 1 + 2.2e-16 in floating point; the trailing
    # zero atoms put that overshoot before the last breakpoint of the side.
    probs = np.concatenate((np.full(20, 0.05), np.zeros(237)))
    assert np.cumsum(probs)[19] > 1.0
    mu = Distribution(np.linspace(-3.0, 3.0, 257), probs)
    nu = Distribution([-1.0, 0.0, 2.0], [0.2, 0.5, 0.3])
    for a, b in ((mu, nu), (nu, mu)):
        val = w2_quantile(a, b)
        coupling = quantile_coupling(a, b)
        assert abs(val - quantile_integral(a, b)) < 1e-12
        assert_staircase(a, b, val, coupling)


def test_staircase_single_points_and_unequal_sizes():
    rng = np.random.default_rng(11)
    for m, n in ((1, 1), (1, 9), (9, 1), (2, 13), (13, 2), (5, 16)):
        mu, nu = (
            Distribution(np.sort(rng.uniform(-4, 4, k)), rng.dirichlet(np.ones(k)))
            for k in (m, n)
        )
        val = w2_quantile(mu, nu)
        coupling = quantile_coupling(mu, nu)
        assert abs(val - w2_lp_oracle(mu, nu)) < 1e-9
        assert_staircase(mu, nu, val, coupling)
        if min(m, n) == 1:
            assert coupling.weights.size == max(m, n)


def test_staircase_large_supports():
    rng = np.random.default_rng(12)
    k = 16384
    mu = Distribution(np.sort(rng.normal(0.0, 1.0, k)), rng.dirichlet(np.ones(k)))
    nu = Distribution(np.sort(rng.normal(0.4, 1.3, k)), rng.dirichlet(np.ones(k)))
    val = w2_quantile(mu, nu)
    coupling = quantile_coupling(mu, nu)
    assert coupling.weights.size <= 2 * k - 1
    coupling.check_marginals(mu, nu)
    assert abs(coupling_cost(coupling) - val**2) <= 1e-12 * val**2
    assert abs(val - quantile_integral(mu, nu)) <= 1e-12 * val
    shifted = w2_quantile(mu, Distribution(mu.support - 0.7, mu.probs))
    assert abs(shifted - 0.7) < 1e-12


def searchsorted_cells(mu, nu):
    """Staircase cells of one pair by a sorted merge and a searchsorted on each side."""
    a, b = np.minimum(np.cumsum(mu.probs), 1.0), np.minimum(np.cumsum(nu.probs), 1.0)
    a[-1] = b[-1] = 1.0
    t = np.sort(np.concatenate(([0.0], a, b)), kind="stable")
    w = t[1:] - t[:-1]
    t, w = t[1:][w > 0], w[w > 0]
    return a.searchsorted(t), b.searchsorted(t), w


def test_row_kernel_one_row_matches_the_searchsorted_construction():
    rng = np.random.default_rng(13)
    for m, n in ((2048, 1536), (1536, 2048), (1536, 1536)):
        mu = Distribution(np.sort(rng.normal(0.0, 1.0, m)), rng.dirichlet(np.ones(m)))
        nu = Distribution(np.sort(rng.normal(0.4, 1.3, n)), rng.dirichlet(np.ones(n)))
        i, j, w = searchsorted_cells(mu, nu)
        cells = quantile_cells(mu.probs[None], nu.probs[None])
        coupling = quantile_coupling(mu, nu)
        for expected, row, cell in zip((i, j, w), cells, (coupling.rows, coupling.cols,
                                                            coupling.weights)):
            assert row.shape == (1, expected.size)
            assert row[0].tobytes() == expected.tobytes() == cell.tobytes()
        value = w2_quantile_rows(mu.support, nu.support, mu.probs[None], nu.probs[None])
        diff = mu.support[i] - nu.support[j]
        assert value.shape == (1,)
        assert abs(value[0] - w2_quantile(mu, nu)) <= 1e-15
        assert abs(value[0] - math.sqrt(np.dot(w, diff * diff))) <= 1e-15


def test_value_and_coupling_from_one_set_of_cells():
    rng = np.random.default_rng(15)
    x = np.sort(rng.normal(0.0, 1.0, 1536))
    p = rng.dirichlet(np.ones(1536))
    pairs = [(Distribution(x, p), Distribution(x + 0.7, p))]
    for m, n in ((2048, 1536), (1, 3), (5, 1), (6, 6)):
        probs = rng.dirichlet(np.ones(m))
        if m > 1:
            probs[0] = 0.0  # a zero-probability atom
        mu = Distribution(np.sort(rng.normal(0.0, 1.0, m)), probs / probs.sum())
        nu = Distribution(np.sort(rng.normal(0.4, 1.3, n)), rng.dirichlet(np.ones(n)))
        pairs.append((mu, nu))
    for mu, nu in pairs:
        value, coupling = w2_quantile_with_coupling(mu, nu)
        assert np.float64(value).tobytes() == np.float64(w2_quantile(mu, nu)).tobytes()
        cells = quantile_cells(mu.probs[None], nu.probs[None])
        for expected, got in zip(cells, (coupling.rows, coupling.cols, coupling.weights)):
            assert got.tobytes() == expected[0].tobytes()
        assert coupling.row_support.tobytes() == mu.support.tobytes()
        assert coupling.col_support.tobytes() == nu.support.tobytes()


def test_row_kernel_stack_equals_a_loop_over_rows():
    rng = np.random.default_rng(14)
    m, n = 24, 5
    x, y = np.sort(rng.uniform(-2, 2, m)), np.sort(rng.uniform(-2, 2, n))
    p, q = rng.dirichlet(np.ones(m), 40), rng.dirichlet(np.ones(n), 40)
    p[::4, [0, 3, m - 1]] = 0.0  # zero-probability atoms, first and last included
    q[1::4, [0, n - 1]] = 0.0
    p /= p.sum(axis=1, keepdims=True)
    q /= q.sum(axis=1, keepdims=True)
    # breakpoints tied across the two sides
    p[2] = np.concatenate((np.full(4, 0.25), np.zeros(m - 4)))
    q[2] = [0.5, 0.0, 0.5, 0.0, 0.0]
    p[3] = np.concatenate((np.full(5, 0.2), np.zeros(m - 5)))
    q[3] = np.full(n, 0.2)
    # twenty atoms of 0.05 sum to 1 + 2.2e-16: cumulative sums round above 1
    p[5] = np.concatenate((np.full(20, 0.05), np.zeros(m - 20)))
    assert np.cumsum(p[5])[19] > 1.0
    q[6] = [0.05, 0.05, 0.05, 0.05, 0.8]
    p[6] = np.full(m, 1 / m)
    cells = quantile_cells(p, q)
    values = w2_quantile_rows(x, y, p, q)
    assert values.shape == (40,)
    for r in range(40):
        mu, nu = Distribution(x, p[r]), Distribution(y, q[r])
        coupling = quantile_coupling(mu, nu)
        count = coupling.weights.size
        for row, expected in zip(cells, (coupling.rows, coupling.cols, coupling.weights)):
            assert row[r, :count].tobytes() == expected.tobytes()
        assert np.all(cells[2][r, count:] == 0.0)
        assert abs(values[r] - w2_quantile(mu, nu)) <= 1e-15
        assert abs(values[r] - quantile_integral(mu, nu)) <= 1e-12


def _random_row_pair(seed):
    """Increasing supports of 1-39 points at a scale in [1e-5, 1e5] and 3 rows each."""
    rng = np.random.default_rng(seed)
    m, n = rng.integers(1, 40, 2)
    scale = 10.0 ** rng.uniform(-5, 5)
    x = np.sort(rng.uniform(-scale, scale, m)) + rng.uniform(-scale, scale)
    y = np.sort(rng.uniform(-scale, scale, n))
    return x, y, rng.dirichlet(np.ones(m), 3), rng.dirichlet(np.ones(n), 3)


# k >= 500 puts the supports past 2**510, where squared differences could
# overflow, and k <= -500 below 2**-510, where they could underflow: the
# kernel rescales both.  Scaled supports must stay normal, or scaling them
# rounds; an in-range pair (reach at or above 2**-510) is not rescaled.
@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1),
       st.integers(-60, 59) | st.integers(500, 1000) | st.integers(-1000, -500))
def test_property_row_kernel_scales_bitwise_by_powers_of_two(seed, k):
    x, y, p, q = _random_row_pair(seed)
    if k <= -500:
        both = np.abs(np.ldexp(np.concatenate([x, y]), k))
        assume(np.finfo(float).tiny <= both.min() and both.max() < 2.0**-510)
    scaled = w2_quantile_rows(np.ldexp(x, k), np.ldexp(y, k), p, q)
    assert np.isfinite(scaled).all()
    assert scaled.tobytes() == np.ldexp(w2_quantile_rows(x, y, p, q), k).tobytes()


@st.composite
def finite_distributions(draw):
    k = draw(st.integers(min_value=1, max_value=6))
    vals = draw(
        st.lists(
            st.floats(min_value=-10, max_value=10, allow_nan=False),
            min_size=k,
            max_size=k,
        )
    )
    weights = draw(
        st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=k, max_size=k)
    )
    total = sum(weights)
    return make_distribution(vals, [w / total for w in weights])


@settings(max_examples=200, deadline=None, derandomize=True)
@given(finite_distributions(), finite_distributions())
def test_property_quantile_equals_lp_and_bounds(mu, nu):
    val = w2_quantile(mu, nu)
    coupling = quantile_coupling(mu, nu)
    assert abs(val - w2_lp_oracle(mu, nu)) < 1e-9
    coupling.check_marginals(mu, nu)
    lower, upper = cauchy_schwarz_bounds(mu, nu)
    assert lower - 1e-9 <= val**2 <= upper + 1e-9


@settings(max_examples=100, deadline=None, derandomize=True)
@given(finite_distributions())
def test_property_self_distance_zero(mu):
    assert w2_quantile(mu, mu) == 0.0


def test_std_minimizes_point_deviation():
    rng = np.random.default_rng(10)
    mu = random_distribution(rng)
    assert abs(point_deviation(mu, mu.mean) - mu.std) < 1e-12
    for y in np.linspace(-5, 5, 11):
        assert point_deviation(mu, y) >= mu.std - 1e-12


@pytest.mark.parametrize("support", [[np.nan], [np.inf], [-np.inf], [0.0, np.nan],
                                     [0.0, np.inf], [-np.inf, 0.0]])
def test_distribution_rejects_non_finite_support(support):
    with pytest.raises(ValueError, match="finite"):
        Distribution(support, np.full(len(support), 1.0 / len(support)))


def test_supports_at_the_float_range_ends_warn_of_nothing():
    # The gap between the two points overflows: the check must not subtract.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        mu = Distribution([-1e308, 1e308], [0.5, 0.5])
        assert w2_quantile(mu, Distribution([0.0], [1.0])) == 1e308
        with pytest.raises(ValueError, match="strictly increasing"):
            Distribution([1e308, -1e308], [0.5, 0.5])


def test_scale_exponent_rescales_only_out_of_range_supports():
    def k(x, y):
        return scale_exponent(np.asarray(x, dtype=float), np.asarray(y, dtype=float))

    assert k([0.0], [0.0]) == k([-0.0], [0.0]) == 0
    assert k([-(2.0**-510)], [0.0]) == k([0.0], [np.nextafter(2.0**510, 0)]) == 0
    assert k([1e-200], [0.0]) < 0 and k([5e-324], [1e-323]) < 0
    # the scaled reach lands just below 2**510 from either side
    for x in ([1e-200], [5e-324], [-3e-160, 0.0], [1e300]):
        reach = np.ldexp(np.abs(x).max(), -k(x, [0.0]))
        assert 2.0**509 <= reach < 2.0**510


def test_distribution_rejects_a_nan_probability():
    # ±inf probabilities already fail the sign and total checks
    with pytest.raises(ValueError, match="finite"):
        Distribution([0.0, 1.0], [1.0, np.nan])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_make_distribution_rejects_non_finite_entries_before_merging(bad):
    # merged first, the bad point would fold into its neighbour's group
    with pytest.raises(ValueError, match="finite"):
        make_distribution([1.0, bad], [0.5, 0.5])
    with pytest.raises(ValueError, match="finite"):
        make_distribution([1.0, 2.0], [bad, 0.5])
