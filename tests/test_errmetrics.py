import itertools
import math
import warnings

import numpy as np
import pytest

from closed_forms import bloch_parameters, point_deviation, qubit_worst_case_closed_form
from qmu import opalg
from qmu.distributions import Distribution, w2_quantile
from qmu import errmetrics
from qmu.errmetrics import (
    calibration_error,
    calibration_stacked,
    eps_no_from_moments,
    eps_no_from_scheme,
    error_report,
    eta_no_from_scheme,
    first_of_largest,
    shared_eigenbasis,
    staircase_duals,
    three_state_eps,
    value_comparison_eps,
    worst_case_candidates,
    w2_observables_worst,
    w2_worst_stacked,
    w2_worst_staircase,
    worst_case_deviation,
)
from qmu.grid import GridSystem, ground_state, position_observable
from qmu.observables import (
    BlochObservable,
    Observable,
    SharpObservable,
    distribution_of,
    distribution_of_pure,
    intrinsic_noise,
    moment_operator,
    qubit_triple,
    smear,
    spectral_measure,
)
from qmu.opalg import SIGMA_X, SIGMA_Y, SIGMA_Z, bloch_state
from qmu.serialize import report_to_json
from qmu.relations import scheme_figures
from qmu.schemes import identity_scheme, induced_observable, swap_scheme

RHO0 = 0.5 * (np.eye(2) - (SIGMA_X + SIGMA_Y) / np.sqrt(2))


def random_qubit_scheme(rng):
    from qmu.schemes import MeasurementScheme

    pointer = spectral_measure(opalg.random_hermitian(2, rng))
    while pointer.n_outcomes < 2:
        pointer = spectral_measure(opalg.random_hermitian(2, rng))
    return MeasurementScheme(
        probe_state=opalg.random_density(2, rng),
        coupling=opalg.haar_unitary(4, rng),
        pointer=pointer,
    )


# --- noise-operator error: moment form ------------------------------------


def test_eps_zero_for_qubit_triple_null_state():
    # Analytically zero; the float64 floor is sqrt(eps_machine * scale) ~ 1e-8
    # because the POVM data itself carries sqrt(2) roundings. The scenario
    # library reproduces the exact zero with a high-precision route.
    triple = qubit_triple()
    a = moment_operator(triple, 1)
    assert eps_no_from_moments(a, triple, RHO0) < 5e-8


def test_eps_trivial_approximator_doubles_variance():
    rng = np.random.default_rng(0)
    a = opalg.random_hermitian(2, rng)
    rho = opalg.random_density(2, rng)
    a_sharp = spectral_measure(a)
    probs = distribution_of(a_sharp, rho)
    trivial = Observable(
        a_sharp.outcomes, np.stack([p * np.eye(2, dtype=complex) for p in probs.probs])
    )
    eps = eps_no_from_moments(a, trivial, rho)
    assert abs(eps**2 - 2 * probs.variance) < 1e-10


def test_eps_covariant_qubit_state_independent():
    rng = np.random.default_rng(1)
    avec = np.array([0.0, 0.0, 1.0])
    c = np.array([0.3, -0.5, 0.4])
    c /= np.linalg.norm(c) / 0.8
    obs = BlochObservable(1.0, c).to_observable()
    expected = math.sqrt(1 - c @ c + (avec - c) @ (avec - c))
    for _ in range(5):
        rho = opalg.random_density(2, rng)
        assert abs(eps_no_from_moments(SIGMA_Z, obs, rho) - expected) < 1e-10


# --- noise-operator error: scheme form -------------------------------------


def test_eps_identity_scheme_display():
    rng = np.random.default_rng(2)
    a = SIGMA_Z
    sigma = opalg.random_density(2, rng)
    rho = opalg.random_density(2, rng)
    scheme = identity_scheme(spectral_measure(a), sigma)
    da = distribution_of(spectral_measure(a), rho)
    ds = distribution_of(spectral_measure(a), sigma)
    expected = da.variance + ds.variance + (da.mean - ds.mean) ** 2
    assert abs(eps_no_from_scheme(scheme, a, rho) ** 2 - expected) < 1e-10


def test_eps_swap_scheme_is_zero():
    rng = np.random.default_rng(3)
    a = opalg.random_hermitian(2, rng)
    scheme = swap_scheme(spectral_measure(a), opalg.random_density(2, rng))
    for _ in range(3):
        rho = opalg.random_density(2, rng)
        assert eps_no_from_scheme(scheme, a, rho) < 1e-10


def test_eps_eigenstate_gives_point_deviation():
    # At an A-eigenstate the error reduces to the classic rms deviation of the
    # output distribution from the eigenvalue.
    rng = np.random.default_rng(4)
    scheme = random_qubit_scheme(rng)
    a = opalg.random_hermitian(2, rng)
    evals, evecs = opalg.eig_hermitian(a)
    rho = opalg.projector(evecs[:, 0])
    c = induced_observable(scheme)
    eps = eps_no_from_scheme(scheme, a, rho)
    point_dev = point_deviation(distribution_of(c, rho), evals[0])
    assert abs(eps - point_dev) < 1e-9


def test_eps_forms_agree_on_random_schemes():
    rng = np.random.default_rng(5)
    for _ in range(25):
        scheme = random_qubit_scheme(rng)
        a = opalg.random_hermitian(2, rng)
        rho = opalg.random_density(2, rng)
        c = induced_observable(scheme)
        e1 = eps_no_from_scheme(scheme, a, rho)
        e2 = eps_no_from_moments(a, c, rho)
        e3 = three_state_eps(a, c, rho)
        assert abs(e1 - e2) < 1e-9
        assert abs(e2 - e3) < 1e-10


# --- three-state form -------------------------------------------------------


def test_three_state_on_triple_and_exact_approximator():
    triple = qubit_triple()
    a = moment_operator(triple, 1)
    assert three_state_eps(a, triple, RHO0) < 5e-8
    sharp = spectral_measure(SIGMA_Z)
    rng = np.random.default_rng(6)
    for _ in range(5):
        rho = opalg.random_density(2, rng)
        # five O(1) terms cancel; the float64 floor is sqrt-of-machine-eps scale
        assert three_state_eps(SIGMA_Z, sharp, rho) < 5e-8


def test_three_state_matches_moment_form_random():
    rng = np.random.default_rng(7)
    for _ in range(20):
        a = opalg.random_hermitian(2, rng)
        cvec = rng.uniform(-1, 1, 3)
        cvec /= max(np.linalg.norm(cvec), 1.0) * 1.01
        c = BlochObservable(1.0, cvec).to_observable()
        rho = opalg.random_density(2, rng)
        assert abs(three_state_eps(a, c, rho) - eps_no_from_moments(a, c, rho)) < 1e-10


# --- disturbance -------------------------------------------------------------


def test_eta_identity_scheme_zero():
    rng = np.random.default_rng(8)
    scheme = identity_scheme(spectral_measure(SIGMA_Z), opalg.random_density(2, rng))
    for b in (SIGMA_X, SIGMA_Y, SIGMA_Z):
        assert eta_no_from_scheme(scheme, b, opalg.random_density(2, rng)) < 1e-10


def test_eta_swap_scheme_display():
    rng = np.random.default_rng(9)
    sigma = opalg.random_density(2, rng)
    rho = opalg.random_density(2, rng)
    scheme = swap_scheme(spectral_measure(SIGMA_Z), sigma)
    b = SIGMA_X
    db = distribution_of(spectral_measure(b), rho)
    ds = distribution_of(spectral_measure(b), sigma)
    expected = db.variance + ds.variance + (db.mean - ds.mean) ** 2
    assert abs(eta_no_from_scheme(scheme, b, rho) ** 2 - expected) < 1e-10
    # sigma = rho: sqrt(2) Delta(B_sigma)
    eta = eta_no_from_scheme(swap_scheme(spectral_measure(SIGMA_Z), sigma), b, sigma)
    assert abs(eta - math.sqrt(2) * ds.std) < 1e-10


def test_eta_scheme_and_stacked_forms_agree():
    # The product-eigenpair route against the stacked error-disturbance kernel.
    rng = np.random.default_rng(10)
    for _ in range(10):
        scheme = random_qubit_scheme(rng)
        b = opalg.random_hermitian(2, rng)
        rho = opalg.random_density(2, rng)
        _, stacked_eta, *_ = scheme_figures(scheme, b, b, rho)
        assert abs(eta_no_from_scheme(scheme, b, rho) - stacked_eta) < 1e-9


# --- value comparison ---------------------------------------------------------


def test_value_comparison_equals_eps_and_bounds_w2():
    rng = np.random.default_rng(12)
    a = spectral_measure(SIGMA_Z)
    mu = Distribution([-0.5, 0.5], [0.5, 0.5])
    c = smear(a, mu)
    for _ in range(5):
        rho = opalg.random_density(2, rng)
        vc = value_comparison_eps(a, c, rho)
        assert vc.commuting
        assert abs(vc.value - eps_no_from_moments(SIGMA_Z, c, rho)) < 1e-10
        assert vc.value >= vc.w2_distributions - 1e-10


def test_value_comparison_position_flip_on_grid():
    # Sharp -Q as approximator of Q in an even state: the value deviation is
    # 2 Delta(Q_rho) while the distributions coincide.
    grid = GridSystem(32, 8.0)
    q = position_observable(grid)
    minus_q = SharpObservable(-q.outcomes[::-1], q.effects[::-1].copy())
    psi = ground_state(grid)
    rho = np.outer(psi, psi.conj()) * grid.dx
    vc = value_comparison_eps(q, minus_q, rho)
    dist = distribution_of(q, rho)
    assert abs(vc.value - 2 * dist.std) < 1e-9
    assert vc.w2_distributions < 1e-9
    assert vc.commuting


def test_value_comparison_trivial_approximator():
    rng = np.random.default_rng(13)
    a = spectral_measure(SIGMA_Z)
    rho = opalg.random_density(2, rng)
    probs = distribution_of(a, rho)
    trivial = Observable(
        a.outcomes, np.stack([p * np.eye(2, dtype=complex) for p in probs.probs])
    )
    vc = value_comparison_eps(a, trivial, rho)
    assert abs(vc.value**2 - 2 * probs.variance) < 1e-10
    assert vc.value >= vc.w2_distributions - 1e-12
    same = value_comparison_eps(a, Observable(a.outcomes, a.effects), rho)
    assert same.value < 1e-12


def test_value_comparison_flags_noncommuting():
    rho = bloch_state([0.2, 0.1, 0.9])
    a = spectral_measure(SIGMA_Z)
    c = BlochObservable(1.0, np.array([0.7, 0.0, 0.0])).to_observable()
    vc = value_comparison_eps(a, c, rho)
    assert not vc.commuting
    assert abs(vc.value - eps_no_from_moments(SIGMA_Z, c, rho)) < 1e-10


# --- constant bias ------------------------------------------------------------


def test_constant_bias_identity():
    # eps^2 = Delta(C_rho)^2 - Delta(A_rho)^2 + bias^2 for constant-bias
    # approximators (smearings have constant bias mu[x]).
    rng = np.random.default_rng(14)
    a = spectral_measure(SIGMA_Z)
    mu = Distribution([-0.25, 0.75], [0.5, 0.5])
    c = smear(a, mu)
    bias = mu.mean
    for _ in range(5):
        rho = opalg.random_density(2, rng)
        eps = eps_no_from_moments(SIGMA_Z, c, rho)
        da = distribution_of(a, rho)
        dc = distribution_of(c, rho)
        assert abs(eps**2 - (dc.variance - da.variance + bias**2)) < 1e-10


# --- worst-case deviation -----------------------------------------------------


def test_worst_case_qubit_closed_form_example():
    a = spectral_measure(SIGMA_Z)
    c = BlochObservable(1.0, np.array([0.0, 0.0, 0.5])).to_observable()
    res = w2_observables_worst(a, c)
    assert res.exact
    assert abs(res.value**2 - 1.0) < 1e-12


def test_worst_case_identical_observables_zero():
    a = spectral_measure(SIGMA_Z)
    res = w2_observables_worst(a, Observable(a.outcomes, a.effects))
    assert res.value < 1e-9


def test_worst_case_search_matches_closed_form():
    rng = np.random.default_rng(15)
    for _ in range(10):
        c0 = rng.uniform(0.6, 1.4)
        cvec = rng.uniform(-1, 1, 3)
        cvec *= rng.uniform(0, 1) * min(c0, 2 - c0) / np.linalg.norm(cvec)
        avec = rng.uniform(-1, 1, 3)
        avec /= np.linalg.norm(avec)
        a = spectral_measure(opalg.bloch_operator(avec))
        c = BlochObservable(c0, cvec).to_observable()
        closed = qubit_worst_case_closed_form(a, c)
        assert closed is not None
        assert abs(w2_observables_worst(a, c).value - closed) < 1e-9
        assert abs(worst_case_deviation(a, c).value - closed) < 1e-9


def test_worst_case_smearing_qubit():
    a = spectral_measure(SIGMA_Z)
    mu = Distribution([-0.4, 0.1, 0.6], [0.25, 0.5, 0.25])
    res = w2_observables_worst(a, smear(a, mu))
    assert abs(res.value - math.sqrt(mu.moment(2))) < 1e-6


def test_worst_case_smearing_grid():
    q = position_observable(GridSystem(64, 8.0))
    mu = Distribution([-0.5, 0.0, 0.5], [0.25, 0.5, 0.25])
    res = w2_observables_worst(q, smear(q, mu))
    assert res.exact
    assert abs(res.value - math.sqrt(mu.moment(2))) < 1e-12


def random_povm(d, n, rng):
    """Random n-outcome POVM with full-rank, pairwise non-commuting effects."""
    grams = []
    for _ in range(n):
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        grams.append(g @ g.conj().T)
    w, v = np.linalg.eigh(sum(grams))
    inv_sqrt = (v / np.sqrt(w)) @ v.conj().T
    effects = np.stack([inv_sqrt @ g @ inv_sqrt for g in grams])
    effects = 0.5 * (effects + effects.conj().transpose(0, 2, 1))
    return Observable(np.sort(rng.uniform(-2.0, 2.0, n)), effects)


def staircase_sup_reference(a, c):
    """max over monotone cell paths of lambda_max(sum u_i A_i + sum v_j C_j), by plain loops.

    Also asserts that every path's dual is feasible for the cost (x - y)^2.
    """
    m, n = a.n_outcomes, c.n_outcomes
    cost = (a.outcomes[:, None] - c.outcomes[None, :]) ** 2
    best = -math.inf
    for downs in itertools.combinations(range(m + n - 2), m - 1):
        u, v = np.zeros(m), np.zeros(n)
        i = j = 0
        v[0] = cost[0, 0]
        for step in range(m + n - 2):
            if step in downs:
                i += 1
                u[i] = cost[i, j] - v[j]
            else:
                j += 1
                v[j] = cost[i, j] - u[i]
        assert np.all(u[:, None] + v[None, :] <= cost + 1e-12)
        op = np.tensordot(u, a.effects, 1) + np.tensordot(v, c.effects, 1)
        best = max(best, np.linalg.eigvalsh(op)[-1])
    return best


def test_staircase_duals_match_path_walk():
    rng = np.random.default_rng(21)
    x = np.sort(rng.uniform(-2, 2, 4))
    y = np.sort(rng.uniform(-2, 2, 3))
    u, v = staircase_duals(x, y)
    assert u.shape == (math.comb(5, 3), 4) and v.shape == (math.comb(5, 3), 3)
    cost = (x[:, None] - y[None, :]) ** 2
    for t, downs in enumerate(itertools.combinations(range(5), 3)):
        i = j = 0
        assert abs(u[t, i] + v[t, j] - cost[i, j]) < 1e-12
        for step in range(5):
            i, j = (i + 1, j) if step in downs else (i, j + 1)
            assert abs(u[t, i] + v[t, j] - cost[i, j]) < 1e-12
    assert np.all(u[:, :, None] + v[:, None, :] <= cost + 1e-12)


def test_staircase_entries_are_cached_read_only_and_match_a_fresh_enumeration():
    for m in range(1, 7):
        for n in range(1, 7):
            entry_col, entry_row = errmetrics._staircase_entries(m, n)
            assert errmetrics._staircase_entries(m, n)[0] is entry_col
            assert not entry_col.flags.writeable and not entry_row.flags.writeable
            cols, rows = [], []
            for downs in itertools.combinations(range(m + n - 2), m - 1):
                i = j = 0
                cols.append([])
                rows.append([])
                for step in range(m + n - 2):
                    if step in downs:  # row i + 1 entered down column j
                        i += 1
                        cols[-1].append(j)
                    else:  # column j + 1 entered along row i
                        j += 1
                        rows[-1].append(i)
            trees = math.comb(m + n - 2, m - 1)
            assert entry_col.tolist() == np.reshape(cols, (trees, m - 1)).tolist()
            assert entry_row.tolist() == np.reshape(rows, (trees, n - 1)).tolist()
            if entry_col.size:
                with pytest.raises(ValueError, match="read-only"):
                    entry_col[0, 0] = 0


def test_worst_case_exact_on_random_noncommuting_pairs():
    rng = np.random.default_rng(22)
    for _ in range(12):
        d = int(rng.integers(2, 5))
        a = spectral_measure(opalg.random_hermitian(d, rng))
        c = random_povm(d, int(rng.integers(2, 5)), rng)
        assert shared_eigenbasis(np.concatenate([a.effects, c.effects])) is None
        res = w2_observables_worst(a, c)
        assert res.exact
        assert res.value >= worst_case_deviation(a, c).value - 1e-12
        rho = opalg.projector(res.state)
        at_witness = w2_quantile(distribution_of(a, rho), distribution_of(c, rho))
        assert abs(at_witness - res.value) < 1e-9
        assert abs(res.value - math.sqrt(staircase_sup_reference(a, c))) < 1e-9


def test_worst_case_ascent_matches_enumeration_above_tree_limit():
    # Sharp d=9 targets against 10-outcome POVMs: C(17, 8) = 24,310
    # staircase duals, above the limit, so the ascent answers; the full
    # enumeration is the reference.
    rng = np.random.default_rng(26)
    for _ in range(8):
        a = spectral_measure(opalg.random_hermitian(9, rng))
        c = random_povm(9, 10, rng)
        assert math.comb(a.n_outcomes + c.n_outcomes - 2, a.n_outcomes - 1) > errmetrics.STAIRCASE_TREE_LIMIT
        res = w2_observables_worst(a, c)
        assert not res.exact
        assert abs(res.value - w2_worst_staircase(a, c).value) < 1e-9
        at_witness = w2_quantile(distribution_of_pure(a, res.state), distribution_of_pure(c, res.state))
        assert abs(at_witness - res.value) < 1e-12


def test_path_duals_attain_the_quantile_cost():
    rng = np.random.default_rng(27)
    for m, n in ((1, 3), (3, 1), (4, 5), (6, 6)):
        x = np.sort(rng.uniform(-2, 2, m))
        y = np.sort(rng.uniform(-2, 2, n))
        p, q = rng.dirichlet(np.ones(m)), rng.dirichlet(np.ones(n))
        cost = (x[:, None] - y[None, :]) ** 2
        u, v = errmetrics.path_duals(cost, p, q)
        assert np.all(u[:, None] + v[None, :] <= cost + 1e-12)
        assert abs(u @ p + v @ q - w2_quantile(Distribution(x, p), Distribution(y, q)) ** 2) < 1e-12


def test_worst_case_common_basis_matches_enumeration():
    rng = np.random.default_rng(23)
    u = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))[0]
    a = spectral_measure(u @ np.diag([-1.3, 0.2, 1.1]) @ u.conj().T)
    mu = Distribution([-0.5, 0.1, 0.4], [0.2, 0.5, 0.3])
    c = smear(a, mu)
    states, winner, _ = worst_case_candidates(a, c)
    assert states.shape == (3, 3) and winner is None  # the common-basis route
    common = w2_observables_worst(a, c)
    enumerated = w2_worst_staircase(a, c)
    assert common.exact and enumerated.exact
    assert abs(common.value - enumerated.value) < 1e-12
    assert abs(common.value - math.sqrt(mu.moment(2))) < 1e-12


def test_shared_eigenbasis_survives_a_nearly_degenerate_combination():
    # Commuting effects whose first weighted combination has two eigenvalues
    # 1e-9 apart: its eigenbasis mixes them beyond TOL_COMMUTE, so a later
    # weight vector must find the shared basis.
    rng = np.random.default_rng(25)
    u = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))[0]
    weights = np.random.default_rng(0).uniform(1.0, 2.0, 3)
    diagonals = rng.uniform(0.0, 1.0, (3, 4))
    diagonals[2, 1] += (weights @ diagonals[:, 0] + 1e-9 - weights @ diagonals[:, 1]) / weights[2]
    effects = np.stack([(u * diag) @ u.conj().T for diag in diagonals])
    _, first = np.linalg.eigh(np.einsum("k,kij->ij", weights, effects))
    mixed = np.einsum("ia,kij,jb->kab", first.conj(), effects, first) * (1 - np.eye(4))
    assert np.linalg.norm(mixed, axis=(1, 2)).max() > errmetrics.TOL_COMMUTE
    basis = shared_eigenbasis(effects)
    assert basis is not None
    rotated = np.einsum("ia,kij,jb->kab", basis.conj(), effects, basis)
    assert np.linalg.norm(rotated * (1 - np.eye(4)), axis=(1, 2)).max() <= errmetrics.TOL_COMMUTE


def test_worst_case_falls_back_to_search_above_tree_limit(monkeypatch):
    monkeypatch.setattr(errmetrics, "STAIRCASE_TREE_LIMIT", 1)
    a = spectral_measure(SIGMA_Z)
    c = BlochObservable(1.0, np.array([0.4, 0.0, 0.3])).to_observable()
    res = w2_observables_worst(a, c)
    assert not res.exact
    closed = qubit_worst_case_closed_form(a, c)
    assert closed - 1e-9 < res.value <= closed + 1e-12
    rep = error_report(SIGMA_Z, c, bloch_state([0.0, 0.0, 1.0]))
    assert not rep.w2_worst_exact
    assert report_to_json(rep)["w2_worst_method"] == "search-lower-bound"


def test_bloch_parameter_extraction():
    c0, cvec = bloch_parameters(BlochObservable(0.8, np.array([0.1, 0.2, 0.3])).to_observable())
    assert abs(c0 - 0.8) < 1e-12
    np.testing.assert_allclose(cvec, [0.1, 0.2, 0.3], atol=1e-12)
    assert bloch_parameters(qubit_triple()) is None


# --- calibration ---------------------------------------------------------------


def test_calibration_qubit_smearing_closed_form():
    for gamma in (0.3, 0.6, 0.9):
        a = spectral_measure(SIGMA_Z)
        c = BlochObservable(1.0, np.array([0.0, 0.0, gamma])).to_observable()
        res = calibration_error(a, c)
        assert abs(res.value - math.sqrt(2 * (1 - gamma))) < 1e-12


def test_calibration_perfect_approximator_zero():
    a = spectral_measure(SIGMA_Z)
    res = calibration_error(a, Observable(a.outcomes, a.effects))
    assert res.value < 1e-12


def test_calibration_below_worst_case():
    rng = np.random.default_rng(16)
    for _ in range(5):
        avec = rng.uniform(-1, 1, 3)
        avec /= np.linalg.norm(avec)
        cvec = rng.uniform(-1, 1, 3)
        cvec /= np.linalg.norm(cvec) * rng.uniform(1.2, 3.0)
        a = spectral_measure(opalg.bloch_operator(avec))
        c = BlochObservable(1.0, cvec).to_observable()
        calib = calibration_error(a, c).value
        worst = w2_observables_worst(a, c).value
        assert calib <= worst + 1e-9


def test_calibration_degenerate_target_exact_limit():
    rng = np.random.default_rng(24)
    u = np.linalg.qr(rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)))[0]
    a_op = u @ np.diag([-0.8, -0.8, -0.8, 1.3, 1.3, 1.3]) @ u.conj().T
    a = spectral_measure(a_op)
    assert a.n_outcomes == 2
    c = random_povm(6, 3, rng)
    exact = 0.0
    for y in (-0.8, 1.3):
        proj = u[:, :3] @ u[:, :3].conj().T if y < 0 else u[:, 3:] @ u[:, 3:].conj().T
        dev = sum((x - y) ** 2 * eff for x, eff in zip(c.outcomes, c.effects))
        exact = max(exact, np.linalg.eigvalsh(proj @ dev @ proj)[-1])
    assert abs(calibration_error(a, c).value - math.sqrt(exact)) < 1e-12


def test_calibration_grid_smearing():
    grid = GridSystem(64, 8.0)
    mu = Distribution([-0.5, 0.0, 0.5], [0.25, 0.5, 0.25])
    q = position_observable(grid)
    res = calibration_error(q, smear(q, mu))
    assert abs(res.value - math.sqrt(mu.moment(2))) < 1e-12


def random_sharp_target(rng, d, values):
    """Sharp target with the given eigenvalue list and its eigenvector matrix."""
    u = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))[0]
    values = np.asarray(values, dtype=float)
    return spectral_measure(u @ np.diag(values) @ u.conj().T), u, values


def calibration_pairs():
    """Seeded (target, approximator, eigenvectors, eigenvalues) pairs, many degenerate."""
    rng = np.random.default_rng(31)
    spectra = [
        [-1.0, 1.0], [-0.5, 0.2, 1.1], [-1.0, -1.0, 1.0], [0.3, 0.3, 0.3, -0.7],
        [-0.8, -0.8, -0.8, 1.3, 1.3, 1.3], [-1.2, -0.4, 0.1, 0.6, 0.9, 1.7],
        [0.5, 0.5, -0.5, -0.5, 2.0, 2.0],
    ]
    for k in range(21):
        values = spectra[k % len(spectra)]
        a, u, vals = random_sharp_target(rng, len(values), values)
        if k % 3 == 2:
            c = smear(a, Distribution([-0.3, 0.0, 0.5], [0.2, 0.5, 0.3]))
        else:
            c = random_povm(len(values), int(rng.integers(2, 5)), rng)
        yield a, c, u, vals


def test_calibration_closed_form_on_random_pairs():
    rng = np.random.default_rng(32)
    for a, c, u, vals in calibration_pairs():
        res = calibration_error(a, c)
        top, sampled = 0.0, 0.0
        for y in np.unique(vals):
            basis = u[:, np.isclose(vals, y)]
            dev = sum((x - y) ** 2 * eff for x, eff in zip(c.outcomes, c.effects))
            top = max(top, np.linalg.eigvalsh(basis.conj().T @ dev @ basis)[-1])
            for _ in range(200):
                z = rng.standard_normal(basis.shape[1]) + 1j * rng.standard_normal(basis.shape[1])
                psi = basis @ (z / np.linalg.norm(z))
                sampled = max(sampled, point_deviation(distribution_of_pure(c, psi), y))
        assert abs(res.value - math.sqrt(top)) < 1e-12
        assert sampled <= res.value + 1e-12


def test_calibration_witness_attains_the_value():
    rng = np.random.default_rng(33)
    for a, c, _, _ in calibration_pairs():
        rep = error_report(moment_operator(a, 1), c, opalg.random_density(a.dim, rng))
        psi = rep.calibration_witness
        assert abs(np.linalg.norm(psi) - 1.0) < 1e-12
        # the witness lies in exactly one eigenspace P_y of the target
        weights = np.einsum("i,kij,j->k", psi.conj(), a.effects, psi).real
        k = int(np.argmax(weights))
        assert abs(weights[k] - 1.0) < 1e-12
        rho = np.outer(psi, psi.conj())
        deviation = point_deviation(distribution_of(c, rho), a.outcomes[k])
        assert abs(deviation - rep.calibration) < 1e-12
        encoded = report_to_json(rep)["calibration_witness_state"]
        np.testing.assert_array_equal(np.array(encoded) @ [1, 1j], psi)


# --- stacked sups ----------------------------------------------------------------


TARGET_VALUES = np.array([-1.0, 0.5])
APPROX_VALUES = np.array([-1.0, 0.2, 0.5])


def shared_value_block(rng, n_pairs=24, d=4):
    """Seeded pairs on shared outcome values: degenerate sharp targets against
    random POVMs, commuting smearings of the target, and the target itself.

    Targets have eigenvalue -1 on a random 3-dimensional space and 0.5 on its
    complement; approximators take the values (-1, 0.2, 0.5).  Returns the
    stacked effects and the pairs as observables.
    """
    targets, approximators = [], []
    for k in range(n_pairs):
        u = opalg.haar_unitary(d, rng)
        low = u[:, :3] @ u[:, :3].conj().T
        projections = np.stack([low, np.eye(d) - low])
        if k % 3 == 0:
            effects = random_povm(d, 3, rng).effects
        elif k % 3 == 1:  # classical noise on the target's values: commutes with it
            noise = rng.dirichlet(np.ones(3), size=2).T  # column y is a law on the x values
            effects = np.einsum("xy,yij->xij", noise, projections)
        else:  # C = A, with a never-seen outcome 0.2
            effects = np.stack([projections[0], np.zeros((d, d)), projections[1]])
        targets.append(projections)
        approximators.append(effects)
    targets = np.array(targets, dtype=complex)
    approximators = np.array(approximators, dtype=complex)
    pairs = [(SharpObservable(TARGET_VALUES, a), Observable(APPROX_VALUES, c))
             for a, c in zip(targets, approximators)]
    return targets, approximators, pairs


def calibration_by_compression(a, c):
    """max over y of lambda_max(V^dag D_y V), V an orthonormal basis of P_y."""
    best = 0.0
    for y, proj in zip(a.outcomes, a.effects):
        evals, evecs = np.linalg.eigh(proj)
        basis = evecs[:, evals > 0.5]
        if basis.shape[1] == 0:  # an outcome that no state gives
            continue
        dev = sum((x - y) ** 2 * eff for x, eff in zip(c.outcomes, c.effects))
        best = max(best, np.linalg.eigvalsh(basis.conj().T @ dev @ basis)[-1])
    return math.sqrt(max(best, 0.0))


def test_stacked_sups_match_the_scalar_routes():
    targets, approximators, pairs = shared_value_block(np.random.default_rng(51))
    worst, witnesses = w2_worst_stacked(TARGET_VALUES, targets, APPROX_VALUES, approximators)
    calib, calib_witnesses = calibration_stacked(TARGET_VALUES, targets, APPROX_VALUES,
                                                 approximators)
    assert worst.shape == calib.shape == (len(pairs),)
    assert witnesses.shape == calib_witnesses.shape == (len(pairs), 4)
    for k, (a, c) in enumerate(pairs):
        assert abs(worst[k] - w2_observables_worst(a, c).value) < 1e-12
        psi = witnesses[k]
        assert abs(np.linalg.norm(psi) - 1.0) < 1e-12
        at_witness = w2_quantile(distribution_of_pure(a, psi), distribution_of_pure(c, psi))
        assert abs(at_witness - worst[k]) < 1e-12
        # squares: near an exact 0 (C = A) the square root lifts rounding to 1e-8
        assert abs(calib[k] ** 2 - calibration_error(a, c).value ** 2) < 1e-12
        assert abs(calib[k] ** 2 - calibration_by_compression(a, c) ** 2) < 1e-12
        assert calib[k] ** 2 <= worst[k] ** 2 + 1e-12
        # the calibration witness is a unit vector inside one eigenspace P_y
        # and attains the value there, also when the value is 0 (C = A)
        psi = calib_witnesses[k]
        weights = np.einsum("i,kij,j->k", psi.conj(), a.effects, psi).real
        y = int(np.argmax(weights))
        assert abs(weights[y] - 1.0) < 1e-12
        deviation = point_deviation(distribution_of_pure(c, psi), a.outcomes[y])
        assert abs(deviation**2 - calib[k] ** 2) < 1e-12
        if k % 3 == 2:
            assert worst[k] < 1e-12 and calib[k] ** 2 < 1e-12


def test_calibration_skips_a_target_outcome_with_zero_projection():
    # P_0 = 0 leaves only the -1 block for y = 0, whose eigenvectors lie in
    # no eigenspace; D_0 = I for C = A would otherwise give the value 1.
    rng = np.random.default_rng(54)
    u = opalg.haar_unitary(3, rng)
    low = u[:, :1] @ u[:, :1].conj().T
    a = SharpObservable([-1.0, 0.0, 1.0], [low, np.zeros((3, 3)), np.eye(3) - low])
    for c in (a, random_povm(3, 3, rng)):
        result = calibration_error(a, c)
        assert abs(result.value**2 - calibration_by_compression(a, c) ** 2) < 1e-12
        weights = np.einsum("i,kij,j->k", result.state.conj(), a.effects, result.state).real
        y = int(np.argmax(weights))
        assert y != 1 and abs(weights[y] - 1.0) < 1e-12
        deviation = point_deviation(distribution_of_pure(c, result.state), a.outcomes[y])
        assert abs(deviation**2 - result.value**2) < 1e-12
    assert calibration_error(a, a).value < 1e-7


def test_stacked_worst_case_meets_the_qubit_closed_form():
    rng = np.random.default_rng(52)
    pairs = []
    for _ in range(40):
        avec = rng.standard_normal(3)
        c0 = rng.uniform(0.1, 1.9)
        cvec = rng.standard_normal(3)
        cvec *= rng.uniform(0.0, min(c0, 2.0 - c0)) / np.linalg.norm(cvec)
        pairs.append((spectral_measure(opalg.bloch_operator(avec / np.linalg.norm(avec))),
                      BlochObservable(c0, cvec).to_observable()))
    values, states = w2_worst_stacked(
        np.array([-1.0, 1.0]), np.stack([a.effects for a, _ in pairs]),
        np.array([-1.0, 1.0]), np.stack([c.effects for _, c in pairs]))
    for (a, c), value, psi in zip(pairs, values, states):
        assert abs(value - qubit_worst_case_closed_form(a, c)) < 1e-12
        at_witness = w2_quantile(distribution_of_pure(a, psi), distribution_of_pure(c, psi))
        assert abs(at_witness - value) < 1e-12


@pytest.mark.parametrize("entries", [2 * 16, 7 * 16])
def test_stacked_worst_case_across_chunk_boundaries(monkeypatch, entries):
    # d = 4 and three staircase duals: 32 entries split each pair's duals
    # over two chunks, 112 entries put two pairs in a chunk and leave a
    # partial last one.
    targets, approximators, pairs = shared_value_block(np.random.default_rng(53), n_pairs=9)
    whole, _ = w2_worst_stacked(TARGET_VALUES, targets, APPROX_VALUES, approximators)
    monkeypatch.setattr(errmetrics, "EIG_CHUNK_ENTRIES", entries)
    chunked, states = w2_worst_stacked(TARGET_VALUES, targets, APPROX_VALUES, approximators)
    np.testing.assert_allclose(chunked, whole, rtol=0, atol=1e-12)
    for (a, c), value, psi in zip(pairs, chunked, states):
        assert abs(value - w2_observables_worst(a, c).value) < 1e-12
        at_witness = w2_quantile(distribution_of_pure(a, psi), distribution_of_pure(c, psi))
        assert abs(at_witness - value) < 1e-12


# --- report --------------------------------------------------------------------


def test_error_report_fields_and_invariant():
    rho = bloch_state([0.1, 0.2, 0.3])
    c = BlochObservable(1.0, np.array([0.0, 0.0, 0.7])).to_observable()
    rep = error_report(SIGMA_Z, c, rho)
    assert rep.eps_no**2 >= rep.intrinsic_noise_expectation - 1e-9
    assert abs(rep.intrinsic_noise_expectation - (1 - 0.49)) < 1e-10
    # mean deviation <C[x] - A>_rho = -0.3 <sigma_z>_rho
    assert abs(rep.bias - (-0.3 * 0.3)) < 1e-10
    assert abs(rep.w2_worst**2 - 2 * 0.3) < 1e-9
    assert rep.w2_state >= 0
    assert rep.w2_worst_exact
    assert report_to_json(rep)["w2_worst_method"] == "exact"


def report_triples():
    """Seeded (route, target operator, approximator, state) triples on all three routes."""
    rng = np.random.default_rng(61)
    for d in (3, 4):
        a = opalg.random_hermitian(d, rng)
        c = smear(spectral_measure(a), Distribution([-0.4, 0.1, 0.3], rng.dirichlet(np.ones(3))))
        yield "basis", a, c, opalg.random_density(d, rng)
        # classical noise that differs between the eigenvalues of a: column y of
        # the channel is a law on three outcome values
        a = opalg.random_hermitian(d, rng)
        channel = rng.dirichlet(np.ones(3), size=d).T
        effects = np.einsum("xy,yij->xij", channel, spectral_measure(a).effects)
        c = Observable(np.sort(rng.uniform(-2.0, 2.0, 3)), effects)
        yield "basis", a, c, opalg.random_density(d, rng)
    for d, n in ((2, 2), (2, 3), (3, 2), (3, 4), (2, 4), (3, 3)):
        yield "staircase", opalg.random_hermitian(d, rng), random_povm(d, n, rng), opalg.random_density(d, rng)
    for _ in range(2):  # 10 + 10 outcomes: C(18, 9) = 48,620 staircase duals
        yield "ascent", opalg.random_hermitian(10, rng), random_povm(10, 10, rng), opalg.random_density(10, rng)


def test_error_report_matches_its_parts_on_every_route():
    for route, a_op, c, rho in report_triples():
        a = spectral_measure(a_op)
        _, winner, exact = worst_case_candidates(a, c)
        assert route == ("staircase" if winner is not None else "basis" if exact else "ascent")
        rep = error_report(a_op, c, rho)
        worst = w2_observables_worst(a, c)
        assert abs(rep.eps_no - eps_no_from_moments(a_op, c, rho)) < 1e-12
        assert abs(rep.w2_state - w2_quantile(distribution_of(a, rho), distribution_of(c, rho))) < 1e-12
        assert abs(rep.w2_worst - worst.value) < 1e-12
        assert rep.w2_worst_exact == worst.exact == (route != "ascent")
        assert abs(rep.calibration - calibration_error(a, c).value) < 1e-12
        assert abs(rep.bias - opalg.expectation(moment_operator(c, 1) - a_op, rho)) < 1e-12
        assert abs(rep.intrinsic_noise_expectation - opalg.expectation(intrinsic_noise(c), rho)) < 1e-12
        psi = rep.witness_state
        at_witness = w2_quantile(distribution_of_pure(a, psi), distribution_of_pure(c, psi))
        assert abs(at_witness - rep.w2_worst) < 1e-12
        psi = rep.calibration_witness
        weights = np.einsum("i,kij,j->k", psi.conj(), a.effects, psi).real
        k = int(np.argmax(weights))
        assert abs(weights[k] - 1.0) < 1e-12
        deviation = point_deviation(distribution_of_pure(c, psi), a.outcomes[k])
        assert abs(deviation - rep.calibration) < 1e-12


def assert_phase_convention(psi):
    """The first largest-magnitude component is real positive, to rounding."""
    k = int(np.argmax(np.abs(psi) >= np.abs(psi).max() * (1 - 1e-12)))
    assert psi[k].real > 0 and abs(psi[k].imag) <= 1e-15


def test_every_route_reports_witnesses_in_the_phase_convention():
    for route, a_op, c, rho in report_triples():
        a = spectral_measure(a_op)
        rep = error_report(a_op, c, rho)
        for psi in (rep.witness_state, rep.calibration_witness, w2_observables_worst(a, c).state):
            assert_phase_convention(psi)


def test_tied_candidates_give_the_first_witness():
    top = 0.7
    tied = top + np.spacing(top) * np.array([0.0, 3.0, -5.0, 900.0])  # within 2**10 ulps
    values = np.array([0.2, *tied, 0.69])
    for perm in itertools.permutations(range(1, 5)):
        assert first_of_largest(values[[0, *perm, 5]]) == 1
    assert first_of_largest(np.array([0.7, 0.7 * (1 + 1e-12)])) == 1  # a real gap is no tie
    assert first_of_largest(np.zeros(3)) == 0
    assert first_of_largest(np.array([-np.inf, -1e-17, -2e-17])) == 1  # a top below 0
    assert first_of_largest(np.array([[0.3, 0.3 * (1 + 1e-15)], [0.2, 0.1]])).tolist() == [0, 0]
    # On a smearing every basis state ties: the first candidate is the witness.
    for route, a_op, c, rho in itertools.islice(report_triples(), 0, 4, 2):
        a = spectral_measure(a_op)
        states = worst_case_candidates(a, c)[0]
        assert route == "basis"
        assert error_report(a_op, c, rho).witness_state.tobytes() == states[0].tobytes()
        assert w2_observables_worst(a, c).state.tobytes() == states[0].tobytes()


@pytest.mark.parametrize("rho, message", [
    (np.array([[np.nan, 0.0], [0.0, 0.5]]), "non-finite"),
    (np.array([[0.5, 0.4], [0.1, 0.5]]), "not Hermitian"),
    (0.6 * np.eye(2), "trace"),
    # Born rows (1, 0) in the eigenbasis of both observables, but an eigenvalue below 0
    (np.array([[1.0, 0.6], [0.6, 0.0]]), "negative eigenvalue"),
])
def test_error_report_rejects_a_malformed_state(rho, message):
    c = BlochObservable(1.0, np.array([0.0, 0.0, 0.7])).to_observable()
    with pytest.raises(ValueError, match=message):
        error_report(SIGMA_Z, c, rho)


@pytest.mark.parametrize("target_scale, approximator_scale", [(1e160, 1.0), (1.0, 1e160),
                                                              (2.0**510, 1.0), (-1.7e308, 1.0)])
def test_error_report_refuses_outcomes_past_2_to_the_510(target_scale, approximator_scale):
    """Past the reach the sups' squares overflow: a ValueError, never a nan or a wrong 0."""
    rho = 0.5 * (np.eye(2) + SIGMA_Y)
    c = spectral_measure(approximator_scale * SIGMA_X)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"below 2\*\*510"):
            error_report(target_scale * SIGMA_Z, c, rho)
    # just inside the reach every figure is finite and scales with the outcomes
    scale = 2.0**510 * (1 - 2.0**-53)
    unit = error_report(SIGMA_Z, spectral_measure(SIGMA_X), rho)
    rep = error_report(scale * SIGMA_Z, spectral_measure(scale * SIGMA_X), rho)
    for name in ("eps_no", "w2_worst", "calibration"):
        assert getattr(rep, name) == pytest.approx(scale * getattr(unit, name), rel=1e-12)


def test_large_finite_worst_case_is_reported_as_a_number():
    # 10 + 10 outcomes have C(18, 9) = 48,620 staircase duals: the search path.
    rng = np.random.default_rng(1)
    c = spectral_measure(opalg.random_hermitian(10, rng) * 1e7)
    a = opalg.random_hermitian(10, rng) * 1e7
    rep = error_report(a, c, opalg.random_density(10, rng))
    data = report_to_json(rep)
    assert data["w2_worst_method"] == "search-lower-bound"
    assert isinstance(data["w2_worst"], float)
    assert data["w2_worst"] == rep.w2_worst > 1e6
