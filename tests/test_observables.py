import warnings

import numpy as np
import pytest

from qmu import opalg
from closed_forms import delta
from qmu.distributions import Distribution, convolve
from qmu.observables import (
    BlochObservable,
    Observable,
    QUBIT_TRIPLE_GAMMA,
    TOL_COMMUTE,
    SharpObservable,
    born_probabilities,
    check_projections,
    distribution_of,
    intrinsic_noise,
    moment_operator,
    product_biobservable,
    qubit_triple,
    smear,
    spectral_measure,
)
from qmu.opalg import SIGMA_X, SIGMA_Y, SIGMA_Z, bloch_state


def random_povm(dim, n_out, rng):
    raw = []
    for _ in range(n_out):
        g = opalg.random_hermitian(dim, rng)
        raw.append(g @ g.conj().T + 1e-3 * np.eye(dim))
    total = sum(raw)
    evals, evecs = np.linalg.eigh(total)
    inv_sqrt = evecs @ np.diag(evals**-0.5) @ evecs.conj().T
    effects = [inv_sqrt @ g @ inv_sqrt for g in raw]
    return Observable(np.arange(n_out, dtype=float), np.stack(effects))


def test_merged_outcomes_sum_their_effects():
    sm = spectral_measure(np.diag([1.0, 1.0 + 1e-12, 2.0]))
    np.testing.assert_array_equal(sm.outcomes, [1.0, 2.0])
    np.testing.assert_allclose(sm.effects[0], np.diag([1.0, 1.0, 0.0]), atol=1e-15)
    # Shifts 0 and 2 map outcomes -1, +1 onto -1, +1, +1, +3; the zero-mass
    # shift 1 adds outcomes 0 and 2 with zero effects, which smear keeps.
    sz = spectral_measure(SIGMA_Z)
    smeared = smear(sz, Distribution([0.0, 1.0, 2.0], [0.5, 0.0, 0.5]))
    np.testing.assert_array_equal(smeared.outcomes, [-1.0, 0.0, 1.0, 2.0, 3.0])
    np.testing.assert_array_equal(smeared.effects[[1, 3]], np.zeros((2, 2, 2)))
    np.testing.assert_allclose(smeared.effects[2], 0.5 * np.eye(2), atol=1e-15)


def test_spectral_measure_sigma_z():
    sm = spectral_measure(SIGMA_Z)
    np.testing.assert_allclose(sm.outcomes, [-1.0, 1.0])
    np.testing.assert_allclose(sm.effects[0], 0.5 * (np.eye(2) - SIGMA_Z), atol=1e-12)
    np.testing.assert_allclose(sm.effects[1], 0.5 * (np.eye(2) + SIGMA_Z), atol=1e-12)


def test_spectral_measure_degenerate_merge():
    sm = spectral_measure(np.eye(3))
    assert sm.n_outcomes == 1
    np.testing.assert_allclose(sm.effects[0], np.eye(3), atol=1e-12)


def test_spectral_measure_reconstruction_random():
    rng = np.random.default_rng(0)
    for _ in range(10):
        op = opalg.random_hermitian(3, rng)
        sm = spectral_measure(op)
        recon = moment_operator(sm, 1)
        assert np.linalg.norm(recon - op) < 1e-9


def test_moment_operators_bloch_and_triple():
    c = np.array([0.3, -0.2, 0.4])
    obs = BlochObservable(1.0, c).to_observable()
    np.testing.assert_allclose(moment_operator(obs, 1), opalg.bloch_operator(c), atol=1e-12)

    g = QUBIT_TRIPLE_GAMMA
    triple = qubit_triple()
    np.testing.assert_allclose(
        moment_operator(triple, 1), 0.5 * g * (SIGMA_X - SIGMA_Y), atol=1e-12
    )
    np.testing.assert_allclose(
        moment_operator(triple, 2), g * (np.eye(2) + 0.5 * (SIGMA_X + SIGMA_Y)), atol=1e-12
    )

    sharp = spectral_measure(SIGMA_Z)
    np.testing.assert_allclose(moment_operator(sharp, 2), np.eye(2), atol=1e-12)
    np.testing.assert_allclose(
        moment_operator(sharp, 2), moment_operator(sharp, 1) @ moment_operator(sharp, 1),
        atol=1e-10,
    )


def test_intrinsic_noise_qubit_triple():
    g = QUBIT_TRIPLE_GAMMA
    expected = 2 * (1 - g) * 0.5 * (np.eye(2) + (SIGMA_X + SIGMA_Y) / np.sqrt(2))
    v = intrinsic_noise(qubit_triple())
    np.testing.assert_allclose(v, expected, atol=1e-12)
    evals = np.linalg.eigvalsh(v)
    assert abs(evals[0]) < 1e-12 and evals[1] > 0  # rank-1 positive


def test_intrinsic_noise_sharp_is_zero():
    rng = np.random.default_rng(1)
    sm = spectral_measure(opalg.random_hermitian(4, rng))
    assert np.linalg.norm(intrinsic_noise(sm)) < 1e-10
    check_projections(sm.effects)


def test_intrinsic_noise_smeared_sigma_z():
    # Bloch smearing with c = 0.5 a: direct matrix arithmetic gives
    # V = (1 - 0.25) * 1, matching <V(C)>_rho = 1 - ||c||^2 for every state.
    obs = BlochObservable(1.0, np.array([0.0, 0.0, 0.5])).to_observable()
    np.testing.assert_allclose(intrinsic_noise(obs), 0.75 * np.eye(2), atol=1e-12)


def test_intrinsic_noise_psd_random_povms():
    rng = np.random.default_rng(2)
    for _ in range(10):
        obs = random_povm(3, 4, rng)
        evals = np.linalg.eigvalsh(intrinsic_noise(obs))
        assert evals.min() > -1e-10


def test_smear_identity_noise():
    sharp = spectral_measure(SIGMA_Z)
    smeared = smear(sharp, delta(0.0))
    np.testing.assert_allclose(smeared.outcomes, sharp.outcomes)
    np.testing.assert_allclose(smeared.effects, sharp.effects, atol=1e-12)


def test_smear_three_point_noise_constant_intrinsic():
    sharp = spectral_measure(SIGMA_Z)
    mu = Distribution([-1.0, 0.0, 1.0], [0.25, 0.5, 0.25])
    smeared = smear(sharp, mu)
    np.testing.assert_allclose(intrinsic_noise(smeared), mu.variance * np.eye(2), atol=1e-12)
    assert abs(mu.variance - 0.5) < 1e-15


def test_smear_distribution_equals_convolution():
    rng = np.random.default_rng(3)
    sharp = spectral_measure(opalg.random_hermitian(3, rng))
    mu = Distribution([-0.5, 0.25, 1.0], [0.2, 0.5, 0.3])
    rho = opalg.random_density(3, rng)
    left = distribution_of(smear(sharp, mu), rho)
    right = convolve(mu, distribution_of(sharp, rho))
    np.testing.assert_allclose(left.support, right.support, atol=1e-9)
    np.testing.assert_allclose(left.probs, right.probs, atol=1e-10)


def test_variance_decomposition_random():
    # Output variance = intrinsic noise expectation + variance of the sharp
    # observable of the first-moment operator.
    rng = np.random.default_rng(4)
    for _ in range(10):
        obs = random_povm(3, 4, rng)
        rho = opalg.random_density(3, rng)
        total = distribution_of(obs, rho).variance
        noise = opalg.expectation(intrinsic_noise(obs), rho)
        sharp_part = distribution_of(spectral_measure(moment_operator(obs, 1)), rho).variance
        assert abs(total - noise - sharp_part) < 1e-9
        assert noise > -1e-10


def test_distribution_eigenstate():
    dist = distribution_of(spectral_measure(SIGMA_Z), bloch_state([0, 0, 1]))
    np.testing.assert_allclose(dist.support, [-1.0, 1.0])
    np.testing.assert_allclose(dist.probs, [0.0, 1.0], atol=1e-12)


def test_distribution_bloch_trace_identity():
    # tr((1 + c.sigma)/2 (1 + r.sigma)/2) = (1 + c.r)/2
    rng = np.random.default_rng(5)
    for _ in range(10):
        c = rng.uniform(-1, 1, 3)
        c *= rng.uniform(0, 1) / max(np.linalg.norm(c), 1.0)
        r = rng.uniform(-1, 1, 3)
        r /= max(np.linalg.norm(r), 1.0)
        dist = distribution_of(BlochObservable(1.0, c).to_observable(), bloch_state(r))
        assert abs(dist.probs[1] - 0.5 * (1 + c @ r)) < 1e-12
        assert abs(dist.probs[0] - 0.5 * (1 - c @ r)) < 1e-12


def test_distribution_qubit_triple_in_null_state():
    # Direct matrix trace oracle, frozen: p(+1) = p(-1) = (3 - 2 sqrt 2)/2.
    rho0 = 0.5 * (np.eye(2) - (SIGMA_X + SIGMA_Y) / np.sqrt(2))
    triple = qubit_triple()
    oracle = np.array([np.trace(rho0 @ e).real for e in triple.effects])
    dist = distribution_of(triple, rho0)
    np.testing.assert_allclose(dist.probs, oracle, atol=1e-12)
    edge = (3 - 2 * np.sqrt(2)) / 2
    np.testing.assert_allclose(dist.probs, [edge, 1 - 2 * edge, edge], atol=1e-12)
    assert abs(dist.probs.sum() - 1.0) < 1e-12


def test_product_biobservable_diagonal_for_equal_sharp():
    rng = np.random.default_rng(6)
    a = spectral_measure(opalg.random_hermitian(3, rng))
    rho = opalg.random_density(3, rng)
    table = product_biobservable(a, a, rho)
    assert table.commuting
    off = table.values - np.diag(np.diag(table.values))
    assert np.max(np.abs(off)) < 1e-12
    np.testing.assert_allclose(np.diag(table.values), distribution_of(a, rho).probs, atol=1e-12)


def test_product_biobservable_matches_lueders_sequence():
    # Oracle: explicit Lueders composition tr(C(y) P_x rho P_x) for a
    # commuting smeared pair.
    rng = np.random.default_rng(7)
    a = spectral_measure(SIGMA_Z)
    mu = Distribution([-0.5, 0.5], [0.5, 0.5])
    c = smear(a, mu)
    rho = opalg.random_density(2, rng)
    table = product_biobservable(a, c, rho)
    assert table.commuting
    for j, pj in enumerate(a.effects):
        for k, ck in enumerate(c.effects):
            seq = np.trace(ck @ pj @ rho @ pj).real
            assert abs(table.values[j, k] - seq) < 1e-12
    np.testing.assert_allclose(
        table.values.sum(axis=0), distribution_of(c, rho).probs, atol=1e-12
    )
    np.testing.assert_allclose(
        table.values.sum(axis=1), distribution_of(a, rho).probs, atol=1e-12
    )


def test_product_biobservable_negative_entry_search():
    # Noncommuting pairs may produce negative entries; that is flagged, not
    # an error. Search random qubit pairs until one shows up.
    rng = np.random.default_rng(8)
    found = False
    for _ in range(200):
        a = spectral_measure(opalg.random_hermitian(2, rng))
        c_vec = rng.uniform(-1, 1, 3)
        c_vec /= max(np.linalg.norm(c_vec), 1.0) * 1.01
        c = BlochObservable(1.0, c_vec).to_observable()
        rho = opalg.projector(opalg.haar_state(2, rng))
        table = product_biobservable(a, c, rho)
        if table.has_negative_entry:
            assert not table.commuting
            found = True
            break
    assert found


def pair_loop_biobservable(a, c, rho):
    """Reference bimeasure: one trace and one commutator norm per effect pair."""
    values = np.zeros((a.n_outcomes, c.n_outcomes))
    commuting = True
    for j, aj in enumerate(a.effects):
        for k, ck in enumerate(c.effects):
            if np.linalg.norm(aj @ ck - ck @ aj) > TOL_COMMUTE:
                commuting = False
            values[j, k] = float(np.trace(rho @ aj @ ck).real)
    return values, commuting


def block_commuting_pair(rng):
    """Degenerate sharp A = (P, 1 - P) with rank-2 P, and a three-outcome C that
    is block diagonal along P although C's own effects do not commute."""
    basis = opalg.haar_unitary(4, rng)
    p = basis[:, :2] @ basis[:, :2].conj().T
    a = SharpObservable([-1.0, 1.0], np.stack([p, np.eye(4) - p]))
    blocks = [random_povm(2, 3, rng).effects for _ in range(2)]
    stacked = np.zeros((3, 4, 4), dtype=complex)
    stacked[:, :2, :2], stacked[:, 2:, 2:] = blocks
    c = Observable([0.0, 1.0, 2.0], basis @ stacked @ basis.conj().T)
    return a, c


def test_product_biobservable_matches_the_pair_loop():
    rng = np.random.default_rng(30)
    cases = []
    for d in (2, 3, 5):
        a = spectral_measure(opalg.random_hermitian(d, rng))
        mu = Distribution(np.sort(rng.uniform(-1, 1, 3)), rng.dirichlet(np.ones(3)))
        cases.append((a, smear(a, mu), True))
    degenerate = spectral_measure(np.diag([0.0, 0.0, 1.0, 1.0, 2.0]).astype(complex))
    cases.append((degenerate, smear(degenerate, Distribution([0.0, 0.5], [0.3, 0.7])), True))
    for _ in range(4):
        a = spectral_measure(opalg.random_hermitian(2, rng))
        c_vec = rng.uniform(-1, 1, 3)
        c_vec /= 1.01 * max(np.linalg.norm(c_vec), 1.0)
        cases.append((a, BlochObservable(1.0, c_vec).to_observable(), False))
    for _ in range(3):
        a, c = block_commuting_pair(rng)
        e0, e1 = c.effects[:2]
        assert np.linalg.norm(e0 @ e1 - e1 @ e0) > 1e-3  # C's own effects do not commute
        cases.append((a, c, True))
    for a, c, commuting in cases:
        rho = opalg.random_density(a.dim, rng)
        values, reference = pair_loop_biobservable(a, c, rho)
        table = product_biobservable(a, c, rho)
        assert table.commuting == reference == commuting
        np.testing.assert_allclose(table.values, values, rtol=0, atol=1e-12)


def test_observable_validation():
    with pytest.raises(ValueError):
        Observable([0.0, 1.0], np.stack([np.eye(2), np.eye(2)]).astype(complex))
    with pytest.raises(ValueError):
        Observable([1.0, 0.0], np.stack([0.5 * np.eye(2), 0.5 * np.eye(2)]).astype(complex))
    with pytest.raises(ValueError):
        SharpObservable(
            [0.0, 1.0], np.stack([0.5 * np.eye(2), 0.5 * np.eye(2)]).astype(complex)
        )
    for bad in ([0.0, np.nan], [0.0, np.inf], [-np.inf, 0.0]):
        with pytest.raises(ValueError, match="finite"):
            Observable(bad, np.stack([np.diag([1, 0]), np.diag([0, 1])]).astype(complex))
    with pytest.raises(ValueError):
        BlochObservable(1.0, np.array([1.2, 0, 0]))
    with pytest.raises(ValueError):
        distribution_of(spectral_measure(SIGMA_Z), np.eye(3) / 3)


def test_born_sum_error_prints_a_plain_float():
    effects = spectral_measure(SIGMA_Z).effects
    with pytest.raises(ValueError) as err:
        born_probabilities(np.eye(2, dtype=complex), effects)
    assert str(err.value) == "Born probabilities sum to 2.0"
    rows = np.stack([np.eye(2) / 2, 0.75 * np.eye(2)]).astype(complex)
    with pytest.raises(ValueError) as err:
        born_probabilities(rows, effects)
    assert str(err.value) == "Born probabilities sum to 1.5"


def test_bloch_observable_rejects_non_finite_parameters():
    for c0, c in ((np.nan, [0.0, 0.0, 0.0]), (1.0, [np.nan, 0.0, 0.0])):
        with pytest.raises(ValueError, match="finite"):
            BlochObservable(c0, c)
    for c0, c in ((np.inf, [0.0, 0.0, 0.0]), (1.0, [0.0, -np.inf, 0.0])):
        with pytest.raises(ValueError, match="positivity"):
            BlochObservable(c0, c)


def test_outcomes_at_the_float_range_ends_warn_of_nothing():
    # The gap between the two outcomes overflows: the check must not subtract.
    effects = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        Observable([-1e308, 1e308], effects)
        with pytest.raises(ValueError, match="strictly increasing"):
            Observable([1e308, -1e308], effects)


def test_spectral_measure_projections_match_the_phase_fixed_ones():
    rng = np.random.default_rng(12)
    u = opalg.haar_unitary(4, rng)
    degenerate = (u * np.array([-1.0, 0.5, 0.5, 2.0])) @ u.conj().T
    for op in [opalg.random_hermitian(d, rng) for d in (2, 3, 4, 6)] + [degenerate]:
        evals, evecs = opalg.eig_hermitian(op)
        projections = evecs.T[:, :, None] * evecs.T.conj()[:, None, :]
        sharp = spectral_measure(op)
        groups = np.searchsorted(sharp.outcomes, evals + 1e-9, side="right") - 1
        expected = np.stack([projections[groups == k].sum(axis=0) for k in range(sharp.n_outcomes)])
        np.testing.assert_allclose(sharp.effects, expected, rtol=0, atol=1e-15)
    assert spectral_measure(degenerate).n_outcomes == 3


@pytest.mark.parametrize("op, message", [
    (np.array([[0.0, 1.0], [0.0, 0.0]]), "not Hermitian"),
    (np.array([[np.nan, 0.0], [0.0, 1.0]]), "non-finite"),
    (np.array([[np.inf, 0.0], [0.0, 1.0]]), "non-finite"),
    (np.ones(3), "square"),
])
def test_spectral_measure_still_checks_its_operator(op, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=message):
            spectral_measure(op)
