import numpy as np
import pytest

from qmu import opalg
from qmu.observables import (
    BlochObservable,
    Observable,
    distribution_of,
    moment_operator,
    smear,
    spectral_measure,
)
from qmu.distributions import Distribution, merge_outcomes
from qmu.grid import GridSystem, VonNeumannModel, gaussian_state
from qmu.observables import SharpObservable
from qmu.opalg import SIGMA_X, SIGMA_Z, bloch_state, expectation, tensor
from qmu.schemes import (
    Instrument,
    MeasurementScheme,
    constant_channel_instrument,
    distorted_observable,
    identity_scheme,
    induced_effects,
    induced_instrument,
    induced_observable,
    luders_instrument,
    luders_scheme,
    sequential_biobservable,
    swap_scheme,
    three_step_value_table,
)


def random_scheme(rng, d_obj=2, d_probe=2):
    pointer = spectral_measure(opalg.random_hermitian(d_probe, rng))
    while pointer.n_outcomes < 2:
        pointer = spectral_measure(opalg.random_hermitian(d_probe, rng))
    return MeasurementScheme(
        probe_state=opalg.random_density(d_probe, rng),
        coupling=opalg.haar_unitary(d_obj * d_probe, rng),
        pointer=pointer,
    )


def test_identity_scheme_trivial_observable():
    rng = np.random.default_rng(0)
    a = spectral_measure(SIGMA_Z)
    sigma = opalg.random_density(2, rng)
    obs = induced_observable(identity_scheme(a, sigma))
    probs = distribution_of(a, sigma).probs
    for k, eff in enumerate(obs.effects):
        np.testing.assert_allclose(eff, probs[k] * np.eye(2), atol=1e-12)


def test_swap_scheme_measures_exactly():
    rng = np.random.default_rng(1)
    a = spectral_measure(opalg.random_hermitian(2, rng))
    sigma = opalg.random_density(2, rng)
    obs = induced_observable(swap_scheme(a, sigma))
    np.testing.assert_allclose(obs.outcomes, a.outcomes, atol=1e-12)
    np.testing.assert_allclose(obs.effects, a.effects, atol=1e-10)


def test_luders_scheme_reproduces_sharp_observable():
    rng = np.random.default_rng(2)
    a = spectral_measure(opalg.random_hermitian(2, rng))
    scheme = luders_scheme(a)
    obs = induced_observable(scheme)
    np.testing.assert_allclose(obs.outcomes, a.outcomes, atol=1e-12)
    np.testing.assert_allclose(obs.effects, a.effects, atol=1e-10)
    # and the induced instrument is the Lueders instrument
    instr = induced_instrument(scheme)
    rho = opalg.random_density(2, rng)
    for k in range(a.n_outcomes):
        expected = a.effects[k] @ rho @ a.effects[k]
        np.testing.assert_allclose(instr.apply(k, rho), expected, atol=1e-10)


def test_induced_instrument_reproduces_scheme_statistics():
    # tr{I(X)(rho) B} = tr{(rho (x) sigma) U^dag (B (x) Z(X)) U} against
    # random rho, B.
    rng = np.random.default_rng(3)
    for _ in range(5):
        scheme = random_scheme(rng)
        instr = induced_instrument(scheme)
        u = scheme.coupling
        for _ in range(3):
            rho = opalg.random_density(2, rng)
            b = opalg.random_hermitian(2, rng)
            for k, z_eff in enumerate(scheme.pointer.effects):
                lhs = np.trace(instr.apply(k, rho) @ b).real
                big = tensor(rho, scheme.probe_state) @ u.conj().T @ tensor(b, z_eff) @ u
                rhs = np.trace(big).real
                assert abs(lhs - rhs) < 1e-9


def test_induced_instrument_total_channel_trace_preserving():
    rng = np.random.default_rng(4)
    scheme = random_scheme(rng, d_obj=3, d_probe=2)
    instr = induced_instrument(scheme)
    rho = opalg.random_density(3, rng)
    out = instr.total_channel(rho)
    assert abs(np.trace(out).real - 1.0) < 1e-10


def test_induced_observable_matches_instrument_effects():
    rng = np.random.default_rng(5)
    scheme = random_scheme(rng)
    obs = induced_observable(scheme)
    from_instr = induced_instrument(scheme).observable()
    np.testing.assert_allclose(obs.effects, from_instr.effects, atol=1e-10)


def test_equal_pointer_labels_merge_into_one_outcome():
    rng = np.random.default_rng(6)
    scheme = random_scheme(rng, d_obj=2, d_probe=3)
    assert scheme.pointer.n_outcomes == 3
    relabeled = MeasurementScheme(
        scheme.probe_state, scheme.coupling, scheme.pointer, [1.0 + 1e-12, -2.0, 1.0]
    )
    fine = induced_observable(scheme).effects
    obs = induced_observable(relabeled)
    np.testing.assert_array_equal(obs.outcomes, [-2.0, 1.0])
    np.testing.assert_allclose(obs.effects, [fine[1], fine[0] + fine[2]], atol=1e-12)
    instr = induced_instrument(relabeled)
    np.testing.assert_array_equal(instr.outcomes, obs.outcomes)
    np.testing.assert_allclose(instr.observable().effects, obs.effects, atol=1e-10)


def per_outcome_effects(coupling, probe_state, pointer_effects):
    """Reference F(z) = Tr_probe[(1 (x) sigma) U^dag (1 (x) Z(z)) U], one contraction per outcome.

    Stacks (N, D, D), (N, d, d) and (N, n, d, d) give (N, n, D/d, D/d):
    F(z)_ab = sum over m,k,e,l,p of sigma[m,k] conj(U4[e,l,a,k]) Z(z)[l,p] U4[e,p,b,m].
    """
    n, dp = probe_state.shape[:2]
    do = coupling.shape[-1] // dp
    u4 = coupling.reshape(n, do, dp, do, dp)
    t = (u4.reshape(n, -1, dp) @ probe_state).reshape(n, do, dp, do, dp)
    t_flat = t.transpose(0, 3, 1, 2, 4).reshape(n, do, -1)
    u_conj_flat = u4.conj().transpose(0, 1, 3, 4, 2).reshape(n, -1, dp)  # (e,a,k;l)
    raw_effects = []
    for p in np.moveaxis(pointer_effects, 1, 0):
        s = (u_conj_flat @ p).reshape(n, do, do, dp, dp).transpose(0, 1, 4, 2, 3)
        s_flat = s.transpose(0, 3, 1, 2, 4).reshape(n, do, -1)
        eff = s_flat @ t_flat.swapaxes(-1, -2)
        raw_effects.append(0.5 * (eff + opalg.dagger(eff)))
    return np.stack(raw_effects, axis=1)


def random_sharp_pointer(rng, d_probe):
    """Sharp pointer whose projections have random ranks, some above one."""
    n_outcomes = int(rng.integers(1, d_probe + 1))
    cuts = np.sort(rng.choice(np.arange(1, d_probe), n_outcomes - 1, replace=False))
    basis = opalg.haar_unitary(d_probe, rng)
    groups = np.split(np.arange(d_probe), cuts)
    effects = np.stack([basis[:, g] @ basis[:, g].conj().T for g in groups])
    return SharpObservable(np.sort(rng.uniform(-2.0, 2.0, n_outcomes)), effects)


@pytest.mark.parametrize("d_obj", [1, 2, 3, 4])
def test_per_eigenvector_effects_match_the_per_outcome_contraction(d_obj):
    rng = np.random.default_rng(40 + d_obj)
    for d_probe in (2, 3, 4, 5):
        # pure, rank-deficient and full-rank probe states
        for rank in sorted({1, d_probe - 1, d_probe}):
            u = opalg.haar_unitary(d_obj * d_probe, rng, 3)
            sigma = opalg.random_density(d_probe, rng, rank=rank, n=3)
            basis = opalg.haar_unitary(d_probe, rng, 3)
            np.testing.assert_allclose(
                induced_effects(u, sigma, basis),
                per_outcome_effects(u, sigma, opalg.projector(basis.swapaxes(-1, -2))),
                rtol=0, atol=1e-12,
            )
            pointer = random_sharp_pointer(rng, d_probe)
            reference = per_outcome_effects(u[:1], sigma[:1], pointer.effects[None])[0]
            repeated = rng.choice([-1.0, 0.5, 2.0], pointer.n_outcomes)
            for labels in (None, repeated):
                scheme = MeasurementScheme(sigma[0], u[0], pointer, labels)
                expected = Observable(*merge_outcomes(scheme.pointer_values, reference))
                obs = induced_observable(scheme)
                np.testing.assert_array_equal(obs.outcomes, expected.outcomes)
                np.testing.assert_allclose(obs.effects, expected.effects, rtol=0, atol=1e-12)


def test_a_zero_pointer_projection_keeps_its_outcome():
    rng = np.random.default_rng(45)
    p0, p1 = opalg.projector(opalg.haar_unitary(2, rng).T)
    pointer = SharpObservable([0.0, 1.0, 2.0], np.stack([p0, np.zeros((2, 2)), p1]))
    u, sigma = opalg.haar_unitary(4, rng), opalg.random_density(2, rng)
    obs = induced_observable(MeasurementScheme(sigma, u, pointer))
    np.testing.assert_array_equal(obs.outcomes, [0.0, 1.0, 2.0])
    np.testing.assert_array_equal(obs.effects[1], np.zeros((2, 2)))
    reference = per_outcome_effects(u[None], sigma[None], pointer.effects[None])[0]
    np.testing.assert_allclose(obs.effects, reference, rtol=0, atol=1e-12)


def test_von_neumann_observable_matches_the_instrument():
    probe = GridSystem(32, 8.0)
    scheme = VonNeumannModel(GridSystem(32, 8.0), probe, 1.0, gaussian_state(probe)).to_scheme()
    obs, from_instr = induced_observable(scheme), induced_instrument(scheme).observable()
    np.testing.assert_array_equal(obs.outcomes, from_instr.outcomes)
    np.testing.assert_allclose(obs.effects, from_instr.effects, rtol=0, atol=1e-10)


def test_swap_total_channel_is_constant():
    rng = np.random.default_rng(6)
    sigma = opalg.random_density(2, rng)
    instr = induced_instrument(swap_scheme(spectral_measure(SIGMA_Z), sigma))
    for _ in range(3):
        rho = opalg.random_density(2, rng)
        np.testing.assert_allclose(instr.total_channel(rho), sigma, atol=1e-10)


def test_identity_scheme_channel_is_identity():
    rng = np.random.default_rng(7)
    sigma = opalg.random_density(2, rng)
    instr = induced_instrument(identity_scheme(spectral_measure(SIGMA_Z), sigma))
    rho = opalg.random_density(2, rng)
    np.testing.assert_allclose(instr.total_channel(rho), rho, atol=1e-10)


def test_constant_channel_instrument():
    rng = np.random.default_rng(8)
    f = BlochObservable(1.0, np.array([0.4, 0.1, -0.3])).to_observable()
    rho0 = opalg.random_density(2, rng)
    instr = constant_channel_instrument(f, rho0)
    rho = opalg.random_density(2, rng)
    for k in range(f.n_outcomes):
        p = expectation(f.effects[k], rho)
        np.testing.assert_allclose(instr.apply(k, rho), p * rho0, atol=1e-10)


def test_constant_channel_distorts_to_trivial():
    rng = np.random.default_rng(9)
    f = spectral_measure(SIGMA_Z)
    rho0 = opalg.random_density(2, rng)
    instr = constant_channel_instrument(f, rho0)
    b = BlochObservable(1.0, np.array([0.2, 0.5, 0.1])).to_observable()
    distorted = distorted_observable(instr, b)
    probs = distribution_of(b, rho0).probs
    for k, eff in enumerate(distorted.effects):
        np.testing.assert_allclose(eff, probs[k] * np.eye(2), atol=1e-10)


def test_identity_instrument_distorts_nothing():
    instr = Instrument([0.0], ((np.eye(3, dtype=complex),),))
    rng = np.random.default_rng(10)
    b = spectral_measure(opalg.random_hermitian(3, rng))
    distorted = distorted_observable(instr, b)
    np.testing.assert_allclose(distorted.effects, b.effects, atol=1e-12)


def test_luders_distortion_kraus_sum_oracle():
    # Lueders sigma_z instrument acting on B = sigma_x: the Kraus-sum oracle
    # (P+ sigma_x P+ + P- sigma_x P-)/... collapses the first moment to 0,
    # leaving the trivial observable with weights (1/2, 1/2).
    a = spectral_measure(SIGMA_Z)
    instr = luders_instrument(a)
    b = spectral_measure(SIGMA_X)
    distorted = distorted_observable(instr, b)
    p_plus, p_minus = a.effects[1], a.effects[0]
    for k, eff in enumerate(b.effects):
        oracle = p_plus @ eff @ p_plus + p_minus @ eff @ p_minus
        np.testing.assert_allclose(distorted.effects[k], oracle, atol=1e-12)
    np.testing.assert_allclose(moment_operator(distorted, 1), np.zeros((2, 2)), atol=1e-12)
    np.testing.assert_allclose(distorted.effects[0], 0.5 * np.eye(2), atol=1e-12)


def test_sequential_biobservable_luders_then_same():
    # Lueders sigma_z then sharp sigma_z: diagonal table, perfect correlation.
    a = spectral_measure(SIGMA_Z)
    instr = luders_instrument(a)
    rho = bloch_state([0.3, 0.2, 0.4])
    table, joint = sequential_biobservable(instr, a, rho)
    off = table.values - np.diag(np.diag(table.values))
    assert np.max(np.abs(off)) < 1e-12
    np.testing.assert_allclose(np.diag(table.values), distribution_of(a, rho).probs, atol=1e-12)


def test_sequential_marginals_and_product_form():
    rng = np.random.default_rng(11)
    a = spectral_measure(opalg.random_hermitian(2, rng))
    instr = luders_instrument(a)
    g = BlochObservable(1.0, np.array([0.3, -0.4, 0.2])).to_observable()
    rho = opalg.random_density(2, rng)
    table, joint = sequential_biobservable(instr, g, rho)
    assert table.values.min() > -1e-12  # genuine joint probabilities
    np.testing.assert_allclose(
        table.row_marginal().probs, distribution_of(instr.observable(), rho).probs, atol=1e-10
    )
    np.testing.assert_allclose(
        table.col_marginal().probs,
        distribution_of(distorted_observable(instr, g), rho).probs,
        atol=1e-10,
    )
    # Marginal 1 is projection valued, so E(x, y) = E1(x) E2(y).
    e2 = joint.sum(axis=0)
    for x in range(a.n_outcomes):
        for y in range(g.n_outcomes):
            np.testing.assert_allclose(joint[x, y], a.effects[x] @ e2[y], atol=1e-9)


def test_sequential_matches_product_biobservable_when_commuting():
    # Lueders A then a commuting smeared version of A: both routes computed
    # independently must give the same table.
    from qmu.observables import product_biobservable

    rng = np.random.default_rng(12)
    a = spectral_measure(SIGMA_Z)
    c = smear(a, Distribution([-0.25, 0.25], [0.5, 0.5]))
    rho = opalg.random_density(2, rng)
    seq_table, _ = sequential_biobservable(luders_instrument(a), c, rho)
    prod_table = product_biobservable(a, c, rho)
    assert prod_table.commuting
    np.testing.assert_allclose(seq_table.values, prod_table.values, atol=1e-12)


def test_product_form_can_fail_for_unsharp_marginal():
    # The product factorization is guaranteed only for projection-valued
    # first marginals; the counterexample search over unsharp marginals is
    # permitted to fail, but this square-root instrument of a Bloch POVM
    # does break it.
    from scipy.linalg import sqrtm

    c = BlochObservable(1.0, np.array([0.6, 0.0, 0.0])).to_observable()
    kraus = tuple((np.asarray(sqrtm(e), dtype=complex),) for e in c.effects)
    instr = Instrument(c.outcomes, kraus)
    g = spectral_measure(SIGMA_Z)
    rho = bloch_state([0.0, 0.3, 0.5])
    table, joint = sequential_biobservable(instr, g, rho)
    e1 = instr.observable()
    e2 = joint.sum(axis=0)
    worst = max(
        np.linalg.norm(joint[x, y] - e1.effects[x] @ e2[y])
        for x in range(2)
        for y in range(2)
    )
    assert worst > 0.1


def test_three_step_value_table_oracle():
    # Lueders B, then a Lueders sigma_z channel, then B again; for B = sigma_x
    # the distorted observable is trivial (commutes), and at the maximally
    # mixed state the mismatch probability is 1/2, so the squared value
    # deviation is 2.
    b = spectral_measure(SIGMA_X)
    instr = luders_instrument(spectral_measure(SIGMA_Z))
    rho = 0.5 * np.eye(2, dtype=complex)
    table = three_step_value_table(b, instr, rho)
    assert table.commuting
    assert abs(table.values.sum() - 1.0) < 1e-12
    assert abs(table.value_deviation_squared() - 2.0) < 1e-12


def test_scheme_validation():
    a = spectral_measure(SIGMA_Z)
    with pytest.raises(ValueError):
        MeasurementScheme(
            probe_state=np.eye(2, dtype=complex) / 2,
            coupling=np.eye(3, dtype=complex),
            pointer=a,
        )
    with pytest.raises(ValueError):
        Instrument([0.0], ((0.5 * np.eye(2, dtype=complex),),))


def test_outcomes_without_kraus_operators():
    # The identity scheme with a pure probe never shows the pointer value -1,
    # and a zero first effect gives the constant channel no Kraus operator.
    instr = induced_instrument(identity_scheme(spectral_measure(SIGMA_Z), np.diag([1.0, 0.0])))
    assert instr.dim == 2
    assert [len(ks) for ks in instr.kraus_sets] == [0, 1]
    rho = opalg.random_density(2, np.random.default_rng(28))
    np.testing.assert_allclose(instr.apply(0, rho), np.zeros((2, 2)), atol=1e-15)
    np.testing.assert_allclose(instr.total_channel(rho), rho, atol=1e-12)
    f = Observable([0.0, 1.0], np.stack([np.zeros((2, 2)), np.eye(2)]))
    instr = constant_channel_instrument(f, np.diag([0.25, 0.75]))
    assert instr.dim == 2 and len(instr.kraus_sets[0]) == 0
    np.testing.assert_allclose(instr.apply(1, rho), np.diag([0.25, 0.75]), atol=1e-12)
    with pytest.raises(ValueError, match="no Kraus operators"):
        Instrument([0.0, 1.0], ((), ()))


def test_kraus_canonical_form_deterministic_and_truncated():
    rng = np.random.default_rng(13)
    scheme = random_scheme(rng)
    i1 = induced_instrument(scheme)
    i2 = induced_instrument(scheme)
    for k1, k2 in zip(i1.kraus_sets, i2.kraus_sets):
        assert len(k1) == len(k2)
        for a, b in zip(k1, k2):
            np.testing.assert_array_equal(a, b)
    # redundant raw decompositions collapse: pure probe, rank-1 pointer
    # effects give exactly one Kraus per outcome
    pure = MeasurementScheme(
        probe_state=np.diag([1.0, 0.0]).astype(complex),
        coupling=opalg.haar_unitary(4, rng),
        pointer=spectral_measure(SIGMA_Z),
    )
    for ks in induced_instrument(pure).kraus_sets:
        assert len(ks) == 1
