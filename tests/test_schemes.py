import numpy as np
import pytest

from qmu import opalg
from qmu.observables import (
    BlochObservable,
    Observable,
    SharpObservable,
    check_effects,
    check_projections,
    distribution_of,
    qubit_triple,
    smear,
    spectral_measure,
)
from qmu.distributions import Distribution, merge_outcomes
from qmu.grid import GridSystem, VonNeumannModel, gaussian_state, position_observable
from qmu.opalg import SIGMA_Z, tensor
from qmu.scenarios import random_qubit_schemes
from qmu.schemes import (
    MeasurementScheme,
    identity_scheme,
    induced_effects,
    induced_observable,
    swap_scheme,
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


def test_von_neumann_observable_matches_the_per_outcome_contraction():
    probe = GridSystem(32, 8.0)
    scheme = VonNeumannModel(GridSystem(32, 8.0), probe, 1.0, gaussian_state(probe)).to_scheme()
    reference = per_outcome_effects(
        scheme.coupling[None], scheme.probe_state[None], scheme.pointer.effects[None]
    )[0]
    outcomes, effects = merge_outcomes(scheme.pointer_values, reference)
    obs = induced_observable(scheme)
    np.testing.assert_array_equal(obs.outcomes, outcomes)
    np.testing.assert_allclose(obs.effects, effects, rtol=0, atol=1e-10)


def object_channel(scheme, rho):
    """Reference total channel Tr_probe[U (rho (x) sigma) U^dag] by index sums."""
    do, dp = scheme.object_dim, scheme.probe_dim
    out = scheme.coupling @ tensor(rho, scheme.probe_state) @ scheme.coupling.conj().T
    return np.einsum("ikjk->ij", out.reshape(do, dp, do, dp))


def test_swap_total_channel_is_constant():
    rng = np.random.default_rng(6)
    sigma = opalg.random_density(2, rng)
    scheme = swap_scheme(spectral_measure(SIGMA_Z), sigma)
    for _ in range(3):
        rho = opalg.random_density(2, rng)
        np.testing.assert_allclose(object_channel(scheme, rho), sigma, atol=1e-10)


def test_identity_scheme_channel_is_identity():
    rng = np.random.default_rng(7)
    sigma = opalg.random_density(2, rng)
    scheme = identity_scheme(spectral_measure(SIGMA_Z), sigma)
    rho = opalg.random_density(2, rng)
    np.testing.assert_allclose(object_channel(scheme, rho), rho, atol=1e-10)


def test_scheme_validation():
    a = spectral_measure(SIGMA_Z)
    with pytest.raises(ValueError):
        MeasurementScheme(
            probe_state=np.eye(2, dtype=complex) / 2,
            coupling=np.eye(3, dtype=complex),
            pointer=a,
        )


def test_scheme_rejects_non_finite_pointer_values():
    a = spectral_measure(SIGMA_Z)
    for labels in ([np.nan, 1.0], [0.0, np.inf]):
        with pytest.raises(ValueError, match="finite"):
            MeasurementScheme(np.eye(2, dtype=complex) / 2, np.eye(4, dtype=complex), a, labels)


def revalidated(obs):
    """The observable rebuilt through its public constructor, which runs every check."""
    return type(obs)(obs.outcomes, obs.effects)


def revalidated_scheme(scheme):
    return MeasurementScheme(
        scheme.probe_state, scheme.coupling, revalidated(scheme.pointer), scheme.pointer_values
    )


def test_trusted_builders_pass_the_public_validators():
    rng = np.random.default_rng(50)
    built = []
    for d in (2, 3, 4, 6):
        a = spectral_measure(opalg.random_hermitian(d, rng))
        mu = Distribution(np.sort(rng.uniform(-1.0, 1.0, 3)), rng.dirichlet(np.ones(3)))
        built += [a, smear(a, mu)]
    built.append(spectral_measure(np.diag([0.0, 0.0, 1.0]).astype(complex)))
    for d_obj, d_probe in ((2, 2), (3, 2), (2, 3)):
        built.append(induced_observable(random_scheme(rng, d_obj, d_probe)))
    c_vec = rng.uniform(-1.0, 1.0, 3)
    built.append(BlochObservable(1.0, 0.9 * c_vec / np.linalg.norm(c_vec)).to_observable())
    built.append(position_observable(GridSystem(16, 4.0)))
    built.append(qubit_triple())
    assert np.linalg.norm(built[-1].effects.sum(axis=0) - np.eye(2)) <= 1e-12
    for obs in built:
        rebuilt = revalidated(obs)
        assert isinstance(rebuilt, type(obs))
        np.testing.assert_array_equal(rebuilt.effects, obs.effects)
        np.testing.assert_array_equal(rebuilt.outcomes, obs.outcomes)

    u, sigma, _, vectors, effects = random_qubit_schemes(rng, 64)
    opalg.check_unitary(u)
    opalg.check_density(sigma)
    check_effects(effects)
    check_projections(effects)
    check_effects(induced_effects(u, sigma, vectors))

    probe = GridSystem(32, 8.0)
    scheme = VonNeumannModel(GridSystem(32, 8.0), probe, 1.0, gaussian_state(probe)).to_scheme()
    revalidated_scheme(scheme)
    revalidated(induced_observable(scheme))
    for builder in (identity_scheme, swap_scheme):
        for d in (2, 3):
            sigma = opalg.random_density(d, rng)
            revalidated_scheme(builder(spectral_measure(opalg.random_hermitian(d, rng)), sigma))
