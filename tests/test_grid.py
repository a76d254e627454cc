import math

import numpy as np
import pytest

from qmu import opalg
from qmu.distributions import convolve, w2_quantile
from qmu.errmetrics import eps_no_from_scheme
from qmu.grid import (
    MAX_HALF_WIDTH,
    GridAliasingError,
    GridSystem,
    VonNeumannModel,
    apply_oscillator,
    apply_position,
    boundary_mass,
    coupling_error,
    dft_matrix,
    gaussian_state,
    ground_state,
    half_width_error,
    momentum_distribution,
    momentum_squared_matrix,
    momentum_wavefunction,
    parity_flip,
    phase_space_marginals,
    position_distribution,
    position_observable,
)
from qmu.observables import check_effects, distribution_of
from qmu.schemes import induced_observable


def apply_momentum(grid: GridSystem, psi) -> np.ndarray:
    """P psi through the FFT: multiply by p on the momentum side."""
    phi = np.fft.fftshift(np.fft.fft(np.fft.ifftshift(psi)))
    return np.fft.fftshift(np.fft.ifft(np.fft.ifftshift(grid.momenta * phi)))


def test_dft_matrix_matches_fft_path():
    grid = GridSystem(8, 3.0)
    rng = np.random.default_rng(0)
    psi = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    via_matrix = dft_matrix(grid) @ psi * math.sqrt(8) * grid.dx / math.sqrt(2 * math.pi)
    via_fft = momentum_wavefunction(grid, psi)
    np.testing.assert_allclose(via_fft, via_matrix, atol=1e-12)


def test_momentum_squared_matrix_is_the_dense_p_squared():
    for grid in (GridSystem(8, 3.0), GridSystem(64, 10.0)):
        f = dft_matrix(grid)
        dense = f.conj().T @ np.diag(grid.momenta**2) @ f
        circulant = momentum_squared_matrix(grid)
        assert circulant.dtype == float
        tol = 1e-12 * grid.momenta.min() ** 2
        np.testing.assert_allclose(circulant, circulant.T, rtol=0, atol=tol)
        np.testing.assert_allclose(circulant, dense, rtol=0, atol=tol)
        psi = gaussian_state(grid, width=1.3, momentum=0.4)
        np.testing.assert_allclose(circulant @ psi, apply_momentum(grid, apply_momentum(grid, psi)),
                                   rtol=0, atol=1e-10)


def test_ground_state_moments():
    grid = GridSystem(256, 10.0)
    psi = ground_state(grid)
    pos = position_distribution(grid, psi)
    mom = momentum_distribution(grid, psi)
    assert abs(pos.mean) < 1e-12
    assert abs(pos.variance - 0.5) < 1e-10
    assert abs(mom.mean) < 1e-12
    assert abs(mom.variance - 0.5) < 1e-10


def test_squeezed_and_displaced_gaussians():
    grid = GridSystem(512, 14.0)
    for s in (0.5, 2.0):
        psi = gaussian_state(grid, width=s)
        assert abs(position_distribution(grid, psi).variance - s**2 / 2) < 1e-9
        assert abs(momentum_distribution(grid, psi).variance - 0.5 / s**2) < 1e-9
    shifted = gaussian_state(grid, center=1.3, momentum=-0.7)
    assert abs(position_distribution(grid, shifted).mean - 1.3) < 1e-9
    assert abs(momentum_distribution(grid, shifted).mean + 0.7) < 1e-9


def test_parity_flip():
    grid = GridSystem(64, 6.0)
    psi = gaussian_state(grid, center=1.0)
    flipped = parity_flip(psi)
    np.testing.assert_allclose(
        position_distribution(grid, flipped).probs[::-1][:-1],
        np.roll(position_distribution(grid, psi).probs, -1)[:-1],
        atol=1e-12,
    )
    assert abs(position_distribution(grid, flipped).mean + 1.0) < 1e-9


def test_oscillator_annihilates_ground_state():
    grid = GridSystem(512, 12.0)
    psi = ground_state(grid)
    residual = apply_oscillator(grid, psi)
    assert grid.inner(residual, residual).real * 1.0 < 1e-20


def test_position_momentum_operator_moments():
    grid = GridSystem(256, 10.0)
    psi = gaussian_state(grid, center=0.8, width=1.2, momentum=0.5)
    pos = position_distribution(grid, psi)
    x1 = grid.inner(psi, apply_position(grid, psi)).real
    assert abs(x1 - pos.mean) < 1e-10
    p1 = grid.inner(psi, apply_momentum(grid, psi)).real
    assert abs(p1 - momentum_distribution(grid, psi).mean) < 1e-9


def test_phase_space_marginals_ground_state_saturates():
    grid = GridSystem(1024, 12.0)
    mu, nu = phase_space_marginals(grid, ground_state(grid))
    assert abs(mu.std * nu.std - 0.5) < 1e-4
    assert abs(mu.moment(2) * nu.moment(2) - 0.25) < 1e-3


def test_phase_space_marginals_squeezed_and_displaced():
    grid = GridSystem(1024, 12.0)
    mu, nu = phase_space_marginals(grid, gaussian_state(grid, width=2.0))
    assert abs(mu.std * nu.std - 0.5) < 1e-4
    assert mu.moment(2) * nu.moment(2) >= 0.25 - 1e-9
    mu_d, nu_d = phase_space_marginals(grid, gaussian_state(grid, center=1.5))
    assert abs(mu_d.mean + 1.5) < 1e-6  # parity flips the displacement
    assert mu_d.moment(2) * nu_d.moment(2) > mu_d.variance * nu_d.variance + 0.1


def test_aliasing_detection():
    grid = GridSystem(128, 6.0)
    with pytest.raises(GridAliasingError):
        phase_space_marginals(grid, gaussian_state(grid, center=5.5))
    assert boundary_mass(grid, ground_state(grid)) < 1e-12


def test_von_neumann_measured_equals_convolution():
    obj = GridSystem(64, 8.0)
    probe = GridSystem(64, 8.0)
    model = VonNeumannModel(obj, probe, lam=1.0, probe_psi=gaussian_state(probe, width=1.0))
    psi = gaussian_state(obj, center=0.5, width=0.8)
    measured = model.measured_distribution(psi)
    oracle = convolve(model.noise_distribution(), position_distribution(obj, psi))
    dist = w2_quantile(measured, oracle)
    assert dist < 1e-6
    assert abs(measured.mean - oracle.mean) < 1e-8
    assert abs(measured.variance - oracle.variance) < 1e-8


def test_von_neumann_unbiased_for_even_probe():
    obj = GridSystem(32, 8.0)
    probe = GridSystem(64, 16.0)
    model = VonNeumannModel(obj, probe, lam=2.0, probe_psi=gaussian_state(probe, width=1.0))
    mu = model.noise_distribution()
    assert abs(mu.mean) < 1e-12
    psi = gaussian_state(obj, width=0.9)
    assert abs(model.measured_distribution(psi).mean - 0.0) < 1e-9


def test_von_neumann_noise_narrows_with_coupling():
    obj = GridSystem(32, 8.0)
    probe = GridSystem(64, 16.0)
    widths = []
    for lam in (1.0, 2.0, 4.0):
        model = VonNeumannModel(obj, probe, lam=lam, probe_psi=gaussian_state(probe, width=1.0))
        widths.append(model.noise_distribution().std)
    assert widths[0] > widths[1] > widths[2]
    # law of y0/lam: std halves when lam doubles
    assert abs(widths[0] / widths[1] - 2.0) < 1e-9


def test_von_neumann_grid_compatibility_guard():
    obj = GridSystem(32, 8.0)
    probe = GridSystem(32, 8.0)
    with pytest.raises(ValueError):
        VonNeumannModel(obj, probe, lam=0.5, probe_psi=gaussian_state(probe))


def test_coupling_rule_rejects_vanishing_and_negative_couplings():
    obj = probe = GridSystem(4, 4.0)
    assert coupling_error(1.0, obj.dx, probe.dx) is None
    assert coupling_error(3.0, obj.dx, probe.dx) is None
    for lam in (-1.0, 0.0, 0.3, 1e-320, math.nan, math.inf):
        assert coupling_error(lam, obj.dx, probe.dx) is not None, lam
    with pytest.raises(ValueError, match="coupling strength"):
        VonNeumannModel(obj, probe, lam=1e-320, probe_psi=gaussian_state(probe))


def test_von_neumann_dense_scheme_matches_fast_route():
    obj = GridSystem(16, 6.0)
    probe = GridSystem(32, 12.0)
    model = VonNeumannModel(obj, probe, lam=1.0, probe_psi=gaussian_state(probe, width=1.0))
    scheme = model.to_scheme()
    obs = induced_observable(scheme)
    psi = gaussian_state(obj, center=-0.4, width=0.9)
    rho = np.outer(psi, psi.conj()) * obj.dx
    dense = distribution_of(obs, rho)
    fast = model.measured_distribution(psi)
    np.testing.assert_allclose(dense.support, fast.support, atol=1e-12)
    np.testing.assert_allclose(dense.probs, fast.probs, atol=1e-9)


# (n, L) of object and probe, and lam: the scenario default, a probe four times
# as wide, a stronger coupling, and an object finer than its (wrapping) probe.
VON_NEUMANN_GRIDS = [
    pytest.param((32, 8.0), (32, 8.0), 1.0, id="32+32-lam1"),
    pytest.param((16, 6.0), (64, 24.0), 1.0, id="16+64-wide-probe"),
    pytest.param((32, 8.0), (64, 16.0), 2.0, id="32+64-lam2"),
    pytest.param((32, 8.0), (16, 8.0), 2.0, id="32+16-finer-object"),
]


@pytest.mark.parametrize("obj_grid, probe_grid, lam", VON_NEUMANN_GRIDS)
def test_von_neumann_shift_route_matches_the_dense_scheme(obj_grid, probe_grid, lam):
    obj, probe = GridSystem(*obj_grid), GridSystem(*probe_grid)
    model = VonNeumannModel(obj, probe, lam, gaussian_state(probe, width=1.0, momentum=0.2))
    scheme = model.to_scheme()
    dense, fast = induced_observable(scheme), model.induced_observable()
    np.testing.assert_allclose(fast.outcomes, dense.outcomes, rtol=0, atol=1e-12)
    np.testing.assert_allclose(fast.effects, dense.effects, rtol=0, atol=1e-12)
    check_effects(fast.effects)
    psi = gaussian_state(obj, center=0.5, width=0.8, momentum=0.3)
    rho = np.outer(psi, psi.conj()) * obj.dx
    rng = np.random.default_rng(5)
    for a in (np.diag(obj.positions.astype(complex)), opalg.random_hermitian(obj.n, rng)):
        reference = eps_no_from_scheme(scheme, a, rho)
        assert abs(model.eps_no_from_shifts(a, psi) - reference) <= 1e-12 * max(1.0, reference)
    born = distribution_of(fast, rho)
    measured = model.measured_distribution(psi)
    np.testing.assert_allclose(measured.support, born.support, rtol=0, atol=1e-12)
    np.testing.assert_allclose(measured.probs, born.probs, rtol=0, atol=1e-12)


def test_von_neumann_shift_route_rejects_a_foreign_target():
    obj = probe = GridSystem(16, 4.0)
    model = VonNeumannModel(obj, probe, 1.0, gaussian_state(probe))
    with pytest.raises(ValueError, match="object space"):
        model.eps_no_from_shifts(np.eye(8), gaussian_state(obj))
    with pytest.raises(ValueError, match="Hermitian"):
        model.eps_no_from_shifts(np.triu(np.ones((16, 16))), gaussian_state(obj))


def test_grid_convergence_doubling():
    # Doubling n and L together (same spacing, wider box) moves Gaussian
    # moments by well under 1e-5.
    base = GridSystem(512, 12.0)
    fine = GridSystem(1024, 24.0)
    for g1, g2 in ((base, fine),):
        m1, n1 = phase_space_marginals(g1, gaussian_state(g1, width=1.5))
        m2, n2 = phase_space_marginals(g2, gaussian_state(g2, width=1.5))
        assert abs(m1.variance - m2.variance) < 1e-5
        assert abs(n1.variance - n2.variance) < 1e-5
        assert abs(m1.moment(2) - m2.moment(2)) < 1e-5
    obj1, probe1 = GridSystem(32, 8.0), GridSystem(64, 16.0)
    obj2, probe2 = GridSystem(64, 16.0), GridSystem(128, 32.0)
    for o, p in ((obj1, probe1), (obj2, probe2)):
        model = VonNeumannModel(o, p, lam=2.0, probe_psi=gaussian_state(p, width=1.0))
        d = model.measured_distribution(gaussian_state(o, width=0.8))
        if o is obj1:
            first = (d.mean, d.variance)
        else:
            assert abs(d.mean - first[0]) < 1e-5
            assert abs(d.variance - first[1]) < 1e-5


def test_position_observable_guard():
    with pytest.raises(ValueError):
        position_observable(GridSystem(256, 8.0))


def test_half_width_keeps_the_squared_extent_finite():
    assert half_width_error(MAX_HALF_WIDTH) is None
    assert math.isfinite((2.0 * MAX_HALF_WIDTH) ** 2)
    for bad in (math.nextafter(MAX_HALF_WIDTH, math.inf), 1e300, 10**400, math.inf,
                math.nan, 0.0, -1.0, True):
        assert half_width_error(bad) is not None, bad


def test_normalize_survives_extreme_amplitudes():
    grid = GridSystem(4, 4.0)
    for amplitude in (1e200, 1e-200):
        psi = grid.normalize(np.full(4, amplitude))
        np.testing.assert_allclose(psi, np.full(4, 1.0 / math.sqrt(4 * grid.dx)), rtol=1e-15)
        assert abs(float(np.sum(np.abs(psi) ** 2)) * grid.dx - 1.0) <= 1e-15
    with pytest.raises(ValueError, match="zero wavefunction"):
        grid.normalize(np.zeros(4))


def test_wavefunction_checks_reject_non_finite_entries():
    grid = GridSystem(16, 4.0)
    for bad in (np.full(16, np.nan), np.r_[np.ones(15), np.inf]):
        with pytest.raises(ValueError, match="non-finite"):
            grid.normalize(bad)
        with pytest.raises(ValueError, match="norm"):
            grid.check_normalized(bad)
    with np.errstate(divide="ignore", invalid="ignore"), pytest.raises(ValueError):
        gaussian_state(grid, width=0.0)
