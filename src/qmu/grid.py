"""Sampled wavefunctions on a uniform position grid with DFT momentum side.

Units are dimensionless with hbar = m = omega = 1; positions are
x_j = (j - n/2) dx with dx = 2L/n, momenta p_k = (k - n/2) pi/L in
symmetric (fftshift) ordering.  Distributions come from Born-rule sampling
and operators act by FFT application or, for the von Neumann model, by
cyclic shifts; the dense matrices at the end of the module are for small
grids.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import opalg
from .distributions import Distribution, make_distribution, merge_outcomes
from .observables import Observable, SharpObservable
from .schemes import MeasurementScheme

ALIASING_TOL = 1e-8
BOUNDARY_CELLS = 2  # cells at each grid end whose mass check_aliasing bounds
NORM_TOL = 1e-8
DENSE_POSITION_MAX_N = 128   # grid points of the dense position observable
DENSE_SCHEME_MAX_DIM = 4096  # object (x) probe dimension of a dense von Neumann scheme
MAX_HALF_WIDTH = 0.5 * math.sqrt(np.finfo(float).max)  # largest L with (2L)^2 finite


class GridAliasingError(ValueError):
    """Raised when wavefunction mass sits too close to the grid boundary."""


def grid_size_error(n) -> str | None:
    """Why n is no grid size (an integer power of two, at least 4), or None."""
    if isinstance(n, bool) or not isinstance(n, numbers.Integral) or n < 4 or n & (n - 1):
        return f"grid size must be a power of two, at least 4, got {n!r}"
    return None


def half_width_error(half_width) -> str | None:
    """Why half_width is no grid half width (positive, with (2L)^2 finite), or None.

    Squared positions and moments of a wider grid overflow float64.
    """
    if isinstance(half_width, bool) or not isinstance(half_width, numbers.Real) or not (
        0 < half_width <= MAX_HALF_WIDTH
    ):
        return (f"half width must be positive and at most {MAX_HALF_WIDTH:.4g}, "
                f"got {half_width!r}")
    return None


def coupling_error(lam, dx_object, dx_probe) -> str | None:
    """Why lam is no von Neumann coupling strength for these grid spacings, or None.

    lam must be positive, with lam dx_object an integer multiple (at least 1)
    of dx_probe to 1e-9, so that pointer labels land on the convolution lattice.
    """
    ratio = lam * dx_object / dx_probe if dx_probe else math.inf  # dx_probe may round to 0
    if not (lam > 0 and math.isfinite(ratio) and round(ratio) >= 1
            and abs(ratio - round(ratio)) <= 1e-9):
        return ("coupling strength must be positive, with lam * dx_object an integer "
                f"multiple (at least 1) of dx_probe, got lam={lam!r} (ratio {ratio!r})")
    return None


def dense_position_error(n) -> str | None:
    """Why an n-point grid is too large for the dense position observable, or None."""
    if n > DENSE_POSITION_MAX_N:
        return f"dense position observable limited to grids of at most {DENSE_POSITION_MAX_N} points"
    return None


def dense_scheme_error(n_obj, n_probe) -> str | None:
    """Why object and probe grids are too large for a dense scheme, or None."""
    if n_obj * n_probe > DENSE_SCHEME_MAX_DIM:
        return f"dense scheme limited to total dimension {DENSE_SCHEME_MAX_DIM}"
    return None


@dataclass(frozen=True)
class GridSystem:
    """Uniform position grid of n points (power of two) on [-L, L)."""

    n: int
    half_width: float

    def __post_init__(self):
        error = grid_size_error(self.n) or half_width_error(self.half_width)
        if error:
            raise ValueError(error)

    @property
    def dx(self) -> float:
        return 2.0 * self.half_width / self.n

    @property
    def dp(self) -> float:
        return math.pi / self.half_width

    @property
    def positions(self) -> np.ndarray:
        return (np.arange(self.n) - self.n // 2) * self.dx

    @property
    def momenta(self) -> np.ndarray:
        return (np.arange(self.n) - self.n // 2) * self.dp

    def normalize(self, psi) -> np.ndarray:
        psi = np.asarray(psi, dtype=complex).reshape(-1)
        if psi.size != self.n:
            raise ValueError("wavefunction size does not match the grid")
        if not np.isfinite(psi).all():
            raise ValueError("wavefunction has non-finite entries")
        with np.errstate(over="ignore"):
            norm = math.sqrt(float(np.sum(np.abs(psi) ** 2)) * self.dx)
        if norm == 0 or norm == math.inf:  # squares under- or overflowed: rescale first
            peak = float(np.abs(psi).max())
            if peak == 0:
                raise ValueError("cannot normalize the zero wavefunction")
            psi = psi / peak
            norm = math.sqrt(float(np.sum(np.abs(psi) ** 2)) * self.dx)
        return psi / norm

    def check_normalized(self, psi) -> np.ndarray:
        psi = np.asarray(psi, dtype=complex).reshape(-1)
        total = float(np.sum(np.abs(psi) ** 2)) * self.dx
        if not abs(total - 1.0) <= NORM_TOL:  # NaN fails this test too
            raise ValueError(f"wavefunction norm^2 = {total!r}, expected 1")
        return psi

    def inner(self, a, b) -> complex:
        return complex(np.vdot(a, b) * self.dx)


def _to_momentum(psi: np.ndarray) -> np.ndarray:
    return np.fft.fftshift(np.fft.fft(np.fft.ifftshift(psi)))


def _to_position(phi: np.ndarray) -> np.ndarray:
    return np.fft.fftshift(np.fft.ifft(np.fft.ifftshift(phi)))


def momentum_wavefunction(grid: GridSystem, psi) -> np.ndarray:
    """Momentum-space amplitudes on grid.momenta (normalized like psi)."""
    psi = np.asarray(psi, dtype=complex).reshape(-1)
    return _to_momentum(psi) * grid.dx / math.sqrt(2.0 * math.pi)


def position_distribution(grid: GridSystem, psi) -> Distribution:
    psi = grid.check_normalized(psi)
    return Distribution(grid.positions, np.abs(psi) ** 2 * grid.dx)


def momentum_distribution(grid: GridSystem, psi) -> Distribution:
    psi = grid.check_normalized(psi)
    phi = momentum_wavefunction(grid, psi)
    probs = np.abs(phi) ** 2 * grid.dp
    return Distribution(grid.momenta, probs / probs.sum())


def parity_flip(psi) -> np.ndarray:
    """(Pi psi)(x) = psi(-x) as the FFT-compatible circular index reversal."""
    psi = np.asarray(psi, dtype=complex).reshape(-1)
    return np.roll(psi[::-1], 1)


def boundary_mass(grid: GridSystem, psi) -> float:
    prob = np.abs(np.asarray(psi).reshape(-1)) ** 2 * grid.dx
    return float(prob[:BOUNDARY_CELLS].sum() + prob[-BOUNDARY_CELLS:].sum())


def check_aliasing(grid: GridSystem, psi):
    mass = boundary_mass(grid, psi)
    if mass > ALIASING_TOL:
        raise GridAliasingError(
            f"wavefunction mass {mass:.3e} within {ALIASING_TOL} of the grid boundary"
        )


def gaussian_state(grid: GridSystem, center: float = 0.0, width: float = 1.0,
                   momentum: float = 0.0) -> np.ndarray:
    """Normalized Gaussian e^{-(x-c)^2/(2 w^2)} e^{i p x}; width 1 is the
    oscillator ground state."""
    x = grid.positions
    psi = np.exp(-((x - center) ** 2) / (2.0 * width**2)) * np.exp(1j * momentum * x)
    return grid.normalize(psi)


def ground_state(grid: GridSystem) -> np.ndarray:
    return gaussian_state(grid)


def apply_position(grid: GridSystem, psi) -> np.ndarray:
    return grid.positions * np.asarray(psi, dtype=complex).reshape(-1)


def apply_oscillator(grid: GridSystem, psi) -> np.ndarray:
    """(P^2/2 + Q^2/2 - 1/2) psi; the shift makes the ground state a null vector."""
    psi = np.asarray(psi, dtype=complex).reshape(-1)
    kinetic = _to_position(0.5 * grid.momenta**2 * _to_momentum(psi))
    return kinetic + 0.5 * grid.positions**2 * psi - 0.5 * psi


def phase_space_marginals(grid: GridSystem, tau) -> tuple[Distribution, Distribution]:
    """Position/momentum marginals of the covariant measurement generated by tau.

    Both are Born distributions of the parity-flipped generating state: the
    position marginal smears by mu_tau = Q_{Pi tau Pi}, the momentum marginal
    by nu_tau = P_{Pi tau Pi}.
    """
    tau = grid.check_normalized(tau)
    check_aliasing(grid, tau)
    flipped = parity_flip(tau)
    return position_distribution(grid, flipped), momentum_distribution(grid, flipped)


# ---------------------------------------------------------------------------
# Dense operators for small grids: the position POVM, P^2 and the dense
# reference von Neumann scheme
# ---------------------------------------------------------------------------


def dft_matrix(grid: GridSystem) -> np.ndarray:
    """Unitary symmetric-grid DFT: entry (k, j) = e^{-i p_k x_j} / sqrt(n)."""
    j = np.arange(grid.n) - grid.n // 2
    phase = np.exp(-2j * math.pi * np.outer(j, j) / grid.n)
    return phase / math.sqrt(grid.n)


def momentum_squared_matrix(grid: GridSystem) -> np.ndarray:
    """P^2 = F^dag diag(p^2) F as a real symmetric circulant matrix.

    Entry (l, j) depends only on (l - j) mod n: the first column is the
    inverse DFT of p^2 in natural (ifftshift) order, real because p^2 is even.
    The matrix is symmetric to rounding; ``eigh`` reads its lower triangle.
    """
    column = np.fft.ifft(np.fft.ifftshift(grid.momenta**2)).real
    return column[(np.arange(grid.n)[:, None] - np.arange(grid.n)) % grid.n]


def position_observable(grid: GridSystem) -> SharpObservable:
    """Dense position POVM; guarded to small grids (effects are n x n each)."""
    error = dense_position_error(grid.n)
    if error:
        raise ValueError(error)
    effects = np.zeros((grid.n, grid.n, grid.n), dtype=complex)
    for k in range(grid.n):
        effects[k, k, k] = 1.0
    return SharpObservable._trusted(grid.positions, effects)


@dataclass(frozen=True)
class VonNeumannModel:
    """Approximate position measurement with coupling e^{-i lam Q (x) P_probe}.

    The pointer is the probe position relabeled by f(y) = y/lam, so the
    outcome estimates the object position as x + y0/lam; an even probe
    wavefunction makes the model unbiased.  ``coupling_error`` states the
    rule for lam.
    """

    object_grid: GridSystem
    probe_grid: GridSystem
    lam: float
    probe_psi: np.ndarray

    def __post_init__(self):
        psi = self.probe_grid.check_normalized(self.probe_psi)
        object.__setattr__(self, "probe_psi", psi)
        error = coupling_error(self.lam, self.object_grid.dx, self.probe_grid.dx)
        if error:
            raise ValueError(error)

    @property
    def shift_cells(self) -> np.ndarray:
        ratio = round(self.lam * self.object_grid.dx / self.probe_grid.dx)
        return (np.arange(self.object_grid.n) - self.object_grid.n // 2) * int(ratio)

    @property
    def probe_vector(self) -> np.ndarray:
        """The probe state phi as a unit vector."""
        return self.probe_psi / np.linalg.norm(self.probe_psi)

    def noise_distribution(self) -> Distribution:
        """The smearing measure: law of (probe position)/lam."""
        probs = np.abs(self.probe_psi) ** 2 * self.probe_grid.dx
        return make_distribution(self.probe_grid.positions / self.lam, probs / probs.sum())

    def shifted_probes(self) -> np.ndarray:
        """Shifted probe amplitudes: row j is T_j phi, (T_j phi)[l] = phi[(l - s_j) mod n_probe].

        s_j = shift_cells[j].  The coupling is U = sum_j |j><j| (x) T_j: on the
        grid, translating the probe by lam x_j is exactly the cyclic shift by
        s_j cells.
        """
        n = self.probe_grid.n
        return self.probe_vector[(np.arange(n) - self.shift_cells[:, None]) % n]

    def measured_distribution(self, psi) -> Distribution:
        """Pointer-label distribution for object state psi (fast route)."""
        psi = self.object_grid.check_normalized(psi)
        check_aliasing(self.object_grid, psi)
        weights = np.abs(psi) ** 2 * self.object_grid.dx
        out = weights @ np.abs(self.shifted_probes()) ** 2
        return make_distribution(self.probe_grid.positions / self.lam, out / out.sum())

    def induced_observable(self) -> Observable:
        """The observable of ``to_scheme()``, read off the shifts.

        Pointer cell l has the diagonal effect F_l = diag_j |T_j phi|^2_l, a
        smearing of Q, and the value y_l / lam; outcomes merge by
        ``merge_outcomes`` as in ``schemes.induced_observable``.
        """
        probs = np.abs(self.shifted_probes()) ** 2
        cells = np.arange(self.object_grid.n)
        effects = np.zeros((self.probe_grid.n, cells.size, cells.size), dtype=complex)
        effects[:, cells, cells] = probs.T
        return Observable._trusted(*merge_outcomes(self.probe_grid.positions / self.lam, effects))

    def eps_no_from_shifts(self, a, psi) -> float:
        """Noise-operator error of target a on the pure object state psi (scheme route).

        ||U^dag (1 (x) Z_f) U (psi (x) phi) - (a psi) (x) phi|| on the
        n_obj x n_probe array W[j] = psi_j T_j phi: scale by f, shift each row
        back by s_j, subtract.  ``to_scheme`` gives the same through
        ``errmetrics.eps_no_from_scheme`` on dense matrices.
        """
        a = opalg.check_hermitian(a)
        if a.shape[0] != self.object_grid.n:
            raise ValueError("target operator does not act on the object space")
        psi = self.object_grid.check_normalized(psi) * math.sqrt(self.object_grid.dx)
        n = self.probe_grid.n
        out = psi[:, None] * self.shifted_probes() * (self.probe_grid.positions / self.lam)
        out = np.take_along_axis(out, (np.arange(n) + self.shift_cells[:, None]) % n, axis=1)
        out -= (a @ psi)[:, None] * self.probe_vector
        return math.sqrt(float(np.vdot(out, out).real))

    def to_scheme(self) -> MeasurementScheme:
        """Dense measurement scheme on object (x) probe (small grids only).

        The coupling is block diagonal in the object position basis: block j
        translates the probe by lam * x_j.
        """
        no, np_ = self.object_grid.n, self.probe_grid.n
        error = dense_scheme_error(no, np_)
        if error:
            raise ValueError(error)
        f = dft_matrix(self.probe_grid)
        p = self.probe_grid.momenta
        u = np.zeros((no * np_, no * np_), dtype=complex)
        for j, x in enumerate(self.object_grid.positions):
            block = f.conj().T @ (np.exp(-1j * self.lam * x * p)[:, None] * f)
            u[j * np_ : (j + 1) * np_, j * np_ : (j + 1) * np_] = block
        sigma = np.outer(self.probe_psi, self.probe_psi.conj()) * self.probe_grid.dx
        sigma /= np.trace(sigma).real
        pointer = position_observable(self.probe_grid)
        return MeasurementScheme._trusted(sigma, u, pointer, self.probe_grid.positions / self.lam)
