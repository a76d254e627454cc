"""Measurement schemes on finite-dimensional systems.

A scheme is (probe state, unitary coupling on object (x) probe, sharp pointer
observable, pointer relabeling); it induces an observable on the object.
Builders cover the premeasurements of the scenario library: the identity
(uninformative) and swap schemes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import opalg
from .distributions import merge_outcomes
from .observables import Observable, SharpObservable


@dataclass(frozen=True)
class MeasurementScheme:
    """Probe state, unitary coupling, sharp pointer, pointer relabeling."""

    probe_state: np.ndarray
    coupling: np.ndarray
    pointer: SharpObservable
    pointer_values: np.ndarray | None = None  # labels aligned with pointer.outcomes

    def __post_init__(self):
        sigma = opalg.check_density(self.probe_state)
        u = opalg.check_unitary(self.coupling)
        d_probe = sigma.shape[0]
        if self.pointer.dim != d_probe:
            raise ValueError("pointer observable does not act on the probe space")
        if u.shape[0] % d_probe != 0:
            raise ValueError("coupling dimension is not a multiple of the probe dimension")
        if self.pointer_values is None:
            labels = self.pointer.outcomes.copy()
        else:
            labels = np.asarray(self.pointer_values, dtype=float).reshape(-1)
            if labels.size != self.pointer.n_outcomes:
                raise ValueError("pointer_values must label every pointer outcome")
            if not np.isfinite(labels).all():
                raise ValueError("pointer_values must be finite")
        object.__setattr__(self, "probe_state", sigma)
        object.__setattr__(self, "coupling", u)
        object.__setattr__(self, "pointer_values", labels)

    @classmethod
    def _trusted(cls, probe_state, coupling, pointer, pointer_values):
        """A scheme built from fields already known to be valid.

        Coerces like the public constructor and runs no check: only for
        schemes derived from validated objects.
        """
        scheme = object.__new__(cls)
        scheme.__dict__.update(
            probe_state=np.asarray(probe_state, dtype=complex),
            coupling=np.asarray(coupling, dtype=complex),
            pointer=pointer,
            pointer_values=np.asarray(pointer_values, dtype=float).reshape(-1),
        )
        return scheme

    @property
    def probe_dim(self) -> int:
        return self.probe_state.shape[0]

    @property
    def object_dim(self) -> int:
        return self.coupling.shape[0] // self.probe_dim

    def pointer_operator(self) -> np.ndarray:
        """Relabeled pointer operator sum_z f(z) Z(z) on the probe."""
        return pointer_operator(self.pointer_values, self.pointer.effects)

    def apply_output_operator(self, vec: np.ndarray) -> np.ndarray:
        """U^dag (1 (x) Z_f) U acting on a total-space vector (matvec path)."""
        do, dp = self.object_dim, self.probe_dim
        zf = self.pointer_operator()
        w = self.coupling @ vec
        w = (w.reshape(do, dp) @ zf.T).reshape(-1)
        return self.coupling.conj().T @ w


def pointer_operator(values, effects) -> np.ndarray:
    """sum_k values_k effects_k; stacks (..., n) and (..., n, d, d) give (..., d, d)."""
    return np.einsum("...k,...kij->...ij", values, effects)


def induced_observable(scheme: MeasurementScheme) -> Observable:
    """Observable measured by a scheme, its outcomes merged by ``merge_outcomes``.

    The pointer eigenvectors w_l come from one ``eigh`` of sum_k k Z(k), whose
    integer eigenvalues keep the eigenspaces of distinct outcomes apart.  Each
    outcome's effect is sum_l <w_l|Z(k)|w_l> F_l, so an outcome with a zero
    projection keeps a zero effect.
    """
    effects = scheme.pointer.effects
    _, basis = np.linalg.eigh(pointer_operator(np.arange(scheme.pointer.n_outcomes), effects))
    per_vector = induced_effects(
        scheme.coupling[None], scheme.probe_state[None], basis[None]
    )[0]
    weights = ((effects @ basis) * basis.conj()).sum(axis=-2).real
    raw_effects = np.tensordot(weights, per_vector, axes=1)
    return Observable._trusted(*merge_outcomes(scheme.pointer_values, raw_effects))


def induced_effects(coupling, probe_state, pointer_basis) -> np.ndarray:
    """F_l = Tr_probe[(1 (x) sigma) U^dag (1 (x) |w_l><w_l|) U] for stacked schemes.

    ``coupling`` (N, D, D), ``probe_state`` (N, d, d) and ``pointer_basis``
    (N, d, d), whose columns w_l are orthonormal pointer eigenvectors, give
    the Hermitian parts of the effects, (N, d, D/d, D/d), one per eigenvector.
    With V = (1 (x) W^dag) U, element-wise F_l[a,b] = sum over e,k,m of
    conj(V[(e,l),(a,k)]) V[(e,l),(b,m)] sigma[m,k]: the probe output is
    rotated and sigma applied once, then one (D/d x D) (D x D/d) product per
    eigenvector.
    """
    n, dp = probe_state.shape[:2]
    do = coupling.shape[-1] // dp
    v = opalg.dagger(pointer_basis)[:, None] @ coupling.reshape(n, do, dp, -1)
    # (e, l, b, m) -> (l, b, (e, m)); T = V (1 (x) sigma) then comes out in that order
    v_rows = v.reshape(n, do, dp, do, dp).transpose(0, 2, 3, 1, 4).reshape(n, dp, do, -1)
    t_rows = (v_rows.reshape(n, -1, dp) @ probe_state).reshape(n, dp, do, -1)
    # v is not read again, so its reordered rows are conjugated in place
    eff = np.conjugate(v_rows, out=v_rows) @ t_rows.swapaxes(-1, -2)
    return 0.5 * (eff + opalg.dagger(eff))


# ---------------------------------------------------------------------------
# Model library builders
# ---------------------------------------------------------------------------


def _premeasurement(a: SharpObservable, sigma, coupling) -> MeasurementScheme:
    """The scheme with pointer a on a probe in state sigma; only sigma is checked.

    The couplings of the builders below are the identity and a permutation,
    unitary by construction.
    """
    sigma = opalg.check_density(sigma)
    if sigma.shape != (a.dim, a.dim):
        raise ValueError("pointer observable does not act on the probe space")
    return MeasurementScheme._trusted(sigma, coupling, a, a.outcomes)


def identity_scheme(a: SharpObservable, sigma) -> MeasurementScheme:
    """Uninformative premeasurement: clone probe, trivial coupling, pointer A.

    The measured observable is trivial, F(X) = A_sigma(X) 1, and the state is
    untouched, so the disturbance vanishes for every observable and state.
    """
    return _premeasurement(a, sigma, np.eye(a.dim * a.dim, dtype=complex))


def swap_unitary(d: int) -> np.ndarray:
    u = np.zeros((d * d, d * d), dtype=complex)
    for i in range(d):
        for j in range(d):
            u[j * d + i, i * d + j] = 1.0
    return u


def swap_scheme(a: SharpObservable, sigma) -> MeasurementScheme:
    """Swap premeasurement: measures A exactly, replaces the state by sigma."""
    return _premeasurement(a, sigma, swap_unitary(a.dim))
