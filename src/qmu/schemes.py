"""Measurement schemes and instruments on finite-dimensional systems.

A scheme is (probe state, unitary coupling on object (x) probe, sharp pointer
observable, pointer relabeling); it induces an observable on the object and
an instrument in operator-sum form.  Builders cover the model library used
by the scenario suite: identity and swap premeasurements, Lueders
instruments, and constant-channel instruments.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import opalg
from .distributions import merge_groups, merge_outcomes
from .observables import (
    BiProbabilityTable,
    Observable,
    SharpObservable,
    TOL_COMMUTE,
    check_effects,
    check_projections,
)

TOL_KRAUS = 1e-10         # completeness of an instrument's Kraus sets
KRAUS_TRUNCATION = 1e-12  # spectral weight below which Kraus components drop


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
        object.__setattr__(self, "probe_state", sigma)
        object.__setattr__(self, "coupling", u)
        object.__setattr__(self, "pointer_values", labels)

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


def check_scheme_stack(coupling, probe_state, pointer_effects) -> None:
    """Validate stacked schemes as MeasurementScheme validates one.

    ``coupling`` (N, D, D) must be unitary, ``probe_state`` (N, d, d) a
    density operator, and ``pointer_effects`` (N, n, d, d) the mutually
    orthogonal projections of a sharp pointer on the probe, with D a
    multiple of d.
    """
    if pointer_effects.shape[-1] != probe_state.shape[-1]:
        raise ValueError("pointer observable does not act on the probe space")
    if coupling.shape[-1] % probe_state.shape[-1] != 0:
        raise ValueError("coupling dimension is not a multiple of the probe dimension")
    opalg.check_unitary(coupling)
    opalg.check_density(probe_state)
    check_effects(pointer_effects)
    check_projections(pointer_effects)


@dataclass(frozen=True)
class Instrument:
    """Outcome-indexed completely positive maps in operator-sum form."""

    outcomes: np.ndarray
    kraus_sets: tuple

    def __post_init__(self):
        outcomes = np.asarray(self.outcomes, dtype=float).reshape(-1)
        if np.any(np.diff(outcomes) <= 0):
            raise ValueError("instrument outcomes must be strictly increasing")
        sets = tuple(tuple(np.asarray(k, dtype=complex) for k in ks) for ks in self.kraus_sets)
        if len(sets) != outcomes.size:
            raise ValueError("one Kraus set per outcome required")
        nonempty = [ks for ks in sets if ks]
        if not nonempty:
            raise ValueError("instrument has no Kraus operators")
        d = nonempty[0][0].shape[0]
        total = np.zeros((d, d), dtype=complex)
        for ks in sets:
            for k in ks:
                if k.shape != (d, d):
                    raise ValueError("all Kraus operators must share one square shape")
                total += k.conj().T @ k
        if np.linalg.norm(total - np.eye(d)) > TOL_KRAUS:
            raise ValueError("Kraus sets are not complete (sum K^dag K != 1)")
        object.__setattr__(self, "outcomes", outcomes)
        object.__setattr__(self, "kraus_sets", sets)

    @property
    def dim(self) -> int:
        return next(ks for ks in self.kraus_sets if ks)[0].shape[0]

    def apply(self, k: int, rho: np.ndarray) -> np.ndarray:
        """Unnormalized conditional output state for outcome index k."""
        out = np.zeros_like(np.asarray(rho, dtype=complex))
        for kr in self.kraus_sets[k]:
            out += kr @ rho @ kr.conj().T
        return out

    def total_channel(self, rho: np.ndarray) -> np.ndarray:
        out = np.zeros_like(np.asarray(rho, dtype=complex))
        for k in range(self.outcomes.size):
            out += self.apply(k, rho)
        return out

    def dual_total(self, op: np.ndarray) -> np.ndarray:
        """Heisenberg-picture total channel applied to an operator."""
        out = np.zeros_like(np.asarray(op, dtype=complex))
        for ks in self.kraus_sets:
            for k in ks:
                out += k.conj().T @ op @ k
        return out

    def observable(self) -> Observable:
        effects = []
        for ks in self.kraus_sets:
            eff = np.zeros((self.dim, self.dim), dtype=complex)
            for k in ks:
                eff += k.conj().T @ k
            effects.append(0.5 * (eff + eff.conj().T))
        return Observable(self.outcomes, np.stack(effects))


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
    return Observable(*merge_outcomes(scheme.pointer_values, raw_effects))


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


def _canonical_kraus(raw, truncation=KRAUS_TRUNCATION):
    """Deterministic minimal Kraus set with the Choi spectrum.

    Works on the Gram matrix tr(K_i^dag K_j), which shares its nonzero
    spectrum and canonical combinations with the Choi eigendecomposition.
    """
    r = len(raw)
    if r == 0:
        return []
    mats = np.stack(raw)
    gram = np.einsum("iab,jab->ij", mats.conj(), mats)
    evals, evecs = opalg.eig_hermitian(gram)
    out = []
    for k in range(r - 1, -1, -1):
        if evals[k] < truncation:
            continue
        combo = np.einsum("i,iab->ab", evecs[:, k], mats)
        idx = np.unravel_index(np.argmax(np.abs(combo)), combo.shape)
        pivot = combo[idx]
        if abs(pivot) > 0:
            combo *= pivot.conj() / abs(pivot)
        out.append(combo)
    return out


def induced_instrument(scheme: MeasurementScheme) -> Instrument:
    """Instrument of a scheme in operator-sum form.

    Raw Kraus operators come from eigenvector slices of the coupling; the
    canonical form collapses each outcome's set to the Choi-spectrum basis
    with components below the truncation threshold dropped.
    """
    do, dp = scheme.object_dim, scheme.probe_dim
    u4 = scheme.coupling.reshape(do, dp, do, dp)
    s_evals, s_evecs = opalg.eig_hermitian(scheme.probe_state)
    raw_per_pointer = []
    for p in scheme.pointer.effects:
        p_evals, p_evecs = opalg.eig_hermitian(p)
        raw = []
        for pe, k in zip(p_evals, range(p_evals.size)):
            if pe < 0.5:  # projection eigenvalues are 0 or 1
                continue
            phi = p_evecs[:, k]
            for se, mcol in zip(s_evals, range(s_evals.size)):
                if se < KRAUS_TRUNCATION:
                    continue
                w = s_evecs[:, mcol]
                kr = np.sqrt(se) * np.einsum("l,albp,p->ab", phi.conj(), u4, w)
                raw.append(kr)
        raw_per_pointer.append(raw)
    labels = scheme.pointer_values
    order, starts = merge_groups(labels)
    kraus_sets = [
        _canonical_kraus([k for idx in group for k in raw_per_pointer[idx]])
        for group in np.split(order, starts[1:])
    ]
    return Instrument(labels[order][starts], kraus_sets)


def distorted_observable(instrument: Instrument, obs: Observable) -> Observable:
    """Observable after the instrument's total channel (Heisenberg picture)."""
    if obs.dim != instrument.dim:
        raise ValueError("observable and instrument dimensions differ")
    effects = []
    for eff in obs.effects:
        out = instrument.dual_total(eff)
        effects.append(0.5 * (out + out.conj().T))
    return Observable(obs.outcomes, np.stack(effects))


def sequential_biobservable(
    instrument: Instrument, obs: Observable, rho
) -> tuple[BiProbabilityTable, np.ndarray]:
    """Sequential biobservable E(x, y) = I(x)^*(G(y)) and its table in rho.

    Returns the joint probability table (genuinely nonnegative, since the
    joint effects are positive) and the effect array of shape
    (n_x, n_y, d, d).  Marginal 1 is the instrument's observable, marginal 2
    the distorted version of ``obs``.
    """
    if obs.dim != instrument.dim:
        raise ValueError("observable and instrument dimensions differ")
    rho = np.asarray(rho, dtype=complex)
    nx, ny, d = instrument.outcomes.size, obs.n_outcomes, instrument.dim
    joint = np.zeros((nx, ny, d, d), dtype=complex)
    for x in range(nx):
        for y in range(ny):
            e = np.zeros((d, d), dtype=complex)
            for k in instrument.kraus_sets[x]:
                e += k.conj().T @ obs.effects[y] @ k
            joint[x, y] = 0.5 * (e + e.conj().T)
    values = np.einsum("ij,xyji->xy", rho, joint).real
    first = instrument.observable()
    commuting = all(
        np.linalg.norm(a @ b - b @ a) <= TOL_COMMUTE
        for a in first.effects
        for b in obs.effects
    )
    table = BiProbabilityTable(
        instrument.outcomes.copy(), obs.outcomes.copy(), values, commuting
    )
    return table, joint


def three_step_value_table(
    b: SharpObservable, instrument: Instrument, rho
) -> BiProbabilityTable:
    """Value-comparison table for disturbance: Lueders B, then the channel, then B.

    Pr(x, y) = tr[B(y) Phi(B(x) rho B(x))] with Phi the instrument's total
    channel.  When the distorted observable commutes with B, the squared
    value deviation of this table reproduces the noise-operator disturbance.
    """
    rho = np.asarray(rho, dtype=complex)
    nx = b.n_outcomes
    values = np.zeros((nx, nx))
    distorted = distorted_observable(instrument, b)
    for x in range(nx):
        conditioned = b.effects[x] @ rho @ b.effects[x]
        evolved = instrument.total_channel(conditioned)
        for y in range(nx):
            values[x, y] = float(np.trace(b.effects[y] @ evolved).real)
    commuting = all(
        np.linalg.norm(p @ q - q @ p) <= TOL_COMMUTE
        for p in b.effects
        for q in distorted.effects
    )
    return BiProbabilityTable(b.outcomes.copy(), b.outcomes.copy(), values, commuting)


# ---------------------------------------------------------------------------
# Model library builders
# ---------------------------------------------------------------------------


def luders_instrument(a: SharpObservable) -> Instrument:
    """Instrument whose Kraus operators are the spectral projections."""
    return Instrument(a.outcomes, tuple((eff,) for eff in a.effects))


def constant_channel_instrument(obs: Observable, rho0) -> Instrument:
    """Instrument I(x)(rho) = tr(rho F(x)) rho0."""
    rho0 = opalg.check_density(rho0)
    r_evals, r_evecs = opalg.eig_hermitian(rho0)
    kraus_sets = []
    for eff in obs.effects:
        f_evals, f_evecs = opalg.eig_hermitian(eff)
        ks = []
        for fe, i in zip(f_evals, range(f_evals.size)):
            if fe < KRAUS_TRUNCATION:
                continue
            for re, j in zip(r_evals, range(r_evals.size)):
                if re < KRAUS_TRUNCATION:
                    continue
                ks.append(np.sqrt(fe * re) * np.outer(r_evecs[:, j], f_evecs[:, i].conj()))
        kraus_sets.append(ks)
    return Instrument(obs.outcomes, kraus_sets)


def identity_scheme(a: SharpObservable, sigma) -> MeasurementScheme:
    """Uninformative premeasurement: clone probe, trivial coupling, pointer A.

    The measured observable is trivial, F(X) = A_sigma(X) 1, and the state is
    untouched, so the disturbance vanishes for every observable and state.
    """
    d = a.dim
    return MeasurementScheme(
        probe_state=np.asarray(sigma, dtype=complex),
        coupling=np.eye(d * d, dtype=complex),
        pointer=a,
    )


def swap_unitary(d: int) -> np.ndarray:
    u = np.zeros((d * d, d * d), dtype=complex)
    for i in range(d):
        for j in range(d):
            u[j * d + i, i * d + j] = 1.0
    return u


def swap_scheme(a: SharpObservable, sigma) -> MeasurementScheme:
    """Swap premeasurement: measures A exactly, replaces the state by sigma."""
    d = a.dim
    return MeasurementScheme(
        probe_state=np.asarray(sigma, dtype=complex),
        coupling=swap_unitary(d),
        pointer=a,
    )


def luders_scheme(a: SharpObservable) -> MeasurementScheme:
    """Standard premeasurement realizing the Lueders instrument of a sharp A.

    Probe dimension equals the outcome count, probe starts in |0>, the
    coupling shifts the probe conditionally on the spectral projection, and
    the pointer is the probe basis relabeled by the eigenvalues.
    """
    n, d = a.n_outcomes, a.dim
    shift = np.zeros((n, n), dtype=complex)
    for k in range(n):
        shift[(k + 1) % n, k] = 1.0
    u = np.zeros((d * n, d * n), dtype=complex)
    power = np.eye(n, dtype=complex)
    for k in range(n):
        u += opalg.tensor(a.effects[k], power)
        power = shift @ power
    sigma = np.zeros((n, n), dtype=complex)
    sigma[0, 0] = 1.0
    basis_effects = np.stack([np.diag(np.eye(n)[k]).astype(complex) for k in range(n)])
    pointer = SharpObservable(np.arange(n, dtype=float), basis_effects)
    return MeasurementScheme(
        probe_state=sigma,
        coupling=u,
        pointer=pointer,
        pointer_values=a.outcomes.copy(),
    )
