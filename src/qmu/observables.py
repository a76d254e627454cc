"""Finite-outcome POVMs with real outcome values.

An observable is a strictly increasing outcome list paired with positive
effects summing to the identity.  Sharp observables carry the extra
projection structure; Bloch-parametrized qubit observables and the
three-outcome unbiased qubit POVM used throughout the scenario library get
dedicated constructors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import opalg
from .distributions import Distribution, merge_outcomes

TOL_EFFECT = 1e-12        # effect eigenvalue window [-tol, 1+tol]
TOL_SUM = 1e-10           # effects must sum to identity within this
TOL_PROJ = 1e-10          # projection / orthogonality tolerance
TOL_COMMUTE = 1e-10       # commutator norm below which a pair counts as commuting


class Observable:
    """POVM on a finite real outcome set."""

    def __init__(self, outcomes, effects):
        outcomes = np.asarray(outcomes, dtype=float).reshape(-1)
        effects = np.asarray(effects, dtype=complex)
        if effects.ndim != 3 or effects.shape[0] != outcomes.size:
            raise ValueError("effects must be a (n_outcomes, d, d) array")
        if effects.shape[1] != effects.shape[2]:
            raise ValueError("effects must be square")
        if outcomes.size == 0:
            raise ValueError("observable needs at least one outcome")
        if not np.isfinite(outcomes).all():
            raise ValueError("outcomes must be finite")
        if np.any(outcomes[1:] <= outcomes[:-1]):
            raise ValueError("outcomes must be strictly increasing")
        self.outcomes = outcomes
        self.effects = effects
        self._validate()

    @classmethod
    def _trusted(cls, outcomes, effects):
        """An observable built from fields already known to be valid.

        Coerces like the public constructor and runs no check: only for
        results derived from validated objects.
        """
        obs = cls.__new__(cls)
        obs.outcomes = np.asarray(outcomes, dtype=float).reshape(-1)
        obs.effects = np.asarray(effects, dtype=complex)
        return obs

    def _validate(self):
        check_effects(self.effects)

    @property
    def dim(self) -> int:
        return self.effects.shape[1]

    @property
    def n_outcomes(self) -> int:
        return self.outcomes.size

    def __repr__(self):
        return f"{type(self).__name__}(outcomes={self.outcomes.tolist()}, dim={self.dim})"


class SharpObservable(Observable):
    """Projection-valued observable (spectral measure)."""

    def _validate(self):
        super()._validate()
        check_projections(self.effects)


def check_effects(effects) -> None:
    """Validate POVM effects (n, d, d), or a stack (..., n, d, d) of effect lists.

    Each effect is Hermitian with spectrum in [0, 1], and the effects of a
    list sum to the identity.
    """
    opalg.check_hermitian(effects)
    evals = np.linalg.eigvalsh(effects)
    low, high = evals.min(axis=-1), evals.max(axis=-1)
    bad = (low < -TOL_EFFECT) | (high > 1 + TOL_EFFECT)
    if bad.any():
        *_, k = np.unravel_index(np.argmax(bad), bad.shape)
        raise ValueError(
            f"effect {k} has eigenvalues outside [0, 1]: "
            f"[{low[bad].min():.3e}, {high[bad].max():.3e}]"
        )
    total = effects.sum(axis=-3) - np.eye(effects.shape[-1])
    dev = np.linalg.norm(total, axis=(-2, -1)).max()
    if dev > TOL_SUM:
        raise ValueError(f"effects do not sum to identity (deviation {dev:.3e})")


def check_projections(effects) -> None:
    """Validate that effects (..., n, d, d) are mutually orthogonal projections."""
    for k in range(effects.shape[-3]):
        prods = effects[..., k:k + 1, :, :] @ effects[..., k:, :, :]
        prods[..., 0, :, :] -= effects[..., k, :, :]
        devs = np.linalg.norm(prods, axis=(-2, -1)).reshape(-1, prods.shape[-3]).max(axis=0)
        if devs[0] > TOL_PROJ:
            raise ValueError(f"effect {k} is not a projection")
        if devs.size > 1 and devs[1:].max() > TOL_PROJ:
            l = k + 1 + int(np.argmax(devs[1:] > TOL_PROJ))
            raise ValueError(f"effects {k} and {l} are not orthogonal")


@dataclass(frozen=True)
class BlochObservable:
    """Two-outcome qubit POVM with effects (1 - C_plus, C_plus), outcomes -/+1.

    C_plus = (c0*1 + c.sigma)/2; positivity of both effects is equivalent to
    ||c|| <= min(c0, 2 - c0).
    """

    c0: float
    c: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.c, dtype=float).reshape(3)
        object.__setattr__(self, "c", c)
        bound = min(self.c0, 2.0 - self.c0)
        if np.linalg.norm(c) > bound + 1e-12:
            raise ValueError(
                f"positivity violated: ||c|| = {np.linalg.norm(c):.6f} > "
                f"min(c0, 2 - c0) = {bound:.6f}"
            )
        if not (np.isfinite(self.c0) and np.isfinite(c).all()):  # NaN passes the test above
            raise ValueError("c0 and c must be finite")

    def to_observable(self) -> Observable:
        c_plus = 0.5 * (self.c0 * np.eye(2, dtype=complex) + opalg.bloch_operator(self.c))
        c_minus = np.eye(2, dtype=complex) - c_plus
        return Observable._trusted([-1.0, 1.0], np.stack([c_minus, c_plus]))


QUBIT_TRIPLE_GAMMA = 2.0 - np.sqrt(2.0)


def qubit_triple() -> Observable:
    """Three-outcome unbiased qubit POVM with rank-1 effects.

    Outcomes (+1, -1, 0) carry effects g*(1+sigma1)/2, g*(1+sigma2)/2 and
    2(1-g)*(1 - (sigma1+sigma2)/sqrt(2))/2 with g = 2 - sqrt(2); stored on
    the sorted outcome grid (-1, 0, +1).  A valid POVM by construction, so
    built unchecked.
    """
    g = QUBIT_TRIPLE_GAMMA
    eye = np.eye(2, dtype=complex)
    c_plus = g * 0.5 * (eye + opalg.SIGMA_X)
    c_minus = g * 0.5 * (eye + opalg.SIGMA_Y)
    c_zero = 2 * (1 - g) * 0.5 * (eye - (opalg.SIGMA_X + opalg.SIGMA_Y) / np.sqrt(2))
    return Observable._trusted([-1.0, 0.0, 1.0], np.stack([c_minus, c_zero, c_plus]))


def spectral_measure(op) -> SharpObservable:
    """Spectral measure of a Hermitian operator.

    Eigenvalues merged by ``merge_outcomes`` form one outcome, their
    eigenprojections summed.  Only the projections |v><v| are returned, and
    they do not depend on the eigenvector phases, so the phases are not fixed.
    """
    evals, evecs = np.linalg.eigh(opalg.check_hermitian(op))
    projections = evecs.T[:, :, None] * evecs.T.conj()[:, None, :]
    return SharpObservable._trusted(*merge_outcomes(evals, projections))


def moment_operator(obs: Observable, n: int) -> np.ndarray:
    """n-th moment operator: sum of x^n F(x)."""
    if n < 1:
        raise ValueError("moment order must be >= 1")
    return effect_moment(obs.outcomes, obs.effects, n)


def effect_moment(values, effects, n: int) -> np.ndarray:
    """Hermitian part of sum_k values_k^n effects_k; stacks (..., n_k) and (..., n_k, d, d)."""
    mom = np.einsum("...k,...kij->...ij", values**n, effects)
    return 0.5 * (mom + opalg.dagger(mom))


def intrinsic_noise(obs: Observable) -> np.ndarray:
    """Intrinsic noise operator: second moment minus squared first moment."""
    m1 = moment_operator(obs, 1)
    return moment_operator(obs, 2) - m1 @ m1


def smear(obs: Observable, mu: Distribution) -> Observable:
    """Convolution observable: outcome sums x+y weighted by mu(y) F(x).

    Sums merged by ``merge_outcomes`` form one outcome, zero-weight ones kept.
    """
    sums = (mu.support[:, None] + obs.outcomes[None, :]).reshape(-1)
    mats = (mu.probs[:, None, None, None] * obs.effects[None]).reshape(-1, obs.dim, obs.dim)
    return Observable._trusted(*merge_outcomes(sums, mats))


def distribution_of(obs: Observable, rho) -> Distribution:
    """Born-rule outcome distribution of an observable in a state."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (obs.dim, obs.dim):
        raise ValueError(f"state dimension {rho.shape} does not match observable dim {obs.dim}")
    return Distribution(obs.outcomes, born_probabilities(rho, obs.effects))


def born_probabilities(rho, effects) -> np.ndarray:
    """Checked Born probabilities tr(rho E_k), clipped to [0, 1].

    ``rho`` (..., d, d) is a state or a stack of states; ``effects``
    (..., k, d, d) is one effect list for them all or one per state.
    Returns (..., k) rows, each checked to be nonnegative and to sum to one.
    """
    probs = np.einsum("...ij,...kji->...k", rho, effects).real
    if probs.min() < -1e-12:
        raise ValueError(f"negative Born probability {probs.min():.3e}")
    probs = probs.clip(0.0, 1.0)
    total = probs.sum(axis=-1)
    off = np.abs(total - 1.0)
    if off.max() > 1e-10:
        raise ValueError(f"Born probabilities sum to {float(total.flat[off.argmax()])!r}")
    return probs


def pure_states(psi) -> np.ndarray:
    """Density operators |psi><psi| of a vector or of each row of a stack (..., d)."""
    return psi[..., :, None] * psi[..., None, :].conj()


def distribution_of_pure(obs: Observable, psi) -> Distribution:
    return distribution_of(obs, pure_states(np.asarray(psi, dtype=complex).reshape(-1)))


@dataclass(frozen=True)
class BiProbabilityTable:
    """Real bimeasure table over a product of finite outcome sets.

    ``values[j, k]`` is the (possibly negative) weight for the outcome pair
    (row_outcomes[j], col_outcomes[k]).  ``commuting`` records whether every
    effect pair commuted within tolerance; when it did, the table is a
    genuine coupling of its marginals.
    """

    row_outcomes: np.ndarray
    col_outcomes: np.ndarray
    values: np.ndarray
    commuting: bool

    @property
    def min_entry(self) -> float:
        return float(self.values.min())

    @property
    def has_negative_entry(self) -> bool:
        return self.min_entry < -1e-10

    def value_deviation_squared(self) -> float:
        diff = self.row_outcomes[:, None] - self.col_outcomes[None, :]
        return float(np.sum(diff**2 * self.values))


def product_biobservable(a: SharpObservable, c: Observable, rho) -> BiProbabilityTable:
    """Bimeasure (x, y) -> Re tr(rho A(x) C(y)).

    Row sums give the C distribution, column sums the A distribution.  When
    all effect pairs commute the entries are genuine joint probabilities;
    otherwise negative entries may occur and are reported, not rejected.

    The commutators are read off C's effects in the eigenbasis of A, taken
    from one ``eigh`` of sum_k k A(k): with S_x the basis vectors of A(x),
    ||[A(x), C(y)]||_F^2 = 2 sum over i in S_x, j not in S_x of |C(y)_ij|^2.
    """
    if a.dim != c.dim:
        raise ValueError("observables act on different dimensions")
    rho = np.asarray(rho, dtype=complex)
    values = np.einsum("ij,xjk,yki->xy", rho, a.effects, c.effects, optimize=True).real
    labels, basis = np.linalg.eigh(effect_moment(np.arange(a.n_outcomes), a.effects, 1))
    inside = (np.rint(labels) == np.arange(a.n_outcomes)[:, None]).astype(float)  # i in S_x
    weights = np.abs(opalg.dagger(basis) @ c.effects @ basis) ** 2  # (n_y, d, d)
    across = np.einsum("xi,yix->xy", inside, weights @ (1.0 - inside.T))
    commuting = bool(np.sqrt(2.0 * across.max()) <= TOL_COMMUTE)
    return BiProbabilityTable(a.outcomes.copy(), c.outcomes.copy(), values, commuting)
