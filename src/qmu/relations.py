"""Uncertainty-relation checkers and qubit joint-measurability machinery.

Every checker returns a RelationVerdict with both sides, the slack and the
witnesses that produced them.  The falsifiable relation (plain product of
noise-operator error and disturbance) must be violated on the bundled
uninformative and swap models; the proven relations must never report a
violation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import opalg
from .errmetrics import moment_form_eps
from .grid import GridSystem, phase_space_marginals
from .observables import effect_moment
from .opalg import expectation, spread
from .schemes import MeasurementScheme

SLACK_TOL = 1e-9
PSD_TOL = 1e-10
PURITY_TOL = 1e-8   # |tr rho^2 - 1| of a pure state


@dataclass(frozen=True)
class RelationVerdict:
    """Both sides of a relation; floats, or (n,) arrays from stacked figures."""

    relation: str
    lhs: float
    rhs: float
    witnesses: dict = field(default_factory=dict)
    note: str | None = None

    @property
    def slack(self) -> float:
        return self.lhs - self.rhs

    @property
    def holds(self) -> bool:
        return self.slack >= -SLACK_TOL

    def __repr__(self):
        status = "holds" if self.holds else "VIOLATED"
        return (
            f"RelationVerdict({self.relation}: lhs={self.lhs:.6g}, "
            f"rhs={self.rhs:.6g}, {status})"
        )


def commutator_expectation(a, b, rho):
    """|tr(rho [A, B])| for Hermitian a, b; stacks (..., d, d) give an array."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    value = np.abs(np.einsum("...ij,...ji->...", np.asarray(rho, dtype=complex), a @ b - b @ a))
    return value if value.ndim else float(value)


def check_purity(rho) -> np.ndarray:
    rho = opalg.check_density(rho)
    purity = float(np.trace(rho @ rho).real)
    if abs(purity - 1.0) > PURITY_TOL:
        raise ValueError(f"pure state required (tr rho^2 = {purity!r})")
    return rho


# ---------------------------------------------------------------------------
# Verdict cores: one formula per relation, on floats or on (N,) arrays
# ---------------------------------------------------------------------------


def ozawa_verdict(eps, eta, dev_a, dev_b, comm) -> RelationVerdict:
    """Error-disturbance relation: eps*eta + eps*Delta(B) + Delta(A)*eta >= comm/2."""
    lhs = eps * eta + eps * dev_b + dev_a * eta
    return RelationVerdict("ozawa", lhs, 0.5 * comm,
                           {"eps": eps, "eta": eta, "dev_a": dev_a, "dev_b": dev_b})


def naive_product_verdict(eps, eta, comm) -> RelationVerdict:
    """The plain product bound eps*eta >= comm/2 (fails in general)."""
    return RelationVerdict("naive-product", eps * eta, 0.5 * comm, {"eps": eps, "eta": eta})


def branciard_verdict(eps_a, eps_b, dev_a, dev_b, comm, witnesses=None) -> RelationVerdict:
    """Tight pure-state relation on both errors and spreads; witnesses default to the errors."""
    cross = opalg.sqrt_clamped(dev_a**2 * dev_b**2 - 0.25 * comm**2)
    lhs = (
        eps_a**2 * dev_b**2
        + eps_b**2 * dev_a**2
        + 2.0 * cross * eps_a * eps_b
    )
    if witnesses is None:
        witnesses = {"eps_a": eps_a, "eps_b": eps_b}
    return RelationVerdict("branciard", lhs, 0.25 * comm**2, witnesses)


def unbiased_verdicts(comm, noise_c, noise_d, dev_c, dev_d, eps_a,
                      eps_b) -> dict[str, RelationVerdict]:
    """Trade-offs of an unbiased joint approximation, from its figures.

    The intrinsic-noise product, the output-spread product (implemented
    verbatim with bound |tr rho [A,B]|, no factor 1/2 — flagged in the
    note), and the noise-error product.
    """
    return {
        "unbiased-intrinsic-noise": RelationVerdict(
            "unbiased-intrinsic-noise", noise_c * noise_d, 0.25 * comm**2,
            {"noise_c": noise_c, "noise_d": noise_d},
        ),
        "unbiased-output-spread": RelationVerdict(
            "unbiased-output-spread", dev_c * dev_d, comm,
            {"dev_c": dev_c, "dev_d": dev_d},
            note="bound implemented verbatim as |tr rho[A,B]| without the usual 1/2",
        ),
        "unbiased-error-product": RelationVerdict(
            "unbiased-error-product", eps_a * eps_b, 0.5 * comm,
            {"eps_a": eps_a, "eps_b": eps_b},
        ),
    }


def qubit_epsno_sum_verdict(a, b, c, d) -> RelationVerdict:
    """Summed covariant noise errors against half the incompatibility bound.

    The covariant marginal with Bloch vector c approximating the target a
    has the state-independent error sqrt(1 - |c|^2 + |a - c|^2).  Rows of
    (N, 3) arrays give (N,) sides.
    """
    eps_a, eps_b = _covariant_eps(a, c), _covariant_eps(b, d)
    return RelationVerdict(
        "qubit-error-sum", eps_a + eps_b, qubit_incompatibility_bound(a, b) / 2.0,
        {"eps_a": eps_a, "eps_b": eps_b},
    )


def _covariant_eps(target, marginal):
    return opalg.sqrt_clamped(
        1 - _dot(marginal, marginal) + _dot(target - marginal, target - marginal)
    )


def _dot(u, v):
    return np.einsum("...k,...k->...", u, v)


# ---------------------------------------------------------------------------
# Scheme-level checkers
# ---------------------------------------------------------------------------


def error_disturbance_figures(u, sigma, zf, a, b, rho) -> tuple[np.ndarray, ...]:
    """(eps, eta, dev_a, dev_b, comm) of n stacked schemes: every input of the scheme relations.

    ``u`` (n, D, D) couples object and probe, ``sigma`` (n, d, d) is the probe
    state and ``zf`` (n, d, d) the relabeled pointer operator; ``a``, ``b``
    and ``rho`` (n, D/d, D/d) are the targets and the object state.  With the
    noise operator N(A) = U^dag (1 (x) Z_f) U - A (x) 1 and the disturbance
    operator D(B) = U^dag (B (x) 1) U - B (x) 1, eps^2 = <N(A)^dag N(A)> and
    eta^2 = <D(B)^dag D(B)> in rho (x) sigma.  The spreads of a and b and
    |tr(rho [A, B])| complete the tuple: five (n,) arrays, in the order of
    the verdict cores' arguments.  Nothing is checked here: ``scheme_figures``
    checks the targets of one scheme, and the suites draw valid stacks.
    """
    b_total = opalg.tensor(b, np.eye(sigma.shape[-1]))
    disturbance = opalg.dagger(u) @ b_total @ u - b_total
    return (scheme_noise_error(u, sigma, zf, a, rho),
            _rms(disturbance, opalg.tensor(rho, sigma)),
            spread(a, rho), spread(b, rho), commutator_expectation(a, b, rho))


def scheme_noise_error(u, sigma, zf, a, rho) -> np.ndarray:
    """eps of n stacked schemes alone: the first of ``error_disturbance_figures``."""
    noise = (opalg.dagger(u) @ opalg.tensor(np.eye(a.shape[-1]), zf) @ u
             - opalg.tensor(a, np.eye(sigma.shape[-1])))
    return _rms(noise, opalg.tensor(rho, sigma))


def _rms(op, state):
    """sqrt <op^dag op> in each state of a stack."""
    return opalg.sqrt_clamped(expectation(opalg.dagger(op) @ op, state))


def scheme_figures(scheme: MeasurementScheme, a, b, rho) -> tuple[float, ...]:
    """``error_disturbance_figures`` of one scheme, as floats.

    Raises ValueError unless a and b are Hermitian on the object space.
    """
    a, b = opalg.check_hermitian(a), opalg.check_hermitian(b)
    dim_o = scheme.object_dim
    if a.shape != (dim_o, dim_o) or b.shape != (dim_o, dim_o):
        raise ValueError("target operators do not act on the object space of the coupling")
    figures = error_disturbance_figures(
        scheme.coupling[None], scheme.probe_state[None], scheme.pointer_operator()[None],
        a[None], b[None], np.asarray(rho, dtype=complex)[None],
    )
    return tuple(float(f[0]) for f in figures)


def check_ozawa(scheme: MeasurementScheme, a, b, rho) -> RelationVerdict:
    return ozawa_verdict(*scheme_figures(scheme, a, b, rho))


def check_naive_heisenberg(scheme: MeasurementScheme, a, b, rho) -> RelationVerdict:
    eps, eta, _, _, comm = scheme_figures(scheme, a, b, rho)
    return naive_product_verdict(eps, eta, comm)


def check_branciard_scheme(scheme: MeasurementScheme, a, b, rho) -> RelationVerdict:
    """Error-disturbance form: the second error is the disturbance of b."""
    return branciard_verdict(*scheme_figures(scheme, a, b, check_purity(rho)))


# ---------------------------------------------------------------------------
# Qubit joint models
# ---------------------------------------------------------------------------


def check_joint_effects(c, d, gamma0) -> None:
    """Raise unless every joint effect of every (c, d, gamma0) row is positive.

    Rows are c, d (..., 3) and gamma0 (...).  G_jk has the smallest
    eigenvalue (1 + j*k*gamma0 - ||j c + k d||)/4, so the smallest over the
    four effects of a row is min(gamma0 - lo, hi - gamma0)/4 with [lo, hi]
    its ``gamma0_interval``.  A NaN anywhere fails the check.
    """
    lo, hi = gamma0_interval(c, d)
    worst = np.min(np.minimum(gamma0 - lo, hi - gamma0)) / 4
    if not worst >= -PSD_TOL:
        raise ValueError(f"joint effect not positive (min eigenvalue {worst:.3e})")


def gamma0_interval(c, d) -> tuple[np.ndarray, np.ndarray]:
    """Bounds of ||c + d|| - 1 <= gamma0 <= 1 - ||c - d|| for (..., 3) c and d.

    The interval is nonempty exactly when ||c + d|| + ||c - d|| <= 2.
    """
    c, d = np.asarray(c, dtype=float), np.asarray(d, dtype=float)
    return np.linalg.norm(c + d, axis=-1) - 1.0, 1.0 - np.linalg.norm(c - d, axis=-1)


@dataclass(frozen=True)
class QubitJointModel:
    """Covariant joint approximator pair on a qubit.

    Joint effects G_jk = [(1 + j*k*gamma0) 1 + (j c + k d).sigma]/4 for
    j, k = +/-1; the marginals are the covariant approximators with Bloch
    vectors c and d of the unit targets a and b.  Construction rejects a
    non-finite field, a non-unit target, and a gamma0 more than 4 PSD_TOL
    outside ``gamma0_interval(c, d)``, where some effect has an eigenvalue
    below -PSD_TOL (``check_joint_effects``).
    """

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    d: np.ndarray
    gamma0: float

    def __post_init__(self):
        for name in ("a", "b", "c", "d"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float).reshape(3))
        if not np.isfinite([*self.a, *self.b, *self.c, *self.d, self.gamma0]).all():
            raise ValueError("joint model fields must be finite")
        for name in ("a", "b"):
            if not abs(np.linalg.norm(getattr(self, name)) - 1.0) <= 1e-9:
                raise ValueError(f"target vector {name} must be a unit vector")
        check_joint_effects(self.c, self.d, self.gamma0)


def qubit_joint_feasible(c, d, a, b) -> QubitJointModel | None:
    """The covariant joint model of marginals (c, d) for targets (a, b), or None.

    None means (c, d) is not jointly measurable: ``gamma0_interval`` is empty,
    that is ||c+d|| + ||c-d|| > 2, which covers ||c|| > 1 or ||d|| > 1 since
    the sum is at least 2 max(||c||, ||d||).  Otherwise gamma0 is the
    interval's midpoint.  Invalid input raises ValueError.
    """
    c, d = (np.asarray(v, dtype=float).reshape(3) for v in (c, d))
    lo, hi = gamma0_interval(c, d)
    if lo > hi + 1e-12:
        return None
    return QubitJointModel(a=a, b=b, c=c, d=d, gamma0=float(0.5 * (lo + hi)))


def branciard_joint(a, b, c, d, rho) -> RelationVerdict:
    """Branciard verdict of stacked covariant joint models in pure states rho (n, 2, 2).

    The targets have Bloch vectors a, b and the marginals c, d, each (n, 3)
    or one (3,) vector for every row; the errors are the state-independent
    covariant closed forms.
    """
    a_op, b_op = opalg.bloch_operator(a), opalg.bloch_operator(b)
    return branciard_verdict(
        _covariant_eps(a, c), _covariant_eps(b, d), spread(a_op, rho), spread(b_op, rho),
        commutator_expectation(a_op, b_op, rho),
    )


def unbiased_tradeoffs(c, d, rho) -> dict[str, RelationVerdict]:
    """Trade-offs (see ``unbiased_verdicts``) of stacked covariant models (c, d) in states rho.

    The targets are the marginals' first-moment operators; each marginal has
    outcomes -/+1 and effects (1 - C_plus, C_plus) with C_plus = (1 + c.sigma)/2.
    """
    outcomes = np.array([-1.0, 1.0])
    figures = []
    for vec in (c, d):
        c_plus = 0.5 * (np.eye(2) + opalg.bloch_operator(vec))
        effects = np.stack([np.eye(2) - c_plus, c_plus], axis=-3)
        m1, m2 = (effect_moment(outcomes, effects, k) for k in (1, 2))
        probs = np.clip(np.einsum("nij,nkji->nk", rho, effects).real, 0.0, 1.0)
        mean = probs @ outcomes
        dev = opalg.sqrt_clamped(((outcomes - mean[:, None]) ** 2 * probs).sum(-1))
        figures.append((m1, expectation(m2 - m1 @ m1, rho), dev, moment_form_eps(m1, m1, m2, rho)))
    (a_op, noise_c, dev_c, eps_a), (b_op, noise_d, dev_d, eps_b) = figures
    comm = commutator_expectation(a_op, b_op, rho)
    return unbiased_verdicts(comm, noise_c, noise_d, dev_c, dev_d, eps_a, eps_b)


def _only_row(verdict: RelationVerdict) -> RelationVerdict:
    """The verdict of a stack of one, as floats."""
    return replace(
        verdict, lhs=float(verdict.lhs[0]), rhs=float(verdict.rhs[0]),
        witnesses={k: float(v[0]) for k, v in verdict.witnesses.items()},
    )


def check_branciard_joint(model: QubitJointModel, rho) -> RelationVerdict:
    """``branciard_joint`` of one model in one pure state."""
    rho = check_purity(rho)
    return _only_row(branciard_joint(model.a[None], model.b[None], model.c[None],
                                     model.d[None], rho[None]))


def check_unbiased_tradeoffs(model: QubitJointModel, rho) -> dict[str, RelationVerdict]:
    """``unbiased_tradeoffs`` of one model in one state."""
    rho = np.asarray(rho, dtype=complex)
    verdicts = unbiased_tradeoffs(model.c[None], model.d[None], rho[None])
    return {name: _only_row(v) for name, v in verdicts.items()}


# ---------------------------------------------------------------------------
# Qubit joint-error bound
# ---------------------------------------------------------------------------


def qubit_incompatibility_bound(a, b):
    """sqrt(2) (||a - b|| + ||a + b|| - 2): the tight lower bound on the
    summed squared worst-case deviations of any joint approximation.

    Rows of (..., 3) arrays give an array of bounds.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return math.sqrt(2.0) * (
        np.linalg.norm(a - b, axis=-1) + np.linalg.norm(a + b, axis=-1) - 2.0
    )


def qubit_error_bound(a, b) -> tuple[float, float, QubitJointModel]:
    """The optimal covariant joint model of the summed squared worst-case deviations.

    With p = ||a + b||, q = ||a - b|| and e+- the unit vectors along a +- b,
    the optimum is c = (alpha e+ + beta e-)/2, d = (alpha e+ - beta e-)/2 with
    alpha = (p - q + 2)/2 and beta = (q - p + 2)/2: the nearest point of the
    feasible boundary alpha + beta = 2 to (p, q), where a = (p e+ + q e-)/2
    and b = (p e+ - q e-)/2 (Busch-Heinosaari, QIC 8 (2008) 797).  Where p or
    q vanishes (a = -b or a = b), so does its coefficient.  The targets count
    by direction only, ``opalg.unit_vector`` of a and b, so any finite nonzero
    scale gives the same result.  Returns (bound, achieved, model); the model
    is checked as ``QubitJointModel`` checks it, and its objective never
    undercuts the bound.
    """
    a, b = (opalg.unit_vector(np.reshape(v, 3)) for v in (a, b))
    bound = qubit_incompatibility_bound(a, b)
    plus, minus = a + b, a - b
    p, q = np.linalg.norm(plus), np.linalg.norm(minus)
    along_plus = (p - q + 2.0) / (2.0 * p) * plus if p > 0 else np.zeros(3)
    along_minus = (q - p + 2.0) / (2.0 * q) * minus if q > 0 else np.zeros(3)
    c, d = 0.5 * (along_plus + along_minus), 0.5 * (along_plus - along_minus)
    # covariant marginals: Delta(A, M1)^2 = 2 ||a - c||
    achieved = 2.0 * np.linalg.norm(a - c) + 2.0 * np.linalg.norm(b - d)

    model = qubit_joint_feasible(c, d, a, b)
    if model is None:
        raise RuntimeError("closed-form joint model is not jointly measurable")
    if achieved < bound - SLACK_TOL:
        raise RuntimeError(
            f"achieved objective {achieved!r} undercuts the proven bound {bound!r}"
        )
    return bound, achieved, model


def qubit_epsno_sum_check(model: QubitJointModel) -> RelationVerdict:
    """Summed noise errors against the incompatibility bound (covariant case)."""
    return qubit_epsno_sum_verdict(model.a, model.b, model.c, model.d)


# ---------------------------------------------------------------------------
# Phase space
# ---------------------------------------------------------------------------


def phase_space_relation_check(grid: GridSystem, tau) -> tuple[RelationVerdict, RelationVerdict]:
    """Second-moment and spread products of the covariant marginals.

    Checks mu[x^2] nu[x^2] >= (Delta mu)^2 (Delta nu)^2 >= 1/4 (hbar = 1);
    both saturate for the oscillator ground state.
    """
    mu, nu = phase_space_marginals(grid, tau)
    first = RelationVerdict(
        "phase-space-second-moments",
        mu.moment(2) * nu.moment(2),
        mu.variance * nu.variance,
        {"mu_bias": mu.mean, "nu_bias": nu.mean},
    )
    second = RelationVerdict(
        "phase-space-spread-product",
        mu.variance * nu.variance,
        0.25,
        {"mu_std": mu.std, "nu_std": nu.std},
    )
    return first, second
