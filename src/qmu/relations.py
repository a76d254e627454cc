"""Uncertainty-relation checkers and qubit joint-measurability machinery.

Every checker returns a RelationVerdict with both sides, the slack and the
witnesses that produced them.  The falsifiable relation (plain product of
noise-operator error and disturbance) comes with a violation search that
must succeed on the bundled uninformative and swap models; the proven
relations must never report a violation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import opalg
from .errmetrics import (
    eps_no_from_moments,
    eps_no_from_scheme,
    eta_no_from_scheme,
)
from .grid import GridSystem, phase_space_marginals
from .observables import (
    BlochObservable,
    Observable,
    distribution_of,
    intrinsic_noise,
    moment_operator,
)
from .opalg import expectation, spread
from .schemes import MeasurementScheme

SLACK_TOL = 1e-9
UNBIASED_TOL = 1e-10
PSD_TOL = 1e-10


@dataclass(frozen=True)
class RelationVerdict:
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


def commutator_expectation(a, b, rho) -> float:
    """|tr(rho [A, B])| for Hermitian a, b."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    return abs(complex(np.trace(np.asarray(rho, dtype=complex) @ (a @ b - b @ a))))


def check_purity(rho, tol: float = 1e-8) -> np.ndarray:
    rho = opalg.check_density(rho)
    purity = float(np.trace(rho @ rho).real)
    if abs(purity - 1.0) > tol:
        raise ValueError(f"pure state required (tr rho^2 = {purity!r})")
    return rho


# ---------------------------------------------------------------------------
# Scalar verdict cores
# ---------------------------------------------------------------------------


def ozawa_verdict(eps: float, eta: float, dev_a: float, dev_b: float,
                  comm: float) -> RelationVerdict:
    """Error-disturbance relation: eps*eta + eps*Delta(B) + Delta(A)*eta >= comm/2."""
    lhs = eps * eta + eps * dev_b + dev_a * eta
    return RelationVerdict("ozawa", lhs, 0.5 * comm,
                           {"eps": eps, "eta": eta, "dev_a": dev_a, "dev_b": dev_b})


def naive_product_verdict(eps: float, eta: float, comm: float) -> RelationVerdict:
    """The plain product bound eps*eta >= comm/2 (fails in general)."""
    return RelationVerdict("naive-product", eps * eta, 0.5 * comm, {"eps": eps, "eta": eta})


def branciard_verdict(eps_a: float, eps_b: float, dev_a: float, dev_b: float,
                      comm: float, witnesses=None) -> RelationVerdict:
    """Tight pure-state relation on both errors and spreads; witnesses default to the errors."""
    cross = max(dev_a**2 * dev_b**2 - 0.25 * comm**2, 0.0)
    lhs = (
        eps_a**2 * dev_b**2
        + eps_b**2 * dev_a**2
        + 2.0 * math.sqrt(cross) * eps_a * eps_b
    )
    if witnesses is None:
        witnesses = {"eps_a": eps_a, "eps_b": eps_b}
    return RelationVerdict("branciard", lhs, 0.25 * comm**2, witnesses)


# ---------------------------------------------------------------------------
# Scheme-level checkers
# ---------------------------------------------------------------------------


def error_disturbance_figures(scheme: MeasurementScheme, a, b, rho) -> tuple[float, ...]:
    """(eps, eta, dev_a, dev_b, comm): every input of the scheme relations.

    The noise-operator error of the scheme for target a, its disturbance of
    b, the spreads of a and b, and |tr(rho [A, B])|, all in state rho.  The
    order matches the arguments of the verdict cores.
    """
    a, b, rho = (np.asarray(m, dtype=complex) for m in (a, b, rho))
    return (
        eps_no_from_scheme(scheme, a, rho),
        eta_no_from_scheme(scheme, b, rho),
        spread(a, rho),
        spread(b, rho),
        commutator_expectation(a, b, rho),
    )


def check_ozawa(scheme: MeasurementScheme, a, b, rho) -> RelationVerdict:
    return ozawa_verdict(*error_disturbance_figures(scheme, a, b, rho))


def check_naive_heisenberg(scheme: MeasurementScheme, a, b, rho) -> RelationVerdict:
    eps, eta, _, _, comm = error_disturbance_figures(scheme, a, b, rho)
    return naive_product_verdict(eps, eta, comm)


def check_branciard_scheme(scheme: MeasurementScheme, a, b, rho) -> RelationVerdict:
    """Error-disturbance form: the second error is the disturbance of b."""
    return branciard_verdict(*error_disturbance_figures(scheme, a, b, check_purity(rho)))


def naive_violation_search(cases) -> list[RelationVerdict]:
    """Collect the violated verdicts among (scheme, a, b, rho) cases."""
    violations = []
    for scheme, a, b, rho in cases:
        verdict = check_naive_heisenberg(scheme, a, b, rho)
        if not verdict.holds:
            violations.append(verdict)
    return violations


# ---------------------------------------------------------------------------
# Qubit joint models
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QubitJointModel:
    """Covariant joint approximator pair on a qubit.

    Joint effects G_jk = [(1 + j*k*gamma0) 1 + (j c + k d).sigma]/4 for
    j, k = +/-1; the marginals are the covariant approximators with Bloch
    vectors c and d.  Positivity of all four effects is verified numerically
    at construction, never trusted.
    """

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    d: np.ndarray
    gamma0: float

    def __post_init__(self):
        for name in ("a", "b", "c", "d"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float).reshape(3))
        for name in ("a", "b"):
            if abs(np.linalg.norm(getattr(self, name)) - 1.0) > 1e-9:
                raise ValueError(f"target vector {name} must be a unit vector")
        worst = min(np.linalg.eigvalsh(g).min() for g in self.effects())
        if worst < -PSD_TOL:
            raise ValueError(f"joint effect not positive (min eigenvalue {worst:.3e})")

    def effects(self) -> list[np.ndarray]:
        eye = np.eye(2, dtype=complex)
        out = []
        for j in (1, -1):
            for k in (1, -1):
                vec = j * self.c + k * self.d
                out.append(0.25 * ((1 + j * k * self.gamma0) * eye + opalg.bloch_operator(vec)))
        return out

    def marginal_first(self) -> Observable:
        return BlochObservable(1.0, self.c).to_observable()

    def marginal_second(self) -> Observable:
        return BlochObservable(1.0, self.d).to_observable()

    def target_first(self) -> np.ndarray:
        return opalg.bloch_operator(self.a)

    def target_second(self) -> np.ndarray:
        return opalg.bloch_operator(self.b)

    def eps_pair(self, rho) -> tuple[float, float]:
        return (
            eps_no_from_moments(self.target_first(), self.marginal_first(), rho),
            eps_no_from_moments(self.target_second(), self.marginal_second(), rho),
        )


def qubit_joint_feasible(c, d, a=None, b=None) -> QubitJointModel | None:
    """Feasible covariant joint model for marginals (c, d), or None.

    gamma0 must satisfy ||c + d|| - 1 <= gamma0 <= 1 - ||c - d||; the
    midpoint is used.  Feasibility is exactly ||c+d|| + ||c-d|| <= 2.
    """
    c = np.asarray(c, dtype=float).reshape(3)
    d = np.asarray(d, dtype=float).reshape(3)
    if np.linalg.norm(c) > 1 + 1e-12 or np.linalg.norm(d) > 1 + 1e-12:
        return None
    lo = np.linalg.norm(c + d) - 1.0
    hi = 1.0 - np.linalg.norm(c - d)
    if lo > hi + 1e-12:
        return None
    gamma0 = 0.5 * (lo + hi)
    a = c / np.linalg.norm(c) if a is None and np.linalg.norm(c) > 0 else a
    b = d / np.linalg.norm(d) if b is None and np.linalg.norm(d) > 0 else b
    if a is None:
        a = np.array([0.0, 0.0, 1.0])
    if b is None:
        b = np.array([1.0, 0.0, 0.0])
    try:
        return QubitJointModel(a=a, b=b, c=c, d=d, gamma0=float(gamma0))
    except ValueError:
        return None


def check_branciard_joint(model: QubitJointModel, rho) -> RelationVerdict:
    rho = check_purity(rho)
    eps_a, eps_b = model.eps_pair(rho)
    a_op, b_op = model.target_first(), model.target_second()
    comm = commutator_expectation(a_op, b_op, rho)
    return branciard_verdict(eps_a, eps_b, spread(a_op, rho), spread(b_op, rho), comm)


def check_unbiased_tradeoffs(model: QubitJointModel, rho, a_op=None,
                             b_op=None) -> dict[str, RelationVerdict]:
    """Trade-offs for unbiased joint approximations.

    The targets default to the marginals' first-moment operators, which is
    what unbiasedness means; explicitly supplied targets are validated and a
    biased pair is rejected with the measured bias.  Returns verdicts for
    the intrinsic-noise product, the output-spread product (implemented
    verbatim with bound |tr rho [A,B]|, no factor 1/2 — flagged in the
    note), and the noise-error product.
    """
    c_obs, d_obs = model.marginal_first(), model.marginal_second()
    if a_op is None:
        a_op = moment_operator(c_obs, 1)
    if b_op is None:
        b_op = moment_operator(d_obs, 1)
    bias_a = np.linalg.norm(moment_operator(c_obs, 1) - a_op)
    bias_b = np.linalg.norm(moment_operator(d_obs, 1) - b_op)
    if bias_a > UNBIASED_TOL or bias_b > UNBIASED_TOL:
        raise ValueError(
            f"unbiased marginals required (measured biases {bias_a:.3e}, {bias_b:.3e})"
        )
    rho = np.asarray(rho, dtype=complex)
    comm = commutator_expectation(a_op, b_op, rho)
    vc = expectation(intrinsic_noise(c_obs), rho)
    vd = expectation(intrinsic_noise(d_obs), rho)
    noise_product = RelationVerdict(
        "unbiased-intrinsic-noise", vc * vd, 0.25 * comm**2,
        {"noise_c": vc, "noise_d": vd},
    )
    dev_c = distribution_of(c_obs, rho).std
    dev_d = distribution_of(d_obs, rho).std
    spread_product = RelationVerdict(
        "unbiased-output-spread", dev_c * dev_d, comm,
        {"dev_c": dev_c, "dev_d": dev_d},
        note="bound implemented verbatim as |tr rho[A,B]| without the usual 1/2",
    )
    eps_a = eps_no_from_moments(a_op, c_obs, rho)
    eps_b = eps_no_from_moments(b_op, d_obs, rho)
    eps_product = RelationVerdict(
        "unbiased-error-product", eps_a * eps_b, 0.5 * comm,
        {"eps_a": eps_a, "eps_b": eps_b},
    )
    return {
        "unbiased-intrinsic-noise": noise_product,
        "unbiased-output-spread": spread_product,
        "unbiased-error-product": eps_product,
    }


# ---------------------------------------------------------------------------
# Qubit joint-error bound
# ---------------------------------------------------------------------------


def qubit_incompatibility_bound(a, b) -> float:
    """sqrt(2) (||a - b|| + ||a + b|| - 2): the tight lower bound on the
    summed squared worst-case deviations of any joint approximation."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return math.sqrt(2.0) * (np.linalg.norm(a - b) + np.linalg.norm(a + b) - 2.0)


def _joint_objective(a, b, c, d) -> float:
    # covariant marginals: Delta(A, M1)^2 = 2 ||a - c||
    return 2.0 * np.linalg.norm(a - c) + 2.0 * np.linalg.norm(b - d)


def _project_feasible(c, d):
    total = np.linalg.norm(c + d) + np.linalg.norm(c - d)
    if total <= 2.0:
        return c, d
    scale = 2.0 / total
    return c * scale, d * scale


def qubit_error_bound(a, b, grid_points: int = 41,
                      refine: bool = True) -> tuple[float, float, QubitJointModel]:
    """Minimize the summed squared worst-case deviations over feasible models.

    Searches scalings c = s a, d = t b on a grid, then refines over the full
    six-dimensional (c, d) space with the joint-measurability constraint.
    Returns (bound, achieved minimum, optimizer model); the optimizer is
    always PSD-verified and its objective never undercuts the bound.
    """
    a = np.asarray(a, dtype=float).reshape(3)
    b = np.asarray(b, dtype=float).reshape(3)
    a = a / np.linalg.norm(a)
    b = b / np.linalg.norm(b)
    bound = qubit_incompatibility_bound(a, b)

    best_val, best_cd = math.inf, None
    for s in np.linspace(0.0, 1.0, grid_points):
        for t in np.linspace(0.0, 1.0, grid_points):
            c, d = _project_feasible(s * a, t * b)
            val = _joint_objective(a, b, c, d)
            if val < best_val:
                best_val, best_cd = val, (c, d)

    if refine:
        from scipy.optimize import minimize

        def objective(x):
            return _joint_objective(a, b, x[:3], x[3:])

        def constraint(x):
            return 2.0 - np.linalg.norm(x[:3] + x[3:]) - np.linalg.norm(x[:3] - x[3:])

        starts = [np.concatenate(best_cd)]
        starts.append(np.concatenate([0.5 * a + 0.2 * b, 0.5 * b + 0.2 * a]))
        for x0 in starts:
            res = minimize(
                objective, x0, method="SLSQP",
                constraints=[{"type": "ineq", "fun": constraint}],
                options={"maxiter": 500, "ftol": 1e-12},
            )
            c, d = _project_feasible(res.x[:3], res.x[3:])
            val = _joint_objective(a, b, c, d)
            if val < best_val:
                best_val, best_cd = val, (c, d)

    model = qubit_joint_feasible(best_cd[0], best_cd[1], a=a, b=b)
    if model is None:
        raise RuntimeError("optimizer left the feasible set; projection failed")
    if best_val < bound - SLACK_TOL:
        raise RuntimeError(
            f"achieved objective {best_val!r} undercuts the proven bound {bound!r}"
        )
    return bound, best_val, model


def qubit_epsno_sum_check(model: QubitJointModel, rho=None) -> RelationVerdict:
    """Summed noise errors against the incompatibility bound (covariant case).

    The covariant closed forms are state-independent, so rho only feeds the
    generic route used for cross-checking.
    """
    eps_a = math.sqrt(
        max(1 - model.c @ model.c + (model.a - model.c) @ (model.a - model.c), 0.0)
    )
    eps_b = math.sqrt(
        max(1 - model.d @ model.d + (model.b - model.d) @ (model.b - model.d), 0.0)
    )
    if rho is not None:
        gen_a, gen_b = model.eps_pair(rho)
        if abs(gen_a - eps_a) > 1e-9 or abs(gen_b - eps_b) > 1e-9:
            raise AssertionError("closed-form and generic noise errors disagree")
    rhs = qubit_incompatibility_bound(model.a, model.b) / 2.0
    return RelationVerdict(
        "qubit-error-sum", eps_a + eps_b, rhs, {"eps_a": eps_a, "eps_b": eps_b}
    )


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
