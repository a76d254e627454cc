"""Reproducible scenario library and randomized relation suites.

Each scenario bundles a small model, computes its error figures and relation
verdicts, and checks them against expected values whose targets are
closed-form functions of the (overridable) parameters.  Provenance strings
record how each target was obtained: "closed-form" (algebraic identity),
"derived-oracle" (frozen from an independent computation), "known-value"
(plain threshold), or "high-precision" (exact integer arithmetic on the
model's algebraic data).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

import numpy as np

from . import opalg
from .distributions import convolve, make_distribution, splits_from, w2_quantile
from .errmetrics import (
    eps_no_from_moments,
    error_report,
    moment_form_eps,
    three_state_eps,
    three_state_form_eps,
    value_comparison_eps,
)
from .grid import (
    GridAliasingError,
    GridSystem,
    VonNeumannModel,
    apply_oscillator,
    apply_position,
    check_aliasing,
    coupling_error,
    dense_position_error,
    dense_scheme_error,
    gaussian_state,
    grid_size_error,
    ground_state,
    half_width_error,
    momentum_squared_matrix,
    position_distribution,
    position_observable,
)
from .observables import (
    BlochObservable,
    Observable,
    SharpObservable,
    distribution_of,
    effect_moment,
    intrinsic_noise,
    moment_operator,
    qubit_triple,
    spectral_measure,
)
from .opalg import SIGMA_X, SIGMA_Y, SIGMA_Z, bloch_state
from .relations import (
    RelationVerdict,
    branciard_verdict,
    check_branciard_joint,
    check_unbiased_tradeoffs,
    error_disturbance_figures,
    gamma0_interval,
    naive_product_verdict,
    ozawa_verdict,
    phase_space_relation_check,
    qubit_epsno_sum_check,
    qubit_epsno_sum_verdict,
    qubit_error_bound,
    qubit_incompatibility_bound,
    scheme_figures,
    scheme_noise_error,
    unbiased_tradeoffs,
)
from .schemes import (
    identity_scheme,
    induced_effects,
    induced_observable,
    pointer_operator,
    swap_scheme,
)
from .serialize import report_to_json

EX = np.array([1.0, 0.0, 0.0])
EY = np.array([0.0, 1.0, 0.0])
EZ = np.array([0.0, 0.0, 1.0])

# Frozen from the exact quantile/LP route on the three-outcome POVM scenario.
TRIPLE_W2_AT_NULL_STATE = 0.448341529167965


@dataclass(frozen=True)
class RunConfig:
    """One reproducibility surface for every scenario and suite.

    Each field is the global CLI flag ``--key`` (dashes for underscores) with
    its default and the help in its metadata; ``key``, the field's name unless
    the metadata gives one, also names the field in a report's config.
    """

    seed: int = field(default=0, metadata={"help": "RNG seed (default 0)"})
    grid_n: int = field(default=1024, metadata={"help": "default grid points"})
    grid_l: float = field(default=12.0, metadata={"help": "default grid half width",
                                                  "key": "grid_L"})
    budget: int = field(default=10000, metadata={"help": "draws of a randomized relation suite"})
    hbar_scale: float = field(default=1.0, metadata={
        "help": "unit annotation for reports; computations stay dimensionless"})


@dataclass(frozen=True)
class ExpectedValue:
    name: str
    value: float
    tol: float
    provenance: str
    mode: str = "equals"  # equals | at_least | at_most

    def check(self, computed: float) -> bool:
        if self.mode == "equals":
            return abs(computed - self.value) <= self.tol
        if self.mode == "at_least":
            return computed >= self.value - self.tol
        if self.mode == "at_most":
            return computed <= self.value + self.tol
        raise ValueError(f"unknown expectation mode {self.mode!r}")


@dataclass
class ScenarioOutcome:
    values: dict
    verdicts: list[RelationVerdict] = field(default_factory=list)
    expected: list[ExpectedValue] = field(default_factory=list)
    report: dict | None = None
    # relations listed here are REQUIRED to be violated (falsification cases)
    expect_violation: frozenset = frozenset()
    # stamped by run_scenario: the scenario's name and its parameters after overrides
    name: str = ""
    parameters: dict = field(default_factory=dict)

    @property
    def checks(self) -> list[dict]:
        out = []
        for exp in self.expected:
            computed = self.values[exp.name]
            out.append(
                {
                    "name": exp.name,
                    "mode": exp.mode,
                    "expected": exp.value,
                    "tolerance": exp.tol,
                    "provenance": exp.provenance,
                    "computed": computed,
                    "pass": exp.check(computed),
                }
            )
        return out

    @property
    def passed(self) -> bool:
        for v in self.verdicts:
            expected_holds = v.relation not in self.expect_violation
            if v.holds != expected_holds:
                return False
        return all(c["pass"] for c in self.checks)


@dataclass(frozen=True)
class Scenario:
    """One bundled scenario, named by its key in ``SCENARIOS``.

    ``run(params, config)`` reads exactly the keys of ``parameters``, where
    every default lives, and trusts them.  A value's own domain is its name's
    entry in ``PARAMETER_ERRORS``; ``limits(params, config)`` holds only the
    cross-parameter rules, and says why they fail, or returns None.
    """

    kind: str  # qubit-approx | qubit-joint | scheme | grid
    description: str
    parameters: dict
    run: Callable[[dict, RunConfig], ScenarioOutcome]
    limits: Callable[[dict, RunConfig], str | None] | None = None


def _pure_bloch(r) -> np.ndarray:
    return bloch_state(opalg.unit_vector(r))


# Numbers a + b√2 of Z[√2] as pairs (a, b) of ints.
def _r2mul(x, y):
    return x[0] * y[0] + 2 * x[1] * y[1], x[0] * y[1] + x[1] * y[0]


def _r2dot(xs, ys):
    """The sum of x * y over paired entries of xs and ys."""
    return tuple(map(sum, zip(*map(_r2mul, xs, ys))))


def triple_eps_highprec() -> float:
    """Noise error of the three-outcome POVM at its null state, in exact arithmetic.

    The POVM is unbiased, so eps^2 = tr(rho0 N) with N = M[2] - M[1]^2.  Scaled
    by 4, the data lie in Z[√2, i], and a Hermitian 2x2 matrix X = x0 + x.sigma
    has its coordinates (x0, x) in Z[√2]: tr XY = 2(x0 y0 + x.y) and
    X^2 = (x0^2 + |x|^2) + 2 x0 x.sigma.  So 16 eps^2 = tr(4 rho0 4N) is
    computed with integers alone: no rounding floor, and the zero is exact.
    """
    g, zero = (2, -1), (0, 0)  # g = 2 - √2
    four_rho0 = [(2, 0), (0, -1), (0, -1), zero]  # 2 - √2 (sx + sy)
    two_m1 = [zero, g, (-2, 1), zero]  # g (sx - sy)
    four_m2 = [_r2mul((4, 0), g), _r2mul((2, 0), g), _r2mul((2, 0), g), zero]  # 2g (2 + sx + sy)
    square = [_r2dot(two_m1, two_m1), *(_r2mul((2, 0), _r2mul(two_m1[0], x)) for x in two_m1[1:])]
    four_n = [(p[0] - q[0], p[1] - q[1]) for p, q in zip(four_m2, square)]
    a, b = _r2mul((2, 0), _r2dot(four_rho0, four_n))
    return math.sqrt(abs(a + b * math.sqrt(2))) / 4


# ---------------------------------------------------------------------------
# Runners
# ---------------------------------------------------------------------------


def _run_qubit_triple(params: dict, config: RunConfig) -> ScenarioOutcome:
    triple = qubit_triple()
    a = moment_operator(triple, 1)
    rho0 = 0.5 * (np.eye(2) - (SIGMA_X + SIGMA_Y) / np.sqrt(2))
    g = 2 - math.sqrt(2)
    moment_target = 0.5 * g * (SIGMA_X - SIGMA_Y)
    noise_target = 2 * (1 - g) * 0.5 * (np.eye(2) + (SIGMA_X + SIGMA_Y) / np.sqrt(2))
    rep = error_report(a, triple, rho0)
    values = {
        "eps_no_highprec": triple_eps_highprec(),
        "eps_no_float": rep.eps_no,
        "three_state_float": three_state_eps(a, triple, rho0),
        "w2_state": rep.w2_state,
        "moment_identity_residual": float(np.linalg.norm(a - moment_target)),
        "noise_identity_residual": float(
            np.linalg.norm(intrinsic_noise(triple) - noise_target)
        ),
    }
    expected = [
        ExpectedValue("eps_no_highprec", 0.0, 1e-10, "high-precision"),
        ExpectedValue("eps_no_float", 0.0, 5e-8, "derived-oracle"),
        ExpectedValue("three_state_float", 0.0, 5e-8, "derived-oracle"),
        ExpectedValue("w2_state", 0.1, 0.0, "known-value", mode="at_least"),
        ExpectedValue("w2_state", TRIPLE_W2_AT_NULL_STATE, 1e-9, "derived-oracle"),
        ExpectedValue("moment_identity_residual", 0.0, 1e-12, "closed-form"),
        ExpectedValue("noise_identity_residual", 0.0, 1e-12, "closed-form"),
    ]
    return ScenarioOutcome(values, [], expected, report_to_json(rep))


def _run_qubit_smearing(params: dict, config: RunConfig) -> ScenarioOutcome:
    gamma = float(params["gamma"])
    c = BlochObservable(1.0, gamma * EZ).to_observable()
    rep = error_report(SIGMA_Z, c, _pure_bloch(params["rho_bloch"]))
    eps, worst = rep.eps_no, rep.w2_worst
    target = math.sqrt(2 * (1 - gamma))
    values = {
        "eps_no": eps,
        "w2_worst": worst,
        "calibration": rep.calibration,
        "decomposition_residual": abs(eps**2 - rep.intrinsic_noise_expectation - 0.25 * worst**4),
        "smearing_equality_residual": abs(eps - worst),
    }
    expected = [
        ExpectedValue("w2_worst", target, 1e-9, "closed-form"),
        ExpectedValue("calibration", target, 1e-12, "closed-form"),
        ExpectedValue("decomposition_residual", 0.0, 1e-9, "closed-form"),
        ExpectedValue("smearing_equality_residual", 0.0, 1e-9, "closed-form"),
    ]
    return ScenarioOutcome(values, [], expected, report_to_json(rep))


def _run_trivial_approximator(params: dict, config: RunConfig) -> ScenarioOutcome:
    rho = _pure_bloch(params["rho_bloch"])
    a_sharp = spectral_measure(SIGMA_Z)
    probs = distribution_of(a_sharp, rho)
    trivial = Observable._trusted(
        a_sharp.outcomes, np.stack([p * np.eye(2, dtype=complex) for p in probs.probs])
    )
    eps = eps_no_from_moments(SIGMA_Z, trivial, rho)
    vc = value_comparison_eps(a_sharp, trivial, rho)
    values = {
        "eps_no": eps,
        "w2_state": vc.w2_distributions,
        "value_comparison": vc.value,
        "value_vs_eps_residual": abs(vc.value - eps),
    }
    expected = [
        ExpectedValue("eps_no", math.sqrt(2) * probs.std, 1e-9, "closed-form"),
        ExpectedValue("w2_state", 0.0, 1e-9, "closed-form"),
        ExpectedValue("value_vs_eps_residual", 0.0, 1e-10, "closed-form"),
    ]
    return ScenarioOutcome(values, [], expected)


def _run_scheme(params: dict, config: RunConfig, swap: bool) -> ScenarioOutcome:
    sigma = _pure_bloch(params["sigma_bloch"])
    rho = _pure_bloch(params["rho_bloch"])
    a, b = SIGMA_Z, SIGMA_X
    a_sharp = spectral_measure(a)
    scheme = (swap_scheme if swap else identity_scheme)(a_sharp, sigma)
    figures = scheme_figures(scheme, a, b, rho)
    eps, eta, _, _, comm = figures
    da, ds = distribution_of(a_sharp, rho), distribution_of(a_sharp, sigma)
    b_sharp = spectral_measure(b)
    db, dbs = distribution_of(b_sharp, rho), distribution_of(b_sharp, sigma)
    approx = induced_observable(scheme)
    w2_approx = w2_quantile(da, distribution_of(approx, rho))
    if not swap:
        eps_target = math.sqrt(da.variance + ds.variance + (da.mean - ds.mean) ** 2)
        eta_target, w2_dist = 0.0, 0.0
        w2_approx_target = w2_quantile(da, ds)
    else:
        eps_target, w2_approx_target = 0.0, 0.0
        eta_target = math.sqrt(db.variance + dbs.variance + (db.mean - dbs.mean) ** 2)
        w2_dist = w2_quantile(db, dbs)  # disturbed distribution is B_sigma
    naive = naive_product_verdict(eps, eta, comm)
    ozawa = ozawa_verdict(*figures)
    branciard = branciard_verdict(*figures)
    values = {
        "eps_no": eps,
        "eta_no": eta,
        "w2_approximation": w2_approx,
        "w2_disturbance": w2_dist,
        "naive_slack": naive.slack,
        "ozawa_slack": ozawa.slack,
        "branciard_slack": branciard.slack,
    }
    expected = [
        ExpectedValue("eps_no", eps_target, 1e-9, "closed-form"),
        ExpectedValue("eta_no", eta_target, 1e-9, "closed-form"),
        ExpectedValue("w2_approximation", w2_approx_target, 1e-9, "closed-form"),
        ExpectedValue("ozawa_slack", 0.0, 1e-9, "closed-form", mode="at_least"),
        ExpectedValue("branciard_slack", 0.0, 1e-9, "closed-form", mode="at_least"),
    ]
    expect_violation = frozenset()
    if naive.rhs > 0.25:  # commutator expectation large enough to falsify
        expected.append(
            ExpectedValue("naive_slack", -0.2, 0.0, "derived-oracle", mode="at_most")
        )
        expect_violation = frozenset({"naive-product"})
    return ScenarioOutcome(values, [naive, ozawa, branciard], expected, expect_violation=expect_violation)


def _run_position_flip(params: dict, config: RunConfig) -> ScenarioOutcome:
    grid = GridSystem(int(params["n"]), float(params["L"]))
    q = position_observable(grid)
    minus_q = SharpObservable._trusted(-q.outcomes[::-1], q.effects[::-1].copy())
    psi = ground_state(grid)
    rho = np.outer(psi, psi.conj()) * grid.dx
    vc = value_comparison_eps(q, minus_q, rho)
    dist = position_distribution(grid, psi)
    values = {
        "value_comparison": vc.value,
        "w2_state": vc.w2_distributions,
        "position_spread": dist.std,
    }
    expected = [
        ExpectedValue("value_comparison", 2 * dist.std, 1e-9, "closed-form"),
        ExpectedValue("w2_state", 0.0, 1e-9, "closed-form"),
    ]
    return ScenarioOutcome(values, [], expected)


def _run_von_neumann(params: dict, config: RunConfig) -> ScenarioOutcome:
    obj = GridSystem(int(params["n_obj"]), float(params["L_obj"]))
    probe = GridSystem(int(params["n_probe"]), float(params["L_probe"]))
    model = VonNeumannModel(
        obj, probe, float(params["lam"]),
        gaussian_state(probe, width=float(params["probe_width"])),
    )
    psi = gaussian_state(obj, center=float(params["center"]), width=float(params["width"]))
    rho = np.outer(psi, psi.conj()) * obj.dx
    q_op = np.diag(obj.positions.astype(complex))
    eps_scheme = model.eps_no_from_shifts(q_op, psi)
    eps_moment = eps_no_from_moments(q_op, model.induced_observable(), rho)
    mu = model.noise_distribution()
    measured = model.measured_distribution(psi)
    conv = convolve(mu, position_distribution(obj, psi))
    w2_conv = w2_quantile(measured, conv)
    values = {
        "eps_scheme": eps_scheme,
        "eps_moment": eps_moment,
        "form_residual": abs(eps_scheme - eps_moment),
        "eps_vs_noise_residual": abs(eps_moment - math.sqrt(mu.moment(2))),
        "convolution_w2": w2_conv,
        "noise_mean": mu.mean,
        "noise_std": mu.std,
    }
    expected = [
        ExpectedValue("form_residual", 0.0, 1e-9, "closed-form"),
        ExpectedValue("eps_vs_noise_residual", 0.0, 1e-6, "closed-form"),
        ExpectedValue("convolution_w2", 0.0, 1e-6, "derived-oracle"),
        ExpectedValue("noise_mean", 0.0, 1e-12, "closed-form"),
    ]
    return ScenarioOutcome(values, [], expected)


def _oscillator_ground(params: dict):
    """The grid, its oscillator ground state psi, H psi and ||H psi|| (zero up to discretisation)."""
    grid = GridSystem(int(params["n"]), float(params["L"]))
    psi = ground_state(grid)
    h_psi = apply_oscillator(grid, psi)
    return grid, psi, h_psi, math.sqrt(max(float(grid.inner(h_psi, h_psi).real), 0.0))


def _run_oscillator_shift(params: dict, config: RunConfig) -> ScenarioOutcome:
    grid, psi, _, h_norm = _oscillator_ground(params)
    alpha = float(params["alpha"])
    eps = alpha * h_norm
    # spectral route for the approximator's outcome distribution: Q' = Q + alpha H is real
    x = grid.positions
    hmat = 0.5 * momentum_squared_matrix(grid)
    hmat[np.diag_indices(grid.n)] += 0.5 * x**2 - 0.5
    evals, evecs = np.linalg.eigh(np.diag(x) + alpha * hmat)
    weights = np.abs(evecs.T @ (psi * math.sqrt(grid.dx))) ** 2
    dist_c = make_distribution(evals, weights)
    w2 = w2_quantile(position_distribution(grid, psi), dist_c)
    values = {"eps_no": eps, "w2_state": w2}
    expected = [
        ExpectedValue("eps_no", 0.0, 1e-8, "closed-form"),
        ExpectedValue("w2_state", 0.1, 0.0, "derived-oracle", mode="at_least"),
    ]
    return ScenarioOutcome(values, [], expected)


def _run_double_zero(params: dict, config: RunConfig) -> ScenarioOutcome:
    grid, psi, h_psi, h_norm = _oscillator_ground(params)
    alpha, beta = float(params["alpha"]), float(params["beta"])
    eps_a = alpha * h_norm
    eps_b = abs(alpha - beta) * h_norm
    a_psi = apply_position(grid, psi)
    b_psi = a_psi + beta * h_psi  # B = Q + beta H

    def spread(op_psi):
        mean = float(grid.inner(psi, op_psi).real)
        return math.sqrt(max(float(grid.inner(op_psi, op_psi).real) - mean**2, 0.0))

    comm = abs(complex(grid.inner(a_psi, b_psi)) - complex(grid.inner(b_psi, a_psi)))
    verdict = branciard_verdict(eps_a, eps_b, spread(a_psi), spread(b_psi), comm, witnesses={})
    values = {
        "eps_a": eps_a,
        "eps_b": eps_b,
        "branciard_lhs": verdict.lhs,
        "branciard_rhs": verdict.rhs,
        "branciard_slack": verdict.slack,
    }
    expected = [
        ExpectedValue("eps_a", 0.0, 1e-8, "closed-form"),
        ExpectedValue("eps_b", 0.0, 1e-8, "closed-form"),
        ExpectedValue("branciard_lhs", 0.0, 1e-12, "closed-form"),
        ExpectedValue("branciard_rhs", 0.0, 1e-12, "closed-form"),
        ExpectedValue("branciard_slack", 0.0, 1e-9, "closed-form", mode="at_least"),
    ]
    return ScenarioOutcome(values, [verdict], expected)


def _husimi_grid(params: dict, config: RunConfig) -> GridSystem:
    """The grid a husimi-* generator is sampled on: a null n or L is the configured one."""
    return GridSystem(int(params["n"] or config.grid_n), float(params["L"] or config.grid_l))


def _run_husimi(params: dict, config: RunConfig, extra: tuple = ()) -> ScenarioOutcome:
    """Phase-space marginals of a Gaussian generator on ``_husimi_grid``."""
    grid = _husimi_grid(params, config)
    tau = gaussian_state(grid, center=float(params["center"]), width=float(params["width"]))
    first, second = phase_space_relation_check(grid, tau)
    values = {
        "spread_product": second.witnesses["mu_std"] * second.witnesses["nu_std"],
        "second_moment_product": first.lhs,
        "second_moment_slack": first.slack,
        "spread_slack": second.slack,
        "hbar_scale": config.hbar_scale,
    }
    expected = [
        ExpectedValue("spread_product", 0.5, 1e-4, "closed-form"),
        ExpectedValue("second_moment_slack", 0.0, 1e-9, "closed-form", mode="at_least"),
        ExpectedValue("spread_slack", 0.0, 1e-9, "closed-form", mode="at_least"),
        *extra,
    ]
    return ScenarioOutcome(values, [first, second], expected)


def _run_covariant_pair(params: dict, config: RunConfig) -> ScenarioOutcome:
    angle = float(params["angle"])
    a = EZ
    b = math.cos(angle) * EZ + math.sin(angle) * EX
    bound, achieved, model = qubit_error_bound(a, b)
    rho = _pure_bloch(params["rho_bloch"])
    sum_verdict = qubit_epsno_sum_check(model)
    branciard = check_branciard_joint(model, rho)
    unbiased = check_unbiased_tradeoffs(model, rho)
    values = {
        "bound": bound,
        "achieved": achieved,
        "optimality_gap": achieved - bound,
        "eps_sum_slack": sum_verdict.slack,
        "branciard_slack": branciard.slack,
    }
    expected = [
        ExpectedValue("bound", qubit_incompatibility_bound(a, b), 1e-12, "closed-form"),
        ExpectedValue("optimality_gap", 0.0, 1e-9, "closed-form", mode="at_most"),
        ExpectedValue("optimality_gap", 0.0, 1e-9, "closed-form", mode="at_least"),
        ExpectedValue("eps_sum_slack", 0.0, 1e-9, "closed-form", mode="at_least"),
        ExpectedValue("branciard_slack", 0.0, 1e-9, "closed-form", mode="at_least"),
    ]
    verdicts = [sum_verdict, branciard, *unbiased.values()]
    return ScenarioOutcome(values, verdicts, expected)


def _finite_number(value) -> bool:
    """An int or float of magnitude at most the largest float (so not a bool, NaN or inf)."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


def _domain(holds: Callable[[object], bool], text: str) -> Callable[[object], str | None]:
    """A domain check: None where ``holds(value)``, else "takes <text>, got <value>"."""
    return lambda value: None if holds(value) else f"takes {text}, got {value!r}"


# Parameter name -> why a value lies outside its domain, or None.  A name means the
# same in every scenario that takes it; an unlisted name takes a finite number.  A
# smearing strength gamma past [-1, 1] makes the smeared effects non-positive.
PARAMETER_ERRORS: dict[str, Callable[[object], str | None]] = {
    **dict.fromkeys(("n", "n_obj", "n_probe"), grid_size_error),
    **dict.fromkeys(("L", "L_obj", "L_probe"), half_width_error),
    **dict.fromkeys(("width", "probe_width"), _domain(
        lambda v: _finite_number(v) and v > 0, "a positive finite number")),
    "gamma": _domain(lambda v: _finite_number(v) and abs(v) <= 1, "a number in [-1, 1]"),
    **dict.fromkeys(("rho_bloch", "sigma_bloch"), _domain(
        lambda v: isinstance(v, list) and len(v) == 3 and all(map(_finite_number, v)) and any(v),
        "a nonzero list of 3 finite numbers")),
}
_number_error = _domain(_finite_number, "a finite number")


def _gaussian_error(grid: GridSystem, key: str, width: float, center: float = 0.0) -> str | None:
    """Why the Gaussian ``key`` of this width and center does not fit ``grid``, or None.

    Narrower than the spacing dx it falls within one cell, where its spreads
    read 0 or its square underflows; a center outside [-L, L) is off the grid.
    Its momentum spread is 1/width, so wider than L/pi it falls within one
    cell of the momentum spacing pi/L; a width of 1e300 would overflow
    when squared.
    """
    if width < grid.dx:
        return f"{key} must be at least the grid spacing {grid.dx!r}, got {width!r}"
    if not -grid.half_width <= center < grid.half_width:
        return f"center must lie in [-L, L) with L = {grid.half_width!r}, got {center!r}"
    if not math.pi * width <= grid.half_width:
        return (f"{key} must be at most L/pi = {grid.half_width / math.pi!r}, "
                f"where the momentum spacing pi/L resolves it, got {width!r}")
    return None


def _aliasing_error(grid: GridSystem, key: str, width: float, center: float) -> str | None:
    """``_gaussian_error``, then ``check_aliasing`` on the sampled Gaussian, or None.

    Only for the states a runner passes to ``check_aliasing`` after the work
    (the husimi generator, the von Neumann object state): sampling costs O(n),
    so the refusal comes first and is the same.  The probe and the ground
    states are never checked for aliasing, so they are not checked here either.
    """
    error = _gaussian_error(grid, key, width, center)
    if error is None:
        try:
            check_aliasing(grid, gaussian_state(grid, center, width))
        except GridAliasingError as exc:
            error = f"{key} {width!r} at center {center!r}: {exc}"
    return error


# Largest |coefficient| times the grid's top energy for the shifts alpha H and beta H.
# Figures built from them stay below 2**255, so the products of four in the
# Branciard relation stay below 2**1020, inside the float range.
SHIFT_REACH = 2.0**255


def _ground_state_limits(p: dict, config: RunConfig) -> str | None:
    """``_gaussian_error`` of the width-1 ground state on the grid of ``n`` and ``L``,
    then the coefficients ``alpha`` and ``beta`` of H the scenario takes.

    H = (P^2 + Q^2 - 1)/2 reaches at most the top energy (p_max^2 + L^2)/2 on
    the grid, p_max = n pi / (2 L); a coefficient times it is at most SHIFT_REACH.
    """
    grid = GridSystem(p["n"], p["L"])
    error = _gaussian_error(grid, "the ground-state width", 1.0)
    if error:
        return error
    top = 0.5 * (float(grid.momenta[0]) ** 2 + grid.half_width**2)
    for key in ("alpha", "beta"):
        if key in p and not abs(p[key]) * top <= SHIFT_REACH:
            return (f"|{key}| must be at most {SHIFT_REACH / top!r}, 2**255 over the grid's "
                    f"top energy {top!r}, got {p[key]!r}")
    return None


def _husimi_limits(p: dict, config: RunConfig) -> str | None:
    return _aliasing_error(_husimi_grid(p, config), "width", p["width"], p["center"])


def _von_neumann_limits(p: dict, config: RunConfig) -> str | None:
    """Dense size, coupling lattice, both Gaussians on their grids; pointer
    shifts lam * x must stay within +-L_probe.

    Past L_probe the periodic probe grid wraps the shifted pointer around.
    """
    obj, probe = (GridSystem(p[f"n_{side}"], p[f"L_{side}"]) for side in ("obj", "probe"))
    error = (dense_scheme_error(p["n_obj"], p["n_probe"])
             or coupling_error(p["lam"], obj.dx, probe.dx))
    if error is None and p["lam"] * p["L_obj"] > p["L_probe"]:
        error = ("pointer shifts must stay on the probe grid, lam * L_obj at most L_probe, "
                 f"got lam * L_obj = {p['lam'] * p['L_obj']!r} > L_probe = {p['L_probe']!r}")
    return (error or _aliasing_error(obj, "width", p["width"], p["center"])
            or _gaussian_error(probe, "probe_width", p["probe_width"]))


def override_error(name: str, overrides: dict, config: RunConfig) -> str | None:
    """Why overrides are malformed input for scenario ``name`` under ``config``, or None.

    A key must be a parameter of the scenario, and its value must lie in
    its name's domain in ``PARAMETER_ERRORS`` (a finite number where the
    name has no entry); a null is kept only where the default is null.
    Then the scenario's ``limits`` check the parameters together.  Cheap
    enough to run before any work.
    """
    scenario = SCENARIOS[name]
    params = scenario.parameters
    for key, value in overrides.items():
        if key not in params:
            return f"{key}: not a parameter of {name}"
        if value is None and params[key] is None:
            continue
        error = PARAMETER_ERRORS.get(key, _number_error)(value)
        if error:
            return f"{key}: {error}"
    error = scenario.limits({**params, **overrides}, config) if scenario.limits else None
    return f"{', '.join(sorted(overrides))}: {error}" if error and overrides else error


SCENARIOS: dict[str, Scenario] = {
    "qubit-triple-unbiased-zero": Scenario(
        "qubit-approx",
        "Three-outcome unbiased qubit POVM whose noise error vanishes at the "
        "intrinsic-noise null state while the outcome distributions differ.",
        {},
        _run_qubit_triple,
    ),
    "qubit-approx-smearing": Scenario(
        "qubit-approx",
        "Covariant smearing of a sharp qubit observable: worst-case and "
        "calibration deviations coincide and match the noise error.",
        {"gamma": 0.75, "rho_bloch": [0.0, 1.0, 0.0]},
        _run_qubit_smearing,
    ),
    "trivial-approximator": Scenario(
        "qubit-approx",
        "State-matched trivial approximator: zero distribution error, "
        "noise error sqrt(2) times the preparation spread.",
        {"rho_bloch": [0.0, 1.0, 0.0]},
        _run_trivial_approximator,
    ),
    "identity-scheme": Scenario(
        "scheme",
        "Uninformative clone-probe premeasurement: zero disturbance, trivial "
        "measured observable; falsifies the plain product relation.",
        {"sigma_bloch": [0.0, 1.0, 0.0], "rho_bloch": [0.0, 1.0, 0.0]},
        partial(_run_scheme, swap=False),
    ),
    "swap-scheme": Scenario(
        "scheme",
        "Swap premeasurement: exact measurement with zero noise error, "
        "state replaced by the probe; falsifies the plain product relation.",
        {"sigma_bloch": [0.0, 1.0, 0.0], "rho_bloch": [0.0, 1.0, 0.0]},
        partial(_run_scheme, swap=True),
    ),
    "position-flip": Scenario(
        "grid",
        "Sharp position flip (-Q approximating Q) on an even state: value "
        "comparison sees the anticorrelation, distributions coincide.",
        {"n": 32, "L": 8.0},
        _run_position_flip,
        limits=lambda p, config: dense_position_error(p["n"]) or _ground_state_limits(p, config),
    ),
    "von-neumann-position": Scenario(
        "scheme",
        "Approximate unbiased position measurement via momentum-coupled "
        "probe; measured distribution is the smeared position.",
        {
            "n_obj": 32,
            "L_obj": 8.0,
            "n_probe": 32,
            "L_probe": 8.0,
            "lam": 1.0,
            "probe_width": 1.0,
            "center": 0.5,
            "width": 0.8,
        },
        _run_von_neumann,
        limits=_von_neumann_limits,
    ),
    "oscillator-shift-zero-error": Scenario(
        "grid",
        "Sharp approximator built from the oscillator-shifted position: "
        "zero noise error on the ground state despite distinct statistics.",
        {"n": 256, "L": 10.0, "alpha": 0.5},
        _run_oscillator_shift,
        limits=_ground_state_limits,
    ),
    "double-zero-approximators": Scenario(
        "grid",
        "One sharp approximator for two distinct targets, both with zero "
        "noise error on the ground state: the tight relation holds at 0 = 0.",
        {"n": 256, "L": 10.0, "alpha": 0.5, "beta": 1.0},
        _run_double_zero,
        limits=_ground_state_limits,
    ),
    "husimi-saturation": Scenario(
        "grid",
        "Ground-state-generated covariant phase-space marginals saturate "
        "the spread-product bound.",
        {"n": None, "L": None, "center": 0.0, "width": 1.0},
        partial(_run_husimi, extra=(
            ExpectedValue("second_moment_product", 0.25, 1e-3, "closed-form"),
        )),
        limits=_husimi_limits,
    ),
    "husimi-squeezed": Scenario(
        "grid",
        "Squeezed generator: spread product still saturates, second moments "
        "stay above the bound.",
        {"n": None, "L": None, "center": 0.0, "width": 2.0},
        _run_husimi,
        limits=_husimi_limits,
    ),
    "husimi-displaced": Scenario(
        "grid",
        "Displaced generator: bias makes the second-moment inequality strict.",
        {"n": None, "L": None, "center": 1.5, "width": 1.0},
        partial(_run_husimi, extra=(
            ExpectedValue("second_moment_slack", 0.1, 0.0, "derived-oracle", mode="at_least"),
        )),
        limits=_husimi_limits,
    ),
    "covariant-qubit-pair": Scenario(
        "qubit-joint",
        "Optimal covariant joint approximation of two qubit observables; "
        "reaches the incompatibility bound.",
        {"angle": math.pi / 2, "rho_bloch": [0.0, 1.0, 0.0]},
        _run_covariant_pair,
    ),
}


def run_scenario(name: str, config: RunConfig = RunConfig(), overrides: dict | None = None) -> ScenarioOutcome:
    """Run scenario ``name``; ``ValueError`` with the fault ``override_error`` finds, if any."""
    if name not in SCENARIOS:
        raise KeyError(f"unknown scenario {name!r}")
    overrides = overrides or {}
    error = override_error(name, overrides, config)
    if error:
        raise ValueError(error)
    params = {**SCENARIOS[name].parameters, **overrides}
    outcome = SCENARIOS[name].run(params, config)
    outcome.name, outcome.parameters = name, params
    return outcome


def scenario_names() -> list[str]:
    return sorted(SCENARIOS)


# ---------------------------------------------------------------------------
# Randomized suites
# ---------------------------------------------------------------------------

# Draws per stacked block: the suites' memory stays bounded for any budget,
# and the same seed and budget always give the same blocks.
SUITE_BLOCK = 1024
QUBIT = 2


def _block_sizes(draws: int):
    for start in range(0, draws, SUITE_BLOCK):
        yield min(SUITE_BLOCK, draws - start)


def random_qubit_schemes(rng: np.random.Generator, n: int):
    """n random schemes on a qubit object and a qubit probe, stacked.

    Returns the Haar couplings (n, 4, 4), the probe states (n, 2, 2), and
    the sharp pointers' eigenvalues (n, 2), eigenvector columns (n, 2, 2)
    and projections (n, 2, 2, 2).  A pointer whose two (ascending)
    eigenvalues the merge rule ``splits_from`` would merge into one outcome
    is drawn again.  Every
    draw is valid by construction, so none is checked.
    """
    coupling = opalg.haar_unitary(QUBIT * QUBIT, rng, n)
    sigma = opalg.random_density(QUBIT, rng, n=n)
    values, vectors = np.linalg.eigh(opalg.random_hermitian(QUBIT, rng, n=n))
    while True:
        merged = np.flatnonzero(~splits_from(values[:, 1], values[:, 0]))
        if not merged.size:
            break
        values[merged], vectors[merged] = np.linalg.eigh(
            opalg.random_hermitian(QUBIT, rng, n=len(merged))
        )
    effects = opalg.projector(np.moveaxis(vectors, -1, -2))
    return coupling, sigma, values, vectors, effects


def _ozawa_draws(rng: np.random.Generator, n: int):
    """One block of the Ozawa/Branciard suite: schemes, targets a, b and pure states."""
    u, sigma, values, _, effects = random_qubit_schemes(rng, n)
    a = opalg.random_hermitian(QUBIT, rng, n=n)
    b = opalg.random_hermitian(QUBIT, rng, n=n)
    rho = opalg.projector(opalg.haar_state(QUBIT, rng, n))
    return u, sigma, values, effects, a, b, rho


def ozawa_branciard_suite(seed: int = 0, draws: int = 10000) -> dict:
    """Randomized qubit error-disturbance suite: both relations must hold."""
    rng = np.random.default_rng(seed)
    min_ozawa = min_branciard = math.inf
    violations = 0
    for n in _block_sizes(draws):
        u, sigma, values, effects, a, b, rho = _ozawa_draws(rng, n)
        figures = error_disturbance_figures(
            u, sigma, pointer_operator(values, effects), a, b, rho
        )
        oz, br = ozawa_verdict(*figures), branciard_verdict(*figures)
        min_ozawa = min(min_ozawa, float(oz.slack.min()))
        min_branciard = min(min_branciard, float(br.slack.min()))
        violations += int(np.count_nonzero(~(oz.holds & br.holds)))
    return {
        "draws": draws,
        "min_ozawa_slack": min_ozawa,
        "min_branciard_slack": min_branciard,
        "violations": violations,
    }


def _eps_form_draws(rng: np.random.Generator, n: int):
    """One block of the form-equivalence suite: schemes, a target a and mixed states."""
    u, sigma, values, vectors, effects = random_qubit_schemes(rng, n)
    a = opalg.random_hermitian(QUBIT, rng, n=n)
    rho = opalg.random_density(QUBIT, rng, n=n)
    return u, sigma, values, vectors, effects, a, rho


def eps_form_routes(u, sigma, values, vectors, effects, a, rho) -> tuple[np.ndarray, ...]:
    """Noise error of stacked schemes by the scheme, moment and three-state routes.

    The last two read the moment operators of the induced observable, whose
    effects come one per pointer eigenvector column of ``vectors``.
    """
    induced = induced_effects(u, sigma, vectors)
    m1, m2 = (effect_moment(values, induced, k) for k in (1, 2))
    scheme_route = scheme_noise_error(u, sigma, pointer_operator(values, effects), a, rho)
    return scheme_route, moment_form_eps(a, m1, m2, rho), three_state_form_eps(a, m1, m2, rho)


def eps_form_equivalence_suite(seed: int = 0, draws: int = 1000) -> dict:
    """Scheme, moment and three-state error routes across random scenarios."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for n in _block_sizes(draws):
        e1, e2, e3 = eps_form_routes(*_eps_form_draws(rng, n))
        gaps = np.stack([np.abs(e1 - e2), np.abs(e2 - e3), np.abs(e1 - e3)])
        worst = max(worst, float(gaps.max()))
    return {"draws": draws, "max_form_gap": worst}


def naive_falsification_cases() -> list[RelationVerdict]:
    """The naive-product verdicts of the bundled scenarios that defeat the product bound."""
    return [run_scenario(name).verdicts[0] for name in ("identity-scheme", "swap-scheme")]


def feasible_models(rng: np.random.Generator, count: int) -> tuple[np.ndarray, np.ndarray]:
    """Marginal Bloch vectors c, d (count, 3) of random feasible covariant joint models.

    Candidate rows are drawn uniformly from the cube [-1, 1]^3 x [-1, 1]^3
    and kept, in draw order, when ||c + d|| + ||c - d|| <= 2.  About one
    candidate in nine is feasible, so each round draws nine per missing row.
    A kept row's interval [lo, hi] from ``gamma0_interval`` is nonempty, and
    at its midpoint every joint effect has smallest eigenvalue (hi - lo)/8,
    so the rows are valid joint models by construction and are not checked.
    """
    c, d = np.empty((count, 3)), np.empty((count, 3))
    filled = 0
    while filled < count:
        cand_c, cand_d = rng.uniform(-1, 1, (2, 9 * (count - filled), 3))
        lo, hi = gamma0_interval(cand_c, cand_d)
        keep = np.flatnonzero(lo <= hi)[:count - filled]
        c[filled:filled + keep.size], d[filled:filled + keep.size] = cand_c[keep], cand_d[keep]
        filled += keep.size
    return c, d


def unbiased_model_suite(seed: int = 0, draws: int = 1000) -> dict:
    """Random feasible covariant models: the unbiased trade-offs must hold."""
    rng = np.random.default_rng(seed)
    mins = {"unbiased-intrinsic-noise": math.inf, "unbiased-output-spread": math.inf,
            "unbiased-error-product": math.inf}
    for n in _block_sizes(draws):
        c, d = feasible_models(rng, n)
        rho = opalg.random_density(QUBIT, rng, n=n)
        for name, verdict in unbiased_tradeoffs(c, d, rho).items():
            mins[name] = min(mins[name], float(verdict.slack.min()))
    return {"draws": draws, **{f"min_slack:{k}": v for k, v in mins.items()}}


def epsno_sum_suite(seed: int = 0, draws: int = 10000) -> dict:
    """Random feasible covariant models for EZ and EX: the error-sum bound must hold."""
    rng = np.random.default_rng(seed)
    worst = math.inf
    for n in _block_sizes(draws):
        c, d = feasible_models(rng, n)
        verdict = qubit_epsno_sum_verdict(EZ, EX, c, d)
        worst = min(worst, float(verdict.slack.min()))
    return {"draws": draws, "min_slack": worst}
