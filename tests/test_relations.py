import math
import warnings

import numpy as np
import pytest

from closed_forms import joint_effects
from qmu import opalg
from qmu.grid import GridSystem, gaussian_state, ground_state
from qmu.errmetrics import eps_no_from_moments
from qmu.observables import (
    BlochObservable,
    distribution_of,
    intrinsic_noise,
    moment_operator,
    spectral_measure,
)
from qmu.opalg import SIGMA_X, SIGMA_Z, bloch_state, projector
from qmu.relations import (
    PSD_TOL,
    SLACK_TOL,
    QubitJointModel,
    branciard_joint,
    branciard_verdict,
    check_branciard_joint,
    check_branciard_scheme,
    check_joint_effects,
    check_naive_heisenberg,
    check_ozawa,
    check_unbiased_tradeoffs,
    commutator_expectation,
    gamma0_interval,
    phase_space_relation_check,
    qubit_epsno_sum_check,
    qubit_epsno_sum_verdict,
    qubit_error_bound,
    qubit_incompatibility_bound,
    qubit_joint_feasible,
    unbiased_tradeoffs,
    unbiased_verdicts,
)
from qmu.scenarios import feasible_models
from qmu.schemes import identity_scheme, swap_scheme

EX = np.array([1.0, 0.0, 0.0])
EY = np.array([0.0, 1.0, 0.0])
EZ = np.array([0.0, 0.0, 1.0])



@pytest.mark.parametrize("checker", [check_ozawa, check_naive_heisenberg, check_branciard_scheme])
def test_scheme_checkers_reject_malformed_targets(checker):
    scheme = swap_scheme(spectral_measure(SIGMA_Z), bloch_state(EY))
    rho = bloch_state(EZ)
    with pytest.raises(ValueError, match="not Hermitian"):
        checker(scheme, SIGMA_Z, np.array([[0.0, 1.0], [0.0, 0.0]]), rho)
    with pytest.raises(ValueError, match="object space"):
        checker(scheme, np.eye(3), SIGMA_X, rho)
    with pytest.raises(ValueError, match="object space"):
        checker(scheme, SIGMA_Z, np.eye(4), rho)

def random_feasible_pair(rng):
    while True:
        c = rng.uniform(-1, 1, 3)
        d = rng.uniform(-1, 1, 3)
        if np.linalg.norm(c + d) + np.linalg.norm(c - d) <= 2:
            return c, d


def random_qubit_scheme(rng):
    from qmu.schemes import MeasurementScheme

    pointer = spectral_measure(opalg.random_hermitian(2, rng))
    while pointer.n_outcomes < 2:
        pointer = spectral_measure(opalg.random_hermitian(2, rng))
    return MeasurementScheme(
        probe_state=opalg.random_density(2, rng),
        coupling=opalg.haar_unitary(4, rng),
        pointer=pointer,
    )


def test_ozawa_swap_and_identity_reduced_forms():
    rng = np.random.default_rng(0)
    sigma = opalg.random_density(2, rng)
    # swap at a sigma_z eigenstate: eps = 0, lhs reduces to Delta(A) eta = 0 = rhs
    v = check_ozawa(swap_scheme(spectral_measure(SIGMA_Z), sigma), SIGMA_Z, SIGMA_X,
                    bloch_state(EZ))
    assert v.holds and abs(v.witnesses["eps"]) < 1e-10
    # identity: eta = 0, lhs = eps Delta(B) >= rhs
    v = check_ozawa(identity_scheme(spectral_measure(SIGMA_Z), sigma), SIGMA_Z, SIGMA_X,
                    bloch_state(EY))
    assert v.holds and abs(v.witnesses["eta"]) < 1e-10
    assert v.lhs >= v.rhs - 1e-12


def test_ozawa_randomized_no_violations():
    rng = np.random.default_rng(1)
    for _ in range(300):
        scheme = random_qubit_scheme(rng)
        a = opalg.random_hermitian(2, rng)
        b = opalg.random_hermitian(2, rng)
        rho = opalg.random_density(2, rng)
        assert check_ozawa(scheme, a, b, rho).holds


def test_naive_heisenberg_violated_on_bundled_schemes():
    rng = np.random.default_rng(2)
    sigma = opalg.random_density(2, rng)
    rho = bloch_state(EY)  # nonzero commutator expectation for (sigma_z, sigma_x)
    cases = [
        (identity_scheme(spectral_measure(SIGMA_Z), sigma), SIGMA_Z, SIGMA_X, rho),
        (swap_scheme(spectral_measure(SIGMA_Z), bloch_state(EY)), SIGMA_Z, SIGMA_X, rho),
    ]
    for scheme, a, b, r in cases:
        v = check_naive_heisenberg(scheme, a, b, r)
        assert v.lhs < v.rhs - 0.5  # decisively violated, not marginal


def test_branciard_scheme_holds_on_bundled_and_random():
    rng = np.random.default_rng(3)
    sigma = opalg.random_density(2, rng)
    rho = bloch_state(EY)
    assert check_branciard_scheme(
        identity_scheme(spectral_measure(SIGMA_Z), sigma), SIGMA_Z, SIGMA_X, rho
    ).holds
    assert check_branciard_scheme(
        swap_scheme(spectral_measure(SIGMA_Z), sigma), SIGMA_Z, SIGMA_X, rho
    ).holds
    for _ in range(200):
        scheme = random_qubit_scheme(rng)
        a = opalg.random_hermitian(2, rng)
        b = opalg.random_hermitian(2, rng)
        rho = projector(opalg.haar_state(2, rng))
        assert check_branciard_scheme(scheme, a, b, rho).holds


def test_branciard_rejects_mixed_states():
    rng = np.random.default_rng(4)
    scheme = random_qubit_scheme(rng)
    with pytest.raises(ValueError):
        check_branciard_scheme(scheme, SIGMA_Z, SIGMA_X, 0.5 * np.eye(2))


def test_branciard_joint_models_random():
    rng = np.random.default_rng(5)
    worst = math.inf
    for _ in range(200):
        c, d = random_feasible_pair(rng)
        model = qubit_joint_feasible(c, d, a=EZ, b=EX)
        assert model is not None
        rho = projector(opalg.haar_state(2, rng))
        v = check_branciard_joint(model, rho)
        assert v.holds
        worst = min(worst, v.slack)
    assert worst >= -1e-9


def test_branciard_degenerate_commuting_targets():
    model = qubit_joint_feasible(0.7 * EZ, 0.7 * EZ, a=EZ, b=EZ)
    v = check_branciard_joint(model, bloch_state(EX))
    assert v.rhs == 0.0 and v.holds


def test_unbiased_tradeoffs_hold():
    rng = np.random.default_rng(6)
    for _ in range(100):
        c, d = random_feasible_pair(rng)
        model = qubit_joint_feasible(c, d, a=EZ, b=EX)
        rho = opalg.random_density(2, rng)
        verdicts = check_unbiased_tradeoffs(model, rho)
        for v in verdicts.values():
            assert v.holds, v
    # closed forms: <V(C)> = 1 - ||c||^2
    c, d = 0.5 * EZ, 0.5 * EX
    model = qubit_joint_feasible(c, d, a=EZ, b=EX)
    verdicts = check_unbiased_tradeoffs(model, bloch_state(0.9 * EY))
    assert abs(verdicts["unbiased-intrinsic-noise"].witnesses["noise_c"] - 0.75) < 1e-10
    assert verdicts["unbiased-output-spread"].note is not None


def test_unbiased_optimal_orthogonal_saturates_noise_product():
    model = qubit_joint_feasible(EZ / math.sqrt(2), EX / math.sqrt(2), a=EZ, b=EX)
    rho = bloch_state(EY)  # r along a x b
    verdicts = check_unbiased_tradeoffs(model, rho)
    v = verdicts["unbiased-intrinsic-noise"]
    assert abs(v.lhs - 0.25) < 1e-10
    assert abs(v.rhs - 0.25) < 1e-10  # tight here


def generic_covariant_figures(a, b, c, d, rho) -> dict[str, float]:
    """Every figure of the covariant kernels for one model, by the generic observable route.

    The marginals are built as dense observables and their errors, spreads
    and intrinsic noise come from their effects, one model at a time.
    """
    a_op, b_op = opalg.bloch_operator(a), opalg.bloch_operator(b)
    c_obs = BlochObservable(1.0, c).to_observable()
    d_obs = BlochObservable(1.0, d).to_observable()
    c_mean, d_mean = moment_operator(c_obs, 1), moment_operator(d_obs, 1)

    def comm(x, y):
        return abs(complex(np.trace(rho @ (x @ y - y @ x))))

    return {
        "eps_a": eps_no_from_moments(a_op, c_obs, rho),
        "eps_b": eps_no_from_moments(b_op, d_obs, rho),
        "dev_a": distribution_of(spectral_measure(a_op), rho).std,
        "dev_b": distribution_of(spectral_measure(b_op), rho).std,
        "comm": comm(a_op, b_op),
        "noise_c": opalg.expectation(intrinsic_noise(c_obs), rho),
        "noise_d": opalg.expectation(intrinsic_noise(d_obs), rho),
        "dev_c": distribution_of(c_obs, rho).std,
        "dev_d": distribution_of(d_obs, rho).std,
        "unbiased_eps_a": eps_no_from_moments(c_mean, c_obs, rho),
        "unbiased_eps_b": eps_no_from_moments(d_mean, d_obs, rho),
        "unbiased_comm": comm(c_mean, d_mean),
    }


def covariant_kernel_cases():
    """60 seeded models with random unit targets, then a = +-b, zero marginals and optima."""
    rng = np.random.default_rng(21)
    a, b = rng.standard_normal((2, 60, 3))
    a /= np.linalg.norm(a, axis=-1, keepdims=True)
    b /= np.linalg.norm(b, axis=-1, keepdims=True)
    c, d = feasible_models(rng, 60)
    rows = list(zip(a, b, c, d))
    rows += [(EZ, EZ, 0.7 * EZ, 0.7 * EZ), (EZ, -EZ, 0.5 * EZ, -0.5 * EZ),
             (EZ, EX, np.zeros(3), np.zeros(3)), (EZ, EZ, np.zeros(3), np.zeros(3))]
    for theta in (0.0, 0.3, math.pi / 2, math.pi):
        _, _, model = qubit_error_bound(EZ, math.cos(theta) * EZ + math.sin(theta) * EX)
        rows.append((model.a, model.b, model.c, model.d))
    a, b, c, d = (np.array(col) for col in zip(*rows))
    pure = opalg.projector(opalg.haar_state(2, rng, len(rows)))
    return a, b, c, d, pure, opalg.random_density(2, rng, n=len(rows))


def test_covariant_kernels_match_the_generic_reference():
    a, b, c, d, pure, mixed = covariant_kernel_cases()
    branciard = branciard_joint(a, b, c, d, pure)
    unbiased = unbiased_tradeoffs(c, d, mixed)
    eps_sum = qubit_epsno_sum_verdict(a, b, c, d)
    for k in range(len(a)):
        ref = generic_covariant_figures(a[k], b[k], c[k], d[k], pure[k])
        oracle = branciard_verdict(*(ref[f] for f in ("eps_a", "eps_b", "dev_a", "dev_b", "comm")))
        assert abs(branciard.lhs[k] - oracle.lhs) <= 1e-12
        assert abs(branciard.rhs[k] - oracle.rhs) <= 1e-12
        for name in ("eps_a", "eps_b"):
            assert abs(eps_sum.witnesses[name][k] - ref[name]) <= 1e-12
        ref = generic_covariant_figures(a[k], b[k], c[k], d[k], mixed[k])
        oracles = unbiased_verdicts(*(ref[f] for f in (
            "unbiased_comm", "noise_c", "noise_d", "dev_c", "dev_d", "unbiased_eps_a",
            "unbiased_eps_b")))
        for name, oracle in oracles.items():
            assert abs(unbiased[name].lhs[k] - oracle.lhs) <= 1e-12
            assert abs(unbiased[name].rhs[k] - oracle.rhs) <= 1e-12


def test_scalar_covariant_checkers_are_the_stacked_kernels_on_one_row():
    a, b, c, d, pure, mixed = covariant_kernel_cases()
    branciard = branciard_joint(a, b, c, d, pure)
    unbiased = unbiased_tradeoffs(c, d, mixed)
    for k in range(0, len(a), 5):
        model = qubit_joint_feasible(c[k], d[k], a=a[k], b=b[k])
        pairs = [(check_branciard_joint(model, pure[k]), branciard)]
        scalar_unbiased = check_unbiased_tradeoffs(model, mixed[k])
        pairs += [(v, unbiased[name]) for name, v in scalar_unbiased.items()]
        for scalar, stacked in pairs:
            assert isinstance(scalar.lhs, float) and isinstance(scalar.rhs, float)
            assert abs(scalar.lhs - stacked.lhs[k]) <= 1e-12
            assert abs(scalar.rhs - stacked.rhs[k]) <= 1e-12
            assert scalar.witnesses.keys() == stacked.witnesses.keys()


def test_qubit_joint_feasibility_cases():
    model = qubit_joint_feasible(np.zeros(3), np.zeros(3), a=EZ, b=EX)
    assert model is not None and abs(model.gamma0) < 1e-12
    for g in joint_effects(model.c, model.d, model.gamma0):
        np.testing.assert_allclose(g, 0.25 * np.eye(2), atol=1e-12)
    assert qubit_joint_feasible(EZ, EX, a=EZ, b=EX) is None  # 2 sqrt 2 > 2
    model = qubit_joint_feasible(EZ / math.sqrt(2), EX / math.sqrt(2), a=EZ, b=EX)
    assert model is not None and abs(model.gamma0) < 1e-12
    for g in joint_effects(model.c, model.d, model.gamma0):
        evals = np.linalg.eigvalsh(g)
        assert abs(evals[0]) < 1e-12 and abs(evals[1] - 0.5) < 1e-12


def test_qubit_joint_model_psd_enforced():
    with pytest.raises(ValueError):
        QubitJointModel(a=EZ, b=EX, c=EZ, d=EX, gamma0=0.0)


def _passes_joint_effects(c, d, gamma0) -> bool:
    try:
        check_joint_effects(c, d, gamma0)
    except ValueError as exc:
        assert str(exc).startswith("joint effect not positive (min eigenvalue ")
        return False
    return True


def test_check_joint_effects_passes_exactly_where_the_effects_are_positive():
    """The closed form against ``eigvalsh`` of the four effects, row by row."""
    rng = np.random.default_rng(30)
    c, d = rng.uniform(-0.8, 0.8, (2, 10_000, 3))  # about a third jointly measurable
    lo, hi = gamma0_interval(c, d)
    gamma0 = lo + rng.uniform(-0.25, 1.25, lo.shape) * (hi - lo)
    # Each end of feasible intervals, 3e-10 past it (smallest eigenvalue -7.5e-11,
    # which passes) and 5e-10 past it (-1.25e-10, which fails).
    edge_c, edge_d = feasible_models(rng, 100)
    edge_lo, edge_hi = gamma0_interval(edge_c, edge_d)
    edges = [edge_lo, edge_hi, edge_lo - 3e-10, edge_hi + 3e-10, edge_lo - 5e-10,
             edge_hi + 5e-10]
    c = np.concatenate([c, *[edge_c] * len(edges)])
    d = np.concatenate([d, *[edge_d] * len(edges)])
    gamma0 = np.concatenate([gamma0, *edges])
    smallest = np.linalg.eigvalsh(joint_effects(c, d, gamma0)).min(axis=(-2, -1))
    expected = smallest >= -PSD_TOL
    assert 0.2 < expected[:10_000].mean() < 0.8
    assert expected[10_000:10_400].all() and not expected[10_400:].any()
    assert [_passes_joint_effects(*row) for row in zip(c, d, gamma0)] == expected.tolist()
    assert _passes_joint_effects(c[expected], d[expected], gamma0[expected])
    assert not _passes_joint_effects(c, d, gamma0)
    # A NaN anywhere in a row fails it, alone or in a stack of valid rows.
    valid = [edge_c[:3], edge_d[:3], 0.5 * (edge_lo + edge_hi)[:3]]
    assert _passes_joint_effects(*valid)
    for k, field in ((0, "c"), (1, "d"), (2, "gamma0")):
        rows = [v.copy() for v in valid]
        rows[k][1] = np.nan
        assert not _passes_joint_effects(*rows), field
        assert not _passes_joint_effects(*(r[1] for r in rows)), field


@pytest.mark.parametrize("field, value", [
    ("c", [np.nan, 0.0, 0.0]), ("gamma0", np.nan), ("gamma0", np.inf), ("a", [np.nan, 0.0, 0.0]),
    ("d", [np.inf, 0.0, 0.0]),
])
def test_qubit_joint_model_rejects_non_finite_fields(field, value):
    fields = {"a": EZ, "b": EX, "c": 0.5 * EZ, "d": 0.5 * EX, "gamma0": 0.0, field: value}
    with pytest.raises(ValueError):
        QubitJointModel(**fields)


@pytest.mark.parametrize("c, d, a, b", [
    (0.5 * EZ, 0.5 * EX, 2 * EZ, EX),
    (0.5 * EZ, 0.5 * EX, EZ, [np.nan, 0.0, 0.0]),
    ([np.nan, 0.0, 0.0], 0.5 * EX, EZ, EX),
])
def test_qubit_joint_feasible_rejects_invalid_input(c, d, a, b):
    with pytest.raises(ValueError):
        qubit_joint_feasible(c, d, a, b)


def test_qubit_joint_feasible_returns_none_only_past_the_interval():
    assert qubit_joint_feasible(1.5 * EZ, np.zeros(3), a=EZ, b=EX) is None  # ||c|| > 1
    # ||c + d|| + ||c - d|| = 2 (1 + 1e-13): empty by less than 1e-12, so feasible
    model = qubit_joint_feasible((1 + 1e-13) * EZ, np.zeros(3), a=EZ, b=EX)
    assert model is not None and model.gamma0 == 0.0


@pytest.mark.parametrize("scale", [1e300, 1e-170, 1e-320])
def test_qubit_error_bound_takes_targets_at_any_finite_scale(scale):
    bound, achieved, model = qubit_error_bound(scale * EZ, EX)
    ref_bound, ref_achieved, ref_model = qubit_error_bound(EZ, EX)
    assert (bound, achieved) == (ref_bound, ref_achieved)
    assert abs(bound - (4 - 2 * math.sqrt(2))) < 1e-15
    for name in ("a", "b", "c", "d", "gamma0"):
        np.testing.assert_array_equal(getattr(model, name), getattr(ref_model, name))


@pytest.mark.parametrize("a", [np.zeros(3), [np.nan, 0.0, 1.0], [np.inf, 0.0, 0.0]])
def test_qubit_error_bound_rejects_a_target_with_no_direction(a):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError):
            qubit_error_bound(a, EX)


def slsqp_joint_optimum(a, b, grid_points: int = 41):
    """Oracle for ``qubit_error_bound``: a grid over c = s a, d = t b, then SLSQP.

    Minimises the summed squared worst-case deviations 2 ||a - c|| + 2 ||b - d||
    of covariant marginals over jointly measurable (c, d), i.e.
    ||c + d|| + ||c - d|| <= 2, from the best grid point and one fixed start;
    every candidate is scaled back into the feasible set.  Returns
    (achieved, c, d) for unit vectors a and b.
    """
    from scipy.optimize import minimize

    def objective(x):
        return 2.0 * np.linalg.norm(a - x[:3]) + 2.0 * np.linalg.norm(b - x[3:])

    def constraint(x):
        return 2.0 - np.linalg.norm(x[:3] + x[3:]) - np.linalg.norm(x[:3] - x[3:])

    def project(x):
        total = 2.0 - constraint(x)
        return x if total <= 2.0 else x * (2.0 / total)

    best = min(
        (project(np.concatenate([s * a, t * b]))
         for s in np.linspace(0.0, 1.0, grid_points)
         for t in np.linspace(0.0, 1.0, grid_points)),
        key=objective,
    )
    for x0 in (best, np.concatenate([0.5 * a + 0.2 * b, 0.5 * b + 0.2 * a])):
        res = minimize(
            objective, x0, method="SLSQP",
            constraints=[{"type": "ineq", "fun": constraint}],
            options={"maxiter": 500, "ftol": 1e-12},
        )
        best = min(best, project(res.x), key=objective)
    return objective(best), best[:3], best[3:]


def test_qubit_error_bound_orthogonal():
    bound, achieved, model = qubit_error_bound(EZ, EX)
    assert abs(bound - (4 - 2 * math.sqrt(2))) < 1e-12
    assert achieved - bound < 1e-9
    assert achieved >= bound - 1e-9
    np.testing.assert_allclose(model.c, EZ / math.sqrt(2), atol=1e-3)
    np.testing.assert_allclose(model.d, EX / math.sqrt(2), atol=1e-3)


def test_qubit_error_bound_degenerate_directions():
    bound, achieved, model = qubit_error_bound(EZ, EZ)
    assert abs(bound) < 1e-12 and achieved < 1e-9
    np.testing.assert_allclose(model.c, EZ, atol=1e-6)
    bound, achieved, _ = qubit_error_bound(EZ, -EZ)
    assert abs(bound) < 1e-12 and achieved < 1e-9


def test_qubit_error_bound_angle_sweep():
    for theta in np.linspace(0.05, math.pi / 2, 12):
        b = math.cos(theta) * EZ + math.sin(theta) * EX
        bound, achieved, model = qubit_error_bound(EZ, b)
        assert achieved >= bound - 1e-9
        assert achieved - bound < 1e-9


def test_qubit_error_bound_closed_form_matches_the_slsqp_oracle():
    rng = np.random.default_rng(11)
    pairs = [(EZ, EZ), (EZ, -EZ), (EZ, EX)]
    pairs += [(rng.standard_normal(3), rng.standard_normal(3)) for _ in range(24)]
    for a, b in pairs:
        bound, achieved, model = qubit_error_bound(a, b)
        assert np.linalg.eigvalsh(joint_effects(model.c, model.d, model.gamma0)).min() >= -1e-10
        assert achieved >= bound - SLACK_TOL
        oracle, _, _ = slsqp_joint_optimum(model.a, model.b)
        assert abs(achieved - oracle) <= 1e-9


def test_qubit_error_bound_attains_the_incompatibility_bound():
    rng = np.random.default_rng(12)
    for _ in range(500):
        a, b = rng.standard_normal(3), rng.standard_normal(3)
        bound, achieved, _ = qubit_error_bound(a, b)
        unit_a, unit_b = a / np.linalg.norm(a), b / np.linalg.norm(b)
        assert abs(achieved - qubit_incompatibility_bound(unit_a, unit_b)) <= 1e-12
        assert bound == qubit_incompatibility_bound(unit_a, unit_b)


def test_qubit_epsno_sum_bound():
    rng = np.random.default_rng(7)
    model = qubit_joint_feasible(EZ / math.sqrt(2), EX / math.sqrt(2), a=EZ, b=EX)
    v = qubit_epsno_sum_check(model)
    assert v.holds
    assert abs(v.rhs - (2 - math.sqrt(2))) < 1e-9
    trivial = qubit_joint_feasible(EZ, EZ, a=EZ, b=EZ)
    v0 = qubit_epsno_sum_check(trivial)
    assert abs(v0.lhs) < 1e-9 and abs(v0.rhs) < 1e-12
    for _ in range(300):
        c, d = random_feasible_pair(rng)
        model = qubit_joint_feasible(c, d, a=EZ, b=EX)
        assert qubit_epsno_sum_check(model).holds


def test_commutator_expectation():
    assert abs(commutator_expectation(SIGMA_Z, SIGMA_X, bloch_state(EY)) - 2.0) < 1e-12
    assert commutator_expectation(SIGMA_Z, SIGMA_Z, bloch_state(EY)) < 1e-12


def test_branciard_verdict_tight_at_double_zero():
    v = branciard_verdict(0.0, 0.0, 1.0, 1.0, 0.0)
    assert v.lhs == 0.0 and v.rhs == 0.0 and v.holds


def test_phase_space_relations():
    grid = GridSystem(1024, 12.0)
    first, second = phase_space_relation_check(grid, ground_state(grid))
    assert first.holds and second.holds
    assert abs(first.lhs - first.rhs) < 1e-6   # unbiased: equality
    assert abs(second.lhs - 0.25) < 1e-4       # ground state saturates
    first_d, second_d = phase_space_relation_check(grid, gaussian_state(grid, center=1.2))
    assert first_d.lhs > first_d.rhs + 0.1     # bias makes it strict
    assert second_d.holds
    first_s, second_s = phase_space_relation_check(grid, gaussian_state(grid, width=2.0))
    assert abs(second_s.lhs - 0.25) < 1e-4
    assert first_s.lhs >= 0.25 - 1e-9
