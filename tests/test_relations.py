import math

import numpy as np
import pytest

from qmu import opalg
from qmu.grid import GridSystem, gaussian_state, ground_state
from qmu.observables import spectral_measure
from qmu.opalg import SIGMA_X, SIGMA_Z, bloch_state, projector
from qmu.relations import (
    SLACK_TOL,
    QubitJointModel,
    branciard_verdict,
    check_branciard_joint,
    check_branciard_scheme,
    check_naive_heisenberg,
    check_ozawa,
    check_unbiased_tradeoffs,
    commutator_expectation,
    phase_space_relation_check,
    qubit_epsno_sum_check,
    qubit_error_bound,
    qubit_incompatibility_bound,
    qubit_joint_feasible,
)
from qmu.schemes import identity_scheme, swap_scheme

EX = np.array([1.0, 0.0, 0.0])
EY = np.array([0.0, 1.0, 0.0])
EZ = np.array([0.0, 0.0, 1.0])


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


def test_unbiased_tradeoffs_hold_and_reject_bias():
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
    model = qubit_joint_feasible(c, d)
    verdicts = check_unbiased_tradeoffs(model, bloch_state(0.9 * EY))
    assert abs(verdicts["unbiased-intrinsic-noise"].witnesses["noise_c"] - 0.75) < 1e-10
    assert verdicts["unbiased-output-spread"].note is not None
    with pytest.raises(ValueError):
        check_unbiased_tradeoffs(model, bloch_state(EY), a_op=SIGMA_Z)


def test_unbiased_optimal_orthogonal_saturates_noise_product():
    model = qubit_joint_feasible(EZ / math.sqrt(2), EX / math.sqrt(2))
    rho = bloch_state(EY)  # r along a x b
    verdicts = check_unbiased_tradeoffs(model, rho)
    v = verdicts["unbiased-intrinsic-noise"]
    assert abs(v.lhs - 0.25) < 1e-10
    assert abs(v.rhs - 0.25) < 1e-10  # tight here


def test_qubit_joint_feasibility_cases():
    model = qubit_joint_feasible(np.zeros(3), np.zeros(3))
    assert model is not None and abs(model.gamma0) < 1e-12
    for g in model.effects():
        np.testing.assert_allclose(g, 0.25 * np.eye(2), atol=1e-12)
    assert qubit_joint_feasible(EZ, EX) is None  # 2 sqrt 2 > 2
    model = qubit_joint_feasible(EZ / math.sqrt(2), EX / math.sqrt(2))
    assert model is not None and abs(model.gamma0) < 1e-12
    for g in model.effects():
        evals = np.linalg.eigvalsh(g)
        assert abs(evals[0]) < 1e-12 and abs(evals[1] - 0.5) < 1e-12


def test_qubit_joint_model_psd_enforced():
    with pytest.raises(ValueError):
        QubitJointModel(a=EZ, b=EX, c=EZ, d=EX, gamma0=0.0)


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
        assert np.linalg.eigvalsh(model.effects()).min() >= -1e-10
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
    v = qubit_epsno_sum_check(model, bloch_state(0.4 * EY))
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
