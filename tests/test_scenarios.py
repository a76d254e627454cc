import math
import sys

import numpy as np
import pytest

from qmu import opalg
from qmu.cli import main
from qmu.errmetrics import eps_no_from_moments, eps_no_from_scheme, three_state_eps
from qmu.observables import BlochObservable, SharpObservable
from qmu.relations import (
    QubitJointModel,
    branciard_verdict,
    check_branciard_scheme,
    check_joint_effects,
    check_ozawa,
    error_disturbance_figures,
    gamma0_interval,
    ozawa_verdict,
    qubit_epsno_sum_verdict,
    scheme_noise_error,
)
from qmu.scenarios import (
    EX,
    EZ,
    PARAMETER_ERRORS,
    SUITE_BLOCK,
    RunConfig,
    SCENARIOS,
    TRIPLE_W2_AT_NULL_STATE,
    _eps_form_draws,
    _r2mul,
    _ozawa_draws,
    eps_form_equivalence_suite,
    eps_form_routes,
    epsno_sum_suite,
    feasible_models,
    naive_falsification_cases,
    override_error,
    ozawa_branciard_suite,
    random_qubit_schemes,
    run_scenario,
    scenario_names,
    triple_eps_highprec,
    unbiased_model_suite,
)
from qmu.schemes import MeasurementScheme, induced_observable, pointer_operator

# Rows of a stacked block checked one by one against the scalar routes.
SUBSAMPLE = slice(0, None, 7)


def test_every_bundled_scenario_passes():
    for name in scenario_names():
        outcome = run_scenario(name)
        assert outcome.passed, (name, [c for c in outcome.checks if not c["pass"]])


def test_scenario_names_unique_and_registered():
    names = scenario_names()
    assert len(names) == len(set(names))
    assert set(names) == set(SCENARIOS)


class _RecordingDict(dict):
    """Parameters that remember the keys a runner indexed.

    ``get`` is left unrecorded, so a key read with a runner's own default
    shows as unread.
    """

    def __init__(self, *args):
        super().__init__(*args)
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)


@pytest.mark.parametrize("name", scenario_names())
def test_runners_read_exactly_their_parameters(name):
    # Every default lives in the table: no runner keeps a second default
    # for a key, and no declared parameter goes unread.
    scenario = SCENARIOS[name]
    params = _RecordingDict(scenario.parameters)
    scenario.run(params, RunConfig(grid_n=256, grid_l=10.0))
    assert params.read == set(scenario.parameters)


def test_unknown_scenario_and_override():
    with pytest.raises(KeyError):
        run_scenario("no-such-scenario")
    with pytest.raises(ValueError, match="not a parameter"):
        run_scenario("qubit-approx-smearing", overrides={"bogus": 1})


def test_the_parameter_table_is_total():
    # Every default lies in its domain, and no list-valued or null default
    # falls through to the finite-number rule unnoticed.
    for name, scenario in SCENARIOS.items():
        assert override_error(name, scenario.parameters, RunConfig()) is None, name
        for key, default in scenario.parameters.items():
            assert key in PARAMETER_ERRORS or (
                isinstance(default, (int, float)) and math.isfinite(default)), (name, key)


def test_triple_highprec_zero():
    assert triple_eps_highprec() == 0.0


def test_exact_products_over_z_sqrt2_match_floats():
    def value(z):
        return z[0] + z[1] * math.sqrt(2)

    rng = np.random.default_rng(4)
    for x, y in rng.integers(-9, 10, (50, 2, 2)).tolist():
        assert abs(value(_r2mul(x, y)) - value(x) * value(y)) < 1e-9


@pytest.mark.parametrize("direction, unit", [
    ([1e300, 1e300, 1e300], [1.0, 1.0, 1.0]),
    ([1e-320, 0.0, 0.0], [1.0, 0.0, 0.0]),
])
def test_bloch_directions_at_any_finite_scale(direction, unit):
    # The norm of the first overflows and that of the second underflows.
    far = run_scenario("identity-scheme", overrides={"rho_bloch": direction})
    near = run_scenario("identity-scheme", overrides={"rho_bloch": unit})
    assert far.passed
    assert far.values == pytest.approx(near.values, abs=1e-12)


def test_run_scenario_checks_the_overrides_and_the_configured_grid():
    with pytest.raises(ValueError, match="^rho_bloch: takes a nonzero list"):
        run_scenario("qubit-approx-smearing", overrides={"rho_bloch": [0.0, 0.0, 0.0]})
    # A width-1 Gaussian inside one cell of a wide configured grid: no override to name.
    with pytest.raises(ValueError, match="^width must be at least the grid spacing"):
        run_scenario("husimi-saturation", RunConfig(grid_l=6e153))


def test_triple_frozen_w2_matches():
    outcome = run_scenario("qubit-triple-unbiased-zero")
    assert abs(outcome.values["w2_state"] - TRIPLE_W2_AT_NULL_STATE) < 1e-12


def test_identity_scheme_sigma_override():
    # moving the probe away from the object state makes the distribution
    # error nonzero while the disturbance stays zero
    outcome = run_scenario(
        "identity-scheme", overrides={"sigma_bloch": [0.0, 0.0, 1.0]}
    )
    assert outcome.passed
    assert outcome.values["w2_approximation"] > 1.0
    assert outcome.values["eta_no"] < 1e-10


def test_swap_scheme_expected_block():
    outcome = run_scenario("swap-scheme")
    assert outcome.values["eps_no"] < 1e-10
    assert abs(outcome.values["eta_no"] - math.sqrt(2)) < 1e-9
    assert outcome.values["naive_slack"] < -0.5


def test_scheme_scenarios_falsify_naive_product():
    verdicts = naive_falsification_cases()
    assert len(verdicts) == 2
    assert all(not v.holds for v in verdicts)


def test_husimi_scenarios_with_overrides():
    outcome = run_scenario(
        "husimi-saturation", RunConfig(grid_n=512, grid_l=10.0)
    )
    assert outcome.passed
    outcome = run_scenario("husimi-saturation", overrides={"n": 512, "L": 10.0})
    assert outcome.passed


def test_small_suites():
    oz = ozawa_branciard_suite(seed=1, draws=50)
    assert oz["violations"] == 0
    forms = eps_form_equivalence_suite(seed=1, draws=30)
    assert forms["max_form_gap"] < 1e-9
    unb = unbiased_model_suite(seed=1, draws=30)
    assert all(v >= -1e-9 for k, v in unb.items() if k.startswith("min_slack"))


def test_suites_deterministic():
    a = ozawa_branciard_suite(seed=7, draws=20)
    b = ozawa_branciard_suite(seed=7, draws=20)
    assert a == b


def _scheme(u, sigma, values, effects):
    return MeasurementScheme(sigma, u, SharpObservable(values, effects))


def test_ozawa_branciard_suite_is_the_min_over_per_draw_checks():
    # The suite draws in stacked blocks; the scalar checkers are the oracle
    # on a subsample, and the suite reports the minimum of the stacked slacks.
    u, sigma, values, effects, a, b, rho = _ozawa_draws(np.random.default_rng(3), 40)
    figures = error_disturbance_figures(u, sigma, pointer_operator(values, effects), a, b, rho)
    ozawa, branciard = ozawa_verdict(*figures).slack, branciard_verdict(*figures).slack
    for k in range(40)[SUBSAMPLE]:
        scheme = _scheme(u[k], sigma[k], values[k], effects[k])
        assert abs(check_ozawa(scheme, a[k], b[k], rho[k]).slack - ozawa[k]) <= 1e-12
        assert abs(check_branciard_scheme(scheme, a[k], b[k], rho[k]).slack
                   - branciard[k]) <= 1e-12
    suite = ozawa_branciard_suite(seed=3, draws=40)
    assert suite["min_ozawa_slack"] == ozawa.min()
    assert suite["min_branciard_slack"] == branciard.min()
    assert suite["violations"] == 0


def test_scheme_noise_error_is_the_first_scheme_figure():
    u, sigma, values, effects, a, b, rho = _ozawa_draws(np.random.default_rng(5), 40)
    zf = pointer_operator(values, effects)
    figures = error_disturbance_figures(u, sigma, zf, a, b, rho)
    assert scheme_noise_error(u, sigma, zf, a, rho).tobytes() == figures[0].tobytes()


def test_stacked_eps_routes_match_the_scalar_routes():
    u, sigma, values, vectors, effects, a, rho = _eps_form_draws(np.random.default_rng(11), 60)
    routes = eps_form_routes(u, sigma, values, vectors, effects, a, rho)
    for k in range(60)[SUBSAMPLE]:
        scheme = _scheme(u[k], sigma[k], values[k], effects[k])
        c = induced_observable(scheme)
        scalar = (eps_no_from_scheme(scheme, a[k], rho[k]),
                  eps_no_from_moments(a[k], c, rho[k]),
                  three_state_eps(a[k], c, rho[k]))
        for stacked, oracle in zip(routes, scalar):
            assert abs(stacked[k] - oracle) <= 1e-12


def test_stacked_eps_sum_matches_the_generic_route():
    rng = np.random.default_rng(13)
    c, d = feasible_models(rng, 60)
    stacked = qubit_epsno_sum_verdict(EZ, EX, c, d)
    for k in range(60)[SUBSAMPLE]:
        rho = opalg.random_density(2, rng)
        generic = sum(
            eps_no_from_moments(opalg.bloch_operator(t), BlochObservable(1.0, m).to_observable(),
                                rho)
            for t, m in ((EZ, c[k]), (EX, d[k]))
        )
        assert abs(stacked.lhs[k] - generic) <= 1e-12


def test_feasible_models_are_feasible_and_seeded():
    c, d = feasible_models(np.random.default_rng(5), 300)
    assert c.shape == d.shape == (300, 3)
    lo, hi = gamma0_interval(c, d)
    assert np.all(lo <= hi)
    c2, d2 = feasible_models(np.random.default_rng(5), 300)
    np.testing.assert_array_equal(c, c2)
    np.testing.assert_array_equal(d, d2)
    rng = np.random.default_rng(8)
    for _ in range(3):  # the suites use the rows unchecked, block after block
        c, d = feasible_models(rng, SUITE_BLOCK)
        lo, hi = gamma0_interval(c, d)
        check_joint_effects(c, d, 0.5 * (lo + hi))


def test_a_bad_row_fails_the_block_as_the_scalar_constructors_fail():
    u, sigma, values, _, effects = random_qubit_schemes(np.random.default_rng(6), 8)
    bad_u = u.copy()
    bad_u[5] *= 1.01
    with pytest.raises(ValueError, match="not unitary"):
        _scheme(bad_u[5], sigma[5], values[5], effects[5])
    bad_sigma = sigma.copy()
    bad_sigma[2] *= 1.1
    with pytest.raises(ValueError, match="trace"):
        _scheme(u[2], bad_sigma[2], values[2], effects[2])
    c, d = feasible_models(np.random.default_rng(6), 8)
    c[3], d[3] = EZ, EX  # ||c + d|| + ||c - d|| = 2 sqrt(2) > 2
    lo, hi = gamma0_interval(c, d)
    with pytest.raises(ValueError, match="not positive"):
        check_joint_effects(c, d, 0.5 * (lo + hi))
    with pytest.raises(ValueError, match="not positive"):
        QubitJointModel(a=EZ, b=EX, c=c[3], d=d[3], gamma0=0.5 * (lo[3] + hi[3]))


@pytest.mark.parametrize("draws", [1, SUITE_BLOCK, SUITE_BLOCK + 1])
def test_suites_report_the_budget_as_draws(draws):
    for suite in (ozawa_branciard_suite, eps_form_equivalence_suite,
                  unbiased_model_suite, epsno_sum_suite):
        assert suite(seed=2, draws=draws)["draws"] == draws


def test_suites_and_the_branciard_sweep_call_no_validator(monkeypatch, tmp_path):
    """Every opalg validator and ``check_joint_effects`` raises wherever a qmu module binds it."""
    guarded = (opalg.as_complex_matrix, opalg.check_hermitian, opalg.check_density,
               opalg.check_unitary, check_joint_effects)

    def refuse(fn):
        def called(*args, **kwargs):
            raise AssertionError(f"{fn.__name__} was called")
        return called

    for module_name, module in list(sys.modules.items()):
        if module_name.split(".")[0] == "qmu":
            for attr, value in list(vars(module).items()):
                if any(value is fn for fn in guarded):
                    monkeypatch.setattr(module, attr, refuse(value))
    for suite in (ozawa_branciard_suite, eps_form_equivalence_suite,
                  unbiased_model_suite, epsno_sum_suite):
        suite(seed=4, draws=40)
    assert main(["sweep", "branciard", str(tmp_path / "sweep.csv"), "--points", "40"]) == 0
