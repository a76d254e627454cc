import math

import numpy as np
import pytest

from qmu import opalg
from qmu.relations import check_branciard_scheme, check_ozawa

from qmu.scenarios import (
    RunConfig,
    SCENARIOS,
    TRIPLE_W2_AT_NULL_STATE,
    _random_scheme,
    eps_form_equivalence_suite,
    naive_falsification_cases,
    ozawa_branciard_suite,
    run_scenario,
    scenario_names,
    triple_eps_highprec,
    unbiased_model_suite,
)


def test_every_bundled_scenario_passes():
    for name in scenario_names():
        outcome = run_scenario(name)
        assert outcome.passed, (name, [c for c in outcome.checks if not c["pass"]])


def test_scenario_names_unique_and_registered():
    names = scenario_names()
    assert len(names) == len(set(names))
    assert set(names) == set(SCENARIOS)


def test_unknown_scenario_and_override():
    with pytest.raises(KeyError):
        run_scenario("no-such-scenario")
    with pytest.raises(KeyError):
        run_scenario("qubit-approx-smearing", overrides={"bogus": 1})


def test_triple_highprec_zero():
    assert triple_eps_highprec() < 1e-10


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


def test_ozawa_branciard_suite_is_the_min_over_per_draw_checks():
    rng = np.random.default_rng(3)
    ozawa, branciard = [], []
    for _ in range(40):
        scheme = _random_scheme(rng)
        a = opalg.random_hermitian(2, rng)
        b = opalg.random_hermitian(2, rng)
        rho = opalg.projector(opalg.haar_state(2, rng))
        ozawa.append(check_ozawa(scheme, a, b, rho).slack)
        branciard.append(check_branciard_scheme(scheme, a, b, rho).slack)
    suite = ozawa_branciard_suite(seed=3, draws=40)
    assert suite["min_ozawa_slack"] == min(ozawa)
    assert suite["min_branciard_slack"] == min(branciard)
    assert suite["violations"] == 0
