"""Acceptance gate: every criterion at its stated tolerance and time budget.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion with its runtime.
"""

import contextlib
import math
import time

import numpy as np

from closed_forms import cauchy_schwarz_bounds, joint_effects, qubit_worst_case_closed_form
from qmu import opalg
from qmu.cli import main as cli_main
from qmu.distributions import (
    Distribution,
    quantile_coupling,
    w2_lp_oracle,
    w2_quantile,
)
from qmu.errmetrics import (
    calibration_error,
    eps_no_from_moments,
    eps_no_from_scheme,
    three_state_eps,
    w2_observables_worst,
    worst_case_deviation,
)
from qmu.grid import (
    GridSystem,
    VonNeumannModel,
    gaussian_state,
    ground_state,
    phase_space_marginals,
    position_observable,
)
from qmu.observables import (
    BlochObservable,
    intrinsic_noise,
    smear,
    spectral_measure,
)
from qmu.opalg import SIGMA_Z, bloch_state, expectation
from qmu.relations import qubit_error_bound
from qmu.scenarios import (
    eps_form_equivalence_suite,
    naive_falsification_cases,
    ozawa_branciard_suite,
    run_scenario,
)
from qmu.schemes import induced_observable


@contextlib.contextmanager
def criterion(num: int, description: str, limit_seconds: float):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"FAIL criterion {num}: {description}")
        raise
    elapsed = time.perf_counter() - start
    assert elapsed < limit_seconds, (
        f"criterion {num} exceeded its {limit_seconds}s budget ({elapsed:.1f}s)"
    )
    print(f"PASS criterion {num}: {description} ({elapsed:.2f}s)")


def test_criterion_1_triple_povm_reproduction():
    with criterion(1, "three-outcome POVM zero-error reproduction", 1.0):
        outcome = run_scenario("qubit-triple-unbiased-zero")
        values = outcome.values
        assert values["moment_identity_residual"] <= 1e-12
        assert values["noise_identity_residual"] <= 1e-12
        assert values["eps_no_highprec"] <= 1e-10
        assert values["w2_state"] > 0.1
        assert outcome.passed


def test_criterion_2_eps_form_equivalence():
    with criterion(2, "noise-error form equivalence (10^3 draws + grid model)", 30.0):
        suite = eps_form_equivalence_suite(seed=0, draws=1000)
        assert suite["max_form_gap"] < 1e-9
        obj = GridSystem(32, 8.0)
        probe = GridSystem(32, 8.0)
        model = VonNeumannModel(obj, probe, 1.0, gaussian_state(probe, width=1.0))
        scheme = model.to_scheme()
        approx = induced_observable(scheme)
        q_op = np.diag(obj.positions.astype(complex))
        psi = gaussian_state(obj, center=0.5, width=0.8)
        rho = np.outer(psi, psi.conj()) * obj.dx
        e_scheme = eps_no_from_scheme(scheme, q_op, rho)
        e_moment = eps_no_from_moments(q_op, approx, rho)
        e_three = three_state_eps(q_op, approx, rho)
        assert abs(e_scheme - e_moment) < 1e-9
        assert abs(e_moment - e_three) < 1e-9


def test_criterion_3_naive_falsified_sound_relations_hold():
    with criterion(3, "product relation falsified; corrected relations hold", 120.0):
        verdicts = naive_falsification_cases()
        assert len(verdicts) == 2
        for v in verdicts:
            assert v.lhs < v.rhs  # eps*eta < |<[A,B]>|/2 on the bundled states
        for name in ("identity-scheme", "swap-scheme"):
            outcome = run_scenario(name)
            slacks = {v.relation: v.slack for v in outcome.verdicts}
            assert slacks["ozawa"] >= -1e-9
            assert slacks["branciard"] >= -1e-9
        suite = ozawa_branciard_suite(seed=0, draws=10000)
        assert suite["violations"] == 0
        assert suite["min_ozawa_slack"] >= -1e-9
        assert suite["min_branciard_slack"] >= -1e-9


def test_criterion_4_wasserstein_engine():
    with criterion(4, "quantile form = LP oracle; axioms; smearing distance", 60.0):
        rng = np.random.default_rng(0)

        def random_dist():
            k = int(rng.integers(1, 11))
            support = np.sort(rng.uniform(-5, 5, k))
            while k > 1 and np.any(np.diff(support) <= 1e-6):
                support = np.sort(rng.uniform(-5, 5, k))
            return Distribution(support, rng.dirichlet(np.ones(k)))

        for _ in range(1000):
            mu, nu = random_dist(), random_dist()
            val = w2_quantile(mu, nu)
            coupling = quantile_coupling(mu, nu)
            assert abs(val - w2_lp_oracle(mu, nu)) < 1e-9
            coupling.check_marginals(mu, nu)
            lower, upper = cauchy_schwarz_bounds(mu, nu)
            assert lower - 1e-9 <= val**2 <= upper + 1e-9
        # metric axioms on a seeded batch
        batch = [random_dist() for _ in range(30)]
        for i in range(0, 30, 3):
            a, b, c = batch[i], batch[i + 1], batch[i + 2]
            dab = w2_quantile(a, b)
            dba = w2_quantile(b, a)
            dac = w2_quantile(a, c)
            dcb = w2_quantile(c, b)
            assert abs(dab - dba) < 1e-9
            assert dab <= dac + dcb + 1e-9
            assert w2_quantile(a, a) == 0.0
        # smearing distance on qubit and grid instances
        mu = Distribution([-0.4, 0.1, 0.6], [0.25, 0.5, 0.25])
        a_sharp = spectral_measure(SIGMA_Z)
        res = w2_observables_worst(a_sharp, smear(a_sharp, mu))
        assert abs(res.value - math.sqrt(mu.moment(2))) < 1e-6
        q = position_observable(GridSystem(64, 8.0))
        res = w2_observables_worst(q, smear(q, mu))
        assert res.exact
        assert abs(res.value - math.sqrt(mu.moment(2))) < 1e-12


def test_criterion_5_qubit_worst_case_closed_form():
    with criterion(5, "qubit worst-case closed form and noise-error identity", 60.0):
        rng = np.random.default_rng(0)
        for _ in range(100):
            c0 = rng.uniform(0.5, 1.5)
            cvec = rng.uniform(-1, 1, 3)
            cvec *= rng.uniform(0, 1) * min(c0, 2 - c0) / np.linalg.norm(cvec)
            avec = rng.uniform(-1, 1, 3)
            avec /= np.linalg.norm(avec)
            a = spectral_measure(opalg.bloch_operator(avec))
            c = BlochObservable(c0, cvec).to_observable()
            closed = qubit_worst_case_closed_form(a, c)
            assert abs(closed**2 - (2 * abs(1 - c0) + 2 * np.linalg.norm(avec - cvec))) < 1e-12
            for res in (w2_observables_worst(a, c), worst_case_deviation(a, c)):
                assert abs(res.value - closed) < 1e-9
                assert abs(res.value**2 - closed**2) < 1e-9
        # equality and decomposition identities for covariant smearings;
        # gamma = 1 (perfect approximator) is checked on squared values,
        # where double precision is exact: both sides are sqrt of ~1e-16
        # rounding residue otherwise.
        for gamma in np.linspace(0.05, 0.995, 20):
            avec = rng.uniform(-1, 1, 3)
            avec /= np.linalg.norm(avec)
            a = spectral_measure(opalg.bloch_operator(avec))
            c = BlochObservable(1.0, gamma * avec).to_observable()
            rho = opalg.random_density(2, rng)
            eps = eps_no_from_moments(opalg.bloch_operator(avec), c, rho)
            delta = w2_observables_worst(a, c).value
            assert eps <= delta + 1e-9
            assert abs(eps - delta) < 1e-9  # c parallel to a: equality
            noise = expectation(intrinsic_noise(c), rho)
            assert abs(eps**2 - noise - 0.25 * delta**4) < 1e-9
        avec = np.array([0.0, 0.0, 1.0])
        a = spectral_measure(opalg.bloch_operator(avec))
        c = BlochObservable(1.0, avec).to_observable()
        eps = eps_no_from_moments(opalg.bloch_operator(avec), c, bloch_state(avec))
        delta = w2_observables_worst(a, c).value
        assert abs(eps**2 - delta**2) < 1e-9
        # the identity also holds off the parallel axis (covariant case)
        for _ in range(20):
            avec = rng.uniform(-1, 1, 3)
            avec /= np.linalg.norm(avec)
            cvec = rng.uniform(-1, 1, 3)
            cvec *= rng.uniform(0, 0.99) / np.linalg.norm(cvec)
            a = spectral_measure(opalg.bloch_operator(avec))
            c = BlochObservable(1.0, cvec).to_observable()
            rho = opalg.random_density(2, rng)
            eps = eps_no_from_moments(opalg.bloch_operator(avec), c, rho)
            delta = w2_observables_worst(a, c).value
            noise = expectation(intrinsic_noise(c), rho)
            assert eps <= delta + 1e-9
            assert abs(eps**2 - noise - 0.25 * delta**4) < 1e-9


def test_criterion_6_joint_error_bound_tightness():
    with criterion(6, "joint-error bound tightness and angle sweep", 120.0):
        ez = np.array([0.0, 0.0, 1.0])
        ex = np.array([1.0, 0.0, 0.0])
        bound, achieved, model = qubit_error_bound(ez, ex)
        assert abs(bound - (4 - 2 * math.sqrt(2))) < 1e-12
        assert achieved - bound < 1e-9
        assert achieved >= bound - 1e-9
        np.testing.assert_allclose(model.c, ez / math.sqrt(2), atol=1e-3)
        np.testing.assert_allclose(model.d, ex / math.sqrt(2), atol=1e-3)
        for g in joint_effects(model.c, model.d, model.gamma0):
            assert np.linalg.eigvalsh(g).min() >= -1e-10
        for theta in np.linspace(0.0, math.pi / 2, 50):
            b = math.cos(theta) * ez + math.sin(theta) * ex
            bnd, ach, opt = qubit_error_bound(ez, b)
            assert abs(ach - bnd) <= 1e-9
            effects = joint_effects(opt.c, opt.d, opt.gamma0)
            assert min(np.linalg.eigvalsh(g).min() for g in effects) >= -1e-10


def test_criterion_7_phase_space_saturation():
    with criterion(7, "phase-space marginal saturation on the 1024-point grid", 30.0):
        grid = GridSystem(1024, 12.0)
        mu, nu = phase_space_marginals(grid, ground_state(grid))
        assert abs(mu.std * nu.std - 0.5) <= 1e-4
        assert abs(mu.moment(2) * nu.moment(2) - 0.25) <= 1e-3
        for kwargs in ({"width": 2.0}, {"width": 0.5}, {"center": 1.5}):
            m, n = phase_space_marginals(grid, gaussian_state(grid, **kwargs))
            assert m.moment(2) * n.moment(2) >= m.variance * n.variance - 1e-12
            assert m.variance * n.variance >= 0.25 - 1e-9


def test_criterion_8_calibration_limits():
    with criterion(8, "calibration limits: qubit closed form and grid smearing", 60.0):
        for gamma in (0.25, 0.5, 0.9):
            a = spectral_measure(SIGMA_Z)
            c = BlochObservable(1.0, np.array([0.0, 0.0, gamma])).to_observable()
            res = calibration_error(a, c)
            assert abs(res.value - math.sqrt(2 * (1 - gamma))) < 1e-12
        grid = GridSystem(64, 8.0)
        mu = Distribution([-0.6, 0.0, 0.4], [0.3, 0.4, 0.3])
        q = position_observable(grid)
        res = calibration_error(q, smear(q, mu))
        assert abs(res.value - math.sqrt(mu.moment(2))) < 1e-12


def test_criterion_9_deterministic_reports(tmp_path, capsys):
    with criterion(9, "byte-identical full-suite reports with --seed 0", 120.0):
        payloads = []
        for run in range(2):
            path = tmp_path / f"suite{run}.json"
            code = cli_main(
                ["--seed", "0", "--out", str(path), "scenario", "run", "--all"]
            )
            assert code == 0
            payloads.append(path.read_bytes())
        capsys.readouterr()
        assert payloads[0] == payloads[1]
