"""A NaN reaching a public constructor or checker raises ValueError.

The list is README "Conventions" (the constructors and checkers that
validate what they are given), plus ``bloch_state``, ``qubit_error_bound``
and ``qubit_joint_feasible``.  Each case puts one NaN into an otherwise
valid call, in an input that README says is checked.  The checkers that
take a state also refuse a NaN state and the trace-2 "state" 2 rho.
"""

import warnings

import numpy as np
import pytest

from qmu import opalg
from qmu.distributions import Distribution, make_distribution
from qmu.errmetrics import (
    eps_no_from_moments,
    eps_no_from_scheme,
    error_report,
    eta_no_from_scheme,
    three_state_eps,
)
from qmu.grid import GridSystem
from qmu.observables import BlochObservable, Observable, SharpObservable, spectral_measure
from qmu.opalg import SIGMA_X, SIGMA_Z
from qmu.relations import (
    QubitJointModel,
    check_branciard_scheme,
    check_naive_heisenberg,
    check_ozawa,
    check_unbiased_tradeoffs,
    qubit_error_bound,
    qubit_joint_feasible,
)
from qmu.schemes import MeasurementScheme, identity_scheme, swap_scheme

NAN = float("nan")
EX, EZ = np.array([1.0, 0.0, 0.0]), np.array([0.0, 0.0, 1.0])
NAN_VEC = np.array([NAN, 0.0, 0.0])
NAN_OP = np.array([[NAN, 0.0], [0.0, 1.0]], dtype=complex)
RHO = opalg.bloch_state(EZ)
SHARP = spectral_measure(SIGMA_Z)
SCHEME = swap_scheme(SHARP, opalg.bloch_state(EX))
GRID = GridSystem(16, 4.0)

CALLS = {
    "Observable": lambda: Observable([-1.0, NAN], SHARP.effects),
    "SharpObservable": lambda: SharpObservable([NAN, 1.0], SHARP.effects),
    "BlochObservable": lambda: BlochObservable(1.0, NAN_VEC),
    "MeasurementScheme": lambda: MeasurementScheme(NAN_OP, SCHEME.coupling, SHARP),
    "QubitJointModel": lambda: QubitJointModel(EZ, EX, 0.5 * EZ, 0.5 * EX, NAN),
    "Distribution": lambda: Distribution([0.0, NAN], [0.5, 0.5]),
    "make_distribution": lambda: make_distribution([0.0, 1.0], [0.5, NAN]),
    "GridSystem": lambda: GridSystem(16, NAN),
    "GridSystem.normalize": lambda: GRID.normalize(np.full(16, NAN)),
    "check_ozawa": lambda: check_ozawa(SCHEME, NAN_OP, SIGMA_X, RHO),
    "check_naive_heisenberg": lambda: check_naive_heisenberg(SCHEME, SIGMA_Z, NAN_OP, RHO),
    "check_branciard_scheme": lambda: check_branciard_scheme(SCHEME, SIGMA_Z, SIGMA_X, NAN_OP),
    "error_report": lambda: error_report(SIGMA_Z, SHARP, NAN_OP),
    "eps_no_from_scheme": lambda: eps_no_from_scheme(SCHEME, NAN_OP, RHO),
    "eta_no_from_scheme": lambda: eta_no_from_scheme(SCHEME, NAN_OP, RHO),
    "eps_no_from_moments": lambda: eps_no_from_moments(NAN_OP, SHARP, RHO),
    "three_state_eps": lambda: three_state_eps(NAN_OP, SHARP, RHO),
    "identity_scheme": lambda: identity_scheme(SHARP, NAN_OP),
    "swap_scheme": lambda: swap_scheme(SHARP, NAN_OP),
    "bloch_state": lambda: opalg.bloch_state(NAN_VEC),
    "qubit_error_bound": lambda: qubit_error_bound(NAN_VEC, EX),
    "qubit_joint_feasible": lambda: qubit_joint_feasible(0.5 * EZ, 0.5 * EX, NAN_VEC, EX),
}


@pytest.mark.parametrize("name", CALLS)
def test_a_nan_is_rejected_with_value_error(name):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError):
            CALLS[name]()


MODEL = qubit_joint_feasible(0.5 * EZ, 0.5 * EX, EZ, EX)
STATE_CALLS = {
    "check_ozawa": lambda rho: check_ozawa(SCHEME, SIGMA_Z, SIGMA_X, rho),
    "check_naive_heisenberg": lambda rho: check_naive_heisenberg(SCHEME, SIGMA_Z, SIGMA_X, rho),
    "check_unbiased_tradeoffs": lambda rho: check_unbiased_tradeoffs(MODEL, rho),
    "eps_no_from_moments": lambda rho: eps_no_from_moments(SIGMA_Z, SHARP, rho),
    "three_state_eps": lambda rho: three_state_eps(SIGMA_Z, SHARP, rho),
}


@pytest.mark.parametrize("state", ["nan", "trace-2"])
@pytest.mark.parametrize("name", STATE_CALLS)
def test_a_checker_rejects_a_state_that_is_no_density_operator(name, state):
    rho = NAN_OP if state == "nan" else 2 * RHO
    STATE_CALLS[name](RHO)  # the valid state passes
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError):
            STATE_CALLS[name](rho)


def test_check_branciard_scheme_checks_its_state_once(monkeypatch):
    seen = []
    check_density = opalg.check_density
    monkeypatch.setattr(opalg, "check_density", lambda rho: seen.append(rho) or check_density(rho))
    check_branciard_scheme(SCHEME, SIGMA_Z, SIGMA_X, RHO)
    assert len(seen) == 1
