"""Quantum measurement rms-error metrics and uncertainty-relation checkers.

Implements, side by side, the noise-operator error/disturbance quantities
and the Wasserstein-2 distribution deviations on finite-dimensional
measurement models, with checkers for the associated uncertainty relations
and a reproducible scenario library exposed through the ``qmu`` CLI.
"""

from .distributions import (
    Coupling,
    Distribution,
    convolve,
    make_distribution,
    quantile_coupling,
    w2_lp_oracle,
    w2_quantile,
)
from .errmetrics import (
    ErrorReport,
    calibration_error,
    eps_no_from_moments,
    eps_no_from_scheme,
    error_report,
    eta_no_from_scheme,
    three_state_eps,
    value_comparison_eps,
    w2_observables_worst,
    worst_case_deviation,
)
from .grid import GridSystem, VonNeumannModel, phase_space_marginals
from .observables import (
    BlochObservable,
    Observable,
    SharpObservable,
    distribution_of,
    intrinsic_noise,
    moment_operator,
    product_biobservable,
    qubit_triple,
    smear,
    spectral_measure,
)
from .relations import (
    QubitJointModel,
    RelationVerdict,
    check_branciard_joint,
    check_branciard_scheme,
    check_naive_heisenberg,
    check_ozawa,
    check_unbiased_tradeoffs,
    phase_space_relation_check,
    qubit_epsno_sum_check,
    qubit_error_bound,
    qubit_incompatibility_bound,
    qubit_joint_feasible,
)
from .scenarios import RunConfig, run_scenario, scenario_names
from .schemes import MeasurementScheme, identity_scheme, induced_observable, swap_scheme

__version__ = "0.1.0"
