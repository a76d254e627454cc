"""Quantum measurement rms-error metrics and uncertainty-relation checkers.

Implements, side by side, the noise-operator error/disturbance quantities
and the Wasserstein-2 distribution deviations on finite-dimensional
measurement models, with checkers for the associated uncertainty relations
and a reproducible scenario library exposed through the ``qmu`` CLI.

Importing qmu before numpy gives the whole process one BLAS thread, the
caller's own numpy work included.  The bundled scenarios and checks factor
matrices of at most 256 x 256, where a second thread gains nothing and only
spins beside other work, and the reduction order of a threaded BLAS call
depends on the core count.  Overrides can ask for larger dense matrices
(``oscillator-shift-zero-error --set n=2048`` takes a 2048 x 2048 eigh,
about 1.5 times slower on one thread than on two of a 2-core host); a user-set
OPENBLAS_NUM_THREADS gives the pool back.  OpenBLAS, OpenMP and MKL read
their pool size when numpy loads them, so the variables below are set for
that load only, unless the user set them; if numpy is already loaded its
pool is left as it is.
"""

import os
import sys

BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _import_numpy_with_one_blas_thread() -> None:
    """Import numpy with each unset pool-size variable at 1, then unset it again.

    Subprocesses the user starts later inherit the environment they had.
    """
    pinned = [name for name in BLAS_THREAD_VARIABLES if name not in os.environ]
    os.environ.update(dict.fromkeys(pinned, "1"))
    try:
        import numpy  # noqa: F401  (BLAS reads its pool size as numpy loads it)
    finally:
        for name in pinned:
            os.environ.pop(name, None)


if "numpy" not in sys.modules:
    _import_numpy_with_one_blas_thread()

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
