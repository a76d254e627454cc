"""Noise-operator error quantities and distribution-deviation error measures.

The noise-operator error of an approximation is computed along four routes
(scheme expectation, moment-operator form, three-state combination, and the
value-comparison bimeasure); they agree identically, which the test suite
enforces on randomized scenario batches.  Distribution errors are built on
the Wasserstein machinery: state-wise deviation, worst case over states, and
calibration as the eps -> 0 limit over near-eigenstate preparations.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import opalg
from .distributions import w2_quantile, w2_quantile_rows
from .observables import (
    TOL_COMMUTE,
    Observable,
    SharpObservable,
    born_probabilities,
    distribution_of,
    distribution_of_pure,
    moment_operator,
    product_biobservable,
    pure_states,
    spectral_measure,
)
from .opalg import expectation
from .schemes import MeasurementScheme

FORM_TOL = 1e-9           # agreement tolerance between the eps_NO routes
SHARED_BASIS_TRIES = 4  # weight vectors tried on effects that commute
STAIRCASE_TREE_LIMIT = 20_000  # staircase duals enumerated exactly; above, the ascent
WITNESS_TIE = 2.0**-42  # relative gap below the largest deviation within which candidates tie
EIG_CHUNK_ENTRIES = 2**18  # matrix entries per stacked eigvalsh call (4 MB complex)


# ---------------------------------------------------------------------------
# Noise-operator error and disturbance
# ---------------------------------------------------------------------------


def eps_no_from_moments(a, c: Observable, rho) -> float:
    """Noise-operator error from the first two moment operators of c.

    eps^2 = <C[x^2] - C[x]^2>_rho + <(C[x] - A)^2>_rho.
    """
    a = opalg.check_hermitian(a)
    if c.dim != a.shape[0]:
        raise ValueError("target operator and approximator dimensions differ")
    return moment_form_eps(a, moment_operator(c, 1), moment_operator(c, 2), rho)


def moment_form_eps(a, m1, m2, rho):
    """eps^2 = <M2 - M1^2> + <(M1 - A)^2> from the moment operators M1, M2.

    Stacks (..., d, d) of operators and states give an array of errors.
    """
    noise = expectation(m2 - m1 @ m1, rho)
    dev = m1 - a
    return opalg.sqrt_clamped(noise + expectation(dev @ dev, rho))


def _product_eigpairs(rho, sigma):
    """Eigenpairs of rho (x) sigma as products, skipping negligible weights."""
    wr, vr = opalg.eig_hermitian(rho)
    ws, vs = opalg.eig_hermitian(sigma)
    for i in range(wr.size):
        if wr[i] < 1e-14:
            continue
        for j in range(ws.size):
            if ws[j] < 1e-14:
                continue
            yield wr[i] * ws[j], np.kron(vr[:, i], vs[:, j])


def eps_no_from_scheme(scheme: MeasurementScheme, a, rho) -> float:
    """Noise-operator error as <N(A)^2> with N(A) = U^dag(1 (x) Z_f)U - A (x) 1."""
    a = opalg.check_hermitian(a)
    do, dp = scheme.object_dim, scheme.probe_dim
    if a.shape[0] != do:
        raise ValueError("target operator does not act on the object space")
    total = 0.0
    for w, psi in _product_eigpairs(np.asarray(rho, dtype=complex), scheme.probe_state):
        out = scheme.apply_output_operator(psi)
        out -= (a @ psi.reshape(do, dp)).reshape(-1)
        total += w * float(np.vdot(out, out).real)
    return math.sqrt(max(total, 0.0))


def eta_no_from_scheme(scheme: MeasurementScheme, b, rho) -> float:
    """Noise-operator disturbance as <D(B)^2> with D(B) = U^dag(B (x) 1)U - B (x) 1."""
    b = opalg.check_hermitian(b)
    do, dp = scheme.object_dim, scheme.probe_dim
    if b.shape[0] != do:
        raise ValueError("disturbed operator does not act on the object space")
    u = scheme.coupling
    total = 0.0
    for w, psi in _product_eigpairs(np.asarray(rho, dtype=complex), scheme.probe_state):
        mid = u @ psi
        mid = (b @ mid.reshape(do, dp)).reshape(-1)
        out = u.conj().T @ mid
        out -= (b @ psi.reshape(do, dp)).reshape(-1)
        total += w * float(np.vdot(out, out).real)
    return math.sqrt(max(total, 0.0))


def three_state_eps(a, c: Observable, rho) -> float:
    """Noise-operator error from statistics on rho, A rho A and (A+1) rho (A+1)."""
    a = opalg.check_hermitian(a)
    rho = np.asarray(rho, dtype=complex)
    return three_state_form_eps(a, moment_operator(c, 1), moment_operator(c, 2), rho)


def three_state_form_eps(a, m1, m2, rho):
    """The three-state combination from the moment operators M1, M2.

    eps^2 = <A^2> + <M2> + <M1> + tr(A rho A M1) - tr((A+1) rho (A+1) M1);
    stacks (..., d, d) give an array of errors.
    """
    shifted = a + np.eye(a.shape[-1])
    total = (
        expectation(a @ a, rho)
        + expectation(m2, rho)
        + expectation(m1, rho)
        + expectation(m1, a @ rho @ a)
        - expectation(m1, shifted @ rho @ shifted)
    )
    return opalg.sqrt_clamped(total)


@dataclass(frozen=True)
class ValueComparison:
    """Value-deviation functional of the target/approximator bimeasure."""

    value: float
    commuting: bool
    w2_distributions: float


def value_comparison_eps(a: SharpObservable, c: Observable, rho) -> ValueComparison:
    """Squared-deviation integral of the bimeasure Re<A(dx)C(dy)>_rho.

    When target and approximator commute the bimeasure is a genuine coupling
    and the value upper-bounds the Wasserstein deviation of the two outcome
    distributions; otherwise the same number is returned with the
    non-joint-measurability flag set.
    """
    table = product_biobservable(a, c, rho)
    value = math.sqrt(max(table.value_deviation_squared(), 0.0))
    w2 = w2_quantile(distribution_of(a, rho), distribution_of(c, rho))
    return ValueComparison(value, table.commuting, w2)


# ---------------------------------------------------------------------------
# Worst-case observable deviation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WorstCaseResult:
    value: float
    state: np.ndarray
    exact: bool = False


def shared_eigenbasis(effects: np.ndarray) -> np.ndarray | None:
    """Orthonormal basis (columns) diagonalising every effect, or None.

    The candidate is the eigenbasis of a generic real combination of the
    effects; it is accepted only when every effect is diagonal in it to
    ``TOL_COMMUTE``.  Fixed pseudo-random weights keep the combination's
    eigenvalues simple wherever the effects tell basis states apart.  A
    combination can still be nearly degenerate by accident, which leaves its
    eigenbasis ill-conditioned; while every effect commutes with the
    combination, the next of ``SHARED_BASIS_TRIES`` weight vectors is tried.
    """
    for weights in _basis_weights(effects.shape[0]):
        combination = np.einsum("k,kij->ij", weights, effects)
        _, basis = np.linalg.eigh(combination)
        off_diagonal = basis.conj().T @ effects @ basis
        off_diagonal.reshape(effects.shape[0], -1)[:, ::basis.shape[0] + 1] = 0.0
        if _largest_square_norm(off_diagonal) <= TOL_COMMUTE**2:
            return basis
        commutators = effects @ combination - combination @ effects
        if _largest_square_norm(commutators) > TOL_COMMUTE**2:
            return None
    return None


def _largest_square_norm(mats: np.ndarray) -> float:
    """The largest squared Frobenius norm of a stack (k, d, d) of complex matrices."""
    parts = mats.view(float)
    return np.einsum("kij,kij->k", parts, parts).max()


@functools.lru_cache(maxsize=64)
def _basis_weights(n: int) -> np.ndarray:
    """The ``SHARED_BASIS_TRIES`` weight vectors for n effects, as rows.

    Drawn in turn from one generator seeded 0, and kept read-only.
    """
    rng = np.random.default_rng(0)
    weights = np.stack([rng.uniform(1.0, 2.0, n) for _ in range(SHARED_BASIS_TRIES)])
    weights.flags.writeable = False
    return weights


def staircase_duals(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dual potentials of every staircase tree of the cost (x_i - y_j)^2.

    ``x`` and ``y`` are increasing supports of sizes m and n.  A staircase
    tree is a monotone cell path from (0, 0) to (m-1, n-1); on sorted
    supports the cost is Monge, so each of the C(m+n-2, m-1) paths carries a
    feasible dual u_i + v_j <= (x_i - y_j)^2 with equality on the path, and
    for every pair of marginals one of them is optimal.  Returns ``u`` of
    shape (T, m) and ``v`` of shape (T, n), normalised by u_0 = 0.
    """
    return _tree_duals((x[:, None] - y[None, :]) ** 2, *_staircase_entries(x.size, y.size))


@functools.lru_cache(maxsize=16)
def _staircase_entries(m: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """``_path_entries`` of every monotone path on an m x n table, kept read-only.

    The paths depend on the shape alone, so each shape is enumerated once.
    """
    steps = m + n - 2
    trees = math.comb(steps, m - 1)
    down_at = np.fromiter(
        itertools.chain.from_iterable(itertools.combinations(range(steps), m - 1)),
        dtype=np.intp, count=trees * (m - 1),
    ).reshape(trees, m - 1)
    is_down = np.zeros((trees, steps), dtype=bool)
    is_down[np.arange(trees)[:, None], down_at] = True
    entries = _path_entries(is_down, m, n)
    for entry in entries:
        entry.flags.writeable = False
    return entries


def path_duals(cost: np.ndarray, p: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Duals of the monotone path that carries the quantile coupling of p and q.

    The path goes down while cumsum(p)_i < cumsum(q)_j, so every cell of the
    coupling lies on it, and by complementary slackness its duals attain
    W2^2 = sum u_i p_i + sum v_j q_j.  Ties step right first: the stable
    merge puts the breakpoints of q before equal ones of p.
    """
    m, n = cost.shape
    breakpoints = np.concatenate([np.cumsum(q)[:-1], np.cumsum(p)[:-1]])
    is_down = np.argsort(breakpoints, kind="stable") >= n - 1
    u, v = _tree_duals(cost, *_path_entries(is_down[None], m, n))
    return u[0], v[0]


def _path_entries(is_down: np.ndarray, m: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Where the monotone paths with steps ``is_down`` (T, m+n-2) enter each row and column.

    Row k is entered down column entry_col[:, k-1]; column j is entered
    along row entry_row[:, j-1].
    """
    trees, steps = is_down.shape
    rows_before = np.cumsum(is_down, axis=1) - is_down
    cols_before = np.arange(steps) - rows_before
    return (cols_before[is_down].reshape(trees, m - 1),
            rows_before[~is_down].reshape(trees, n - 1))


def _tree_duals(cost: np.ndarray, entry_col: np.ndarray,
                entry_row: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Duals (u, v) of the monotone paths with entries ``_path_entries``.

    The two path cells of each step share a potential, so the other one
    changes by the difference of their costs.
    """
    m, n = cost.shape
    rows = np.arange(1, m)
    cols = np.arange(1, n)
    du = cost[rows, entry_col] - cost[rows - 1, entry_col]
    dv = cost[entry_row, cols] - cost[entry_row, cols - 1]
    zero = np.zeros((entry_col.shape[0], 1))
    u = np.concatenate([zero, np.cumsum(du, axis=1)], axis=1)
    v = cost[0, 0] + np.concatenate([zero, np.cumsum(dv, axis=1)], axis=1)
    return u, v


def _eigh_hermitian_built(ops: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``opalg.eig_hermitian`` of operators made Hermitian as 0.5 (M + M^dag), unchecked.

    Such operators are Hermitian by construction; on the small stacks of one
    report the entrywise check would cost about as much as the eigh.
    """
    evals, evecs = np.linalg.eigh(ops)
    return evals, opalg.fix_phases(evecs)


def w2_born_rows(rho, x, a_effects, y, c_effects) -> np.ndarray:
    """W2 between the Born distributions of two effect lists in each state of a stack.

    ``rho`` is (N, d, d); the effect lists are shared, (m, d, d) and
    (n, d, d), or one per state, (N, m, d, d) and (N, n, d, d), on the
    outcome values ``x`` and ``y``.  Returns the (N,) deviations.
    """
    return w2_quantile_rows(x, y, born_probabilities(rho, a_effects),
                            born_probabilities(rho, c_effects))


def staircase_winners(x: np.ndarray, a_effects: np.ndarray, y: np.ndarray,
                      c_effects: np.ndarray) -> np.ndarray:
    """The winning dual operator of each of N pairs that share their outcome values.

    ``a_effects`` (N, m, d, d) and ``c_effects`` (N, n, d, d) are the pairs'
    effects on the outcome values ``x`` (m,) and ``y`` (n,).  W2^2 in state
    rho is the max over dual-feasible (u, v) of tr rho M(u, v) with
    M = sum u_i A_i + sum v_j C_j, so sup_rho W2^2 is the largest top
    eigenvalue of M over the staircase duals, which depend on x and y alone.
    The operators of every (pair, dual) go through stacked ``eigvalsh``
    calls of at most ``EIG_CHUNK_ENTRIES`` entries.  Returns the (N, d, d)
    Hermitian operators of largest top eigenvalue; each top eigenvector is a
    witness.
    """
    u, v = staircase_duals(x, y)
    coeffs = np.concatenate([u, v], axis=1)
    pairs, d = a_effects.shape[0], a_effects.shape[-1]
    effects = np.concatenate([a_effects, c_effects], axis=1).reshape(pairs, -1, d * d)
    dual_chunk = max(1, EIG_CHUNK_ENTRIES // (d * d))
    pair_chunk = max(1, dual_chunk // coeffs.shape[0])
    top = np.full(pairs, -np.inf)
    best = np.zeros(pairs, dtype=np.intp)
    for lo in range(0, pairs, pair_chunk):
        block = slice(lo, lo + pair_chunk)
        for first in range(0, coeffs.shape[0], dual_chunk):
            ops = (coeffs[first:first + dual_chunk] @ effects[block]).reshape(-1, d, d)
            tops = np.linalg.eigvalsh(ops)[:, -1].reshape(effects[block].shape[0], -1)
            local = tops.max(axis=1)
            better = local > top[block]  # ties keep the earlier dual
            best[block][better] = first + tops.argmax(axis=1)[better]
            top[block] = np.maximum(top[block], local)
    winners = (coeffs[best][:, None, :] @ effects)[:, 0].reshape(pairs, d, d)
    return 0.5 * (winners + opalg.dagger(winners))


def w2_worst_stacked(x: np.ndarray, a_effects: np.ndarray, y: np.ndarray,
                     c_effects: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exact worst cases of N pairs that share their outcome values, by duality.

    One stacked eigh of the ``staircase_winners`` gives each pair's witness,
    and the reported value is the deviation at the witness.  Returns (N,)
    values and (N, d) witnesses.
    """
    winners = staircase_winners(x, a_effects, y, c_effects)
    psi = _eigh_hermitian_built(winners)[1][..., -1]
    return w2_born_rows(pure_states(psi), x, a_effects, y, c_effects), psi


def w2_worst_staircase(a: Observable, c: Observable) -> WorstCaseResult:
    """Exact worst case by Kantorovich duality: the N = 1 case of ``w2_worst_stacked``."""
    values, states = w2_worst_stacked(a.outcomes, a.effects[None], c.outcomes, c.effects[None])
    return WorstCaseResult(value=float(values[0]), state=states[0], exact=True)


def worst_case_deviation(a: Observable, c: Observable) -> WorstCaseResult:
    """Lower bound on the worst case, with its witness: the deviation at ``ascent_witness``."""
    witness = ascent_witness(a, c)
    value = w2_quantile(distribution_of_pure(a, witness), distribution_of_pure(c, witness))
    return WorstCaseResult(value=value, state=witness)


def ascent_witness(a: Observable, c: Observable) -> np.ndarray:
    """The best final state of alternating ascents on the worst case.

    The duals of the path that carries the quantile coupling in psi attain
    W2^2(psi) = <psi|M|psi> with M = sum u_i A_i + sum v_j C_j, and the top
    eigenvector of M does at least as well, so lambda_max(M) never falls.
    Each eigenvector of the first moment operators of a and c starts an
    ascent, which stops when lambda_max stops rising; a path never repeats,
    so it ends.
    """
    cost = (a.outcomes[:, None] - c.outcomes[None, :]) ** 2
    effects = np.concatenate([a.effects, c.effects])
    m = a.n_outcomes
    starts = [_eigh_hermitian_built(moment_operator(obs, 1))[1].T for obs in (a, c)]
    best, witness = -np.inf, None
    for psi in np.concatenate(starts):
        top = -np.inf
        while True:
            born = np.einsum("i,kij,j->k", psi.conj(), effects, psi).real
            u, v = path_duals(cost, born[:m], born[m:])
            evals, evecs = np.linalg.eigh(np.tensordot(np.concatenate([u, v]), effects, 1))
            if not evals[-1] > top:
                break
            top, psi = evals[-1], evecs[:, -1]
        if top > best:
            best, witness = top, psi
    return witness


def worst_case_candidates(a: Observable, c: Observable):
    """Candidate witnesses of the worst case, by the route its exactness allows.

    Returns (states, winner, exact); every state has its phases fixed by
    ``opalg.fix_phases``.  When the effects of a and c share an eigenbasis,
    every dual operator sum u_i A_i + sum v_j C_j is diagonal in it, so the
    sup is the largest deviation over its basis states:
    ``states`` (d, d) are those states as rows.  With at most
    ``STAIRCASE_TREE_LIMIT`` staircase duals, ``states`` is None and
    ``winner`` (d, d) is the winning dual operator, whose top eigenvector is
    the one exact candidate: a caller can add it to a stacked eigh of its
    own.  Otherwise ``states`` (1, d) is the ascent's witness, a lower
    bound.  ``winner`` is None on the other two routes.
    """
    basis = shared_eigenbasis(np.concatenate([a.effects, c.effects]))
    if basis is not None:
        return opalg.fix_phases(basis).T, None, True
    if math.comb(a.n_outcomes + c.n_outcomes - 2, a.n_outcomes - 1) <= STAIRCASE_TREE_LIMIT:
        winners = staircase_winners(a.outcomes, a.effects[None], c.outcomes, c.effects[None])
        return None, winners[0], True
    return opalg.fix_phases(ascent_witness(a, c)[:, None]).T, None, False


def first_of_largest(values: np.ndarray):
    """Index of the first value within ``WITNESS_TIE`` (relative) of the last axis's largest.

    Candidates that tie up to rounding, such as the basis states of a
    smearing, then give the same witness whichever of them rounds highest.
    On random smearings at d = 3-6, tied deviations were seen up to 730
    ulps apart, so the window, 2^-42 relative, is at least 2^10 ulps.
    """
    top = values.max(axis=-1, keepdims=True)
    return (values >= top - abs(top) * WITNESS_TIE).argmax(axis=-1)


def w2_observables_worst(a: Observable, c: Observable) -> WorstCaseResult:
    """Worst-case Wasserstein deviation between two dense observables.

    Exact when the effects of a and c share an eigenbasis, or when there are
    at most ``STAIRCASE_TREE_LIMIT`` staircase duals; otherwise the ascent's
    lower bound with its witness (``exact`` false).  The value is the
    deviation of the first of the ``worst_case_candidates`` to tie for the
    largest (``first_of_largest``), from one call of the row kernel.
    """
    if a.dim != c.dim:
        raise ValueError("observables act on different dimensions")
    states, winner, exact = worst_case_candidates(a, c)
    if winner is not None:
        states = _eigh_hermitian_built(winner)[1][None, :, -1]
    values = w2_born_rows(pure_states(states), a.outcomes, a.effects, c.outcomes, c.effects)
    k = int(first_of_largest(values))
    return WorstCaseResult(value=float(values[k]), state=states[k], exact=exact)


# ---------------------------------------------------------------------------
# Calibration error
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CalibrationResult:
    value: float
    state: np.ndarray  # unit vector in the target eigenspace attaining the value


def calibration_stacked(y: np.ndarray, projections: np.ndarray, x: np.ndarray,
                        effects: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Calibration errors of N pairs that share their outcome values, in closed form.

    ``projections`` (N, n_y, d, d) are the sharp targets' eigenprojections
    P_y on the values ``y``; ``effects`` (N, n_x, d, d) are the
    approximators' effects on the values ``x``.  As eps -> 0 the states with
    Delta(A_rho, delta_y) <= eps shrink onto P_y, so the limit is
    sqrt(max_y lambda_max of D_y on P_y) with D_y = sum_x (x - y)^2 C(x).
    ``calibration_operators`` forms every D_y and its shifted operator, one
    stacked eigh decomposes them, and ``calibration_from_eigh`` reads off
    the values.  Returns (N,) values and (N, d) witnesses, each a unit
    vector in its P_y.
    """
    deviation, shifted = calibration_operators(y, projections, x, effects)
    return calibration_from_eigh(deviation, *_eigh_hermitian_built(shifted))


def calibration_operators(y: np.ndarray, projections: np.ndarray, x: np.ndarray,
                          effects: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The deviation operators D_y and P_y D_y P_y - (1 - P_y), both (N, n_y, d, d).

    Every D_y comes from one einsum.  The top eigenvector of the shifted
    operator is that of D_y on P_y: D_y >= 0, so the -1 block keeps it
    inside P_y even when the top value is 0, and eigenspaces of any rank
    share the stack.  The shifted operators are returned Hermitian.
    """
    d = effects.shape[-1]
    deviation = np.einsum("yx,nxij->nyij", (x[None, :] - y[:, None]) ** 2, effects)
    shifted = projections @ deviation @ projections - (np.eye(d) - projections)
    return deviation, 0.5 * (shifted + opalg.dagger(shifted))


def calibration_from_eigh(deviation: np.ndarray, evals: np.ndarray,
                          evecs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Calibration values and witnesses from the eigh of ``calibration_operators``.

    An outcome with P_y = 0 leaves only the -1 block, whose top value is -1;
    it has no states and is skipped.  Each top vector's value is its
    deviation <psi|D_y|psi>, which rounds more tightly than the stacked
    eigenvalue.  Outcomes whose values tie (on a smearing, all of them) give
    the first one's witness (``first_of_largest``).
    """
    psi = evecs[..., -1]
    tops = np.einsum("nyi,nyij,nyj->ny", psi.conj(), deviation, psi).real
    tops = np.where(evals[..., -1] > -0.5, tops, -np.inf)
    best = first_of_largest(tops)
    rows = np.arange(deviation.shape[0])
    return opalg.sqrt_clamped(tops[rows, best]), psi[rows, best]


def calibration_error(a: SharpObservable, c: Observable) -> CalibrationResult:
    """Calibration error of c against the sharp target a.

    The N = 1 case of ``calibration_stacked``, with the witness state.
    """
    if a.dim != c.dim:
        raise ValueError("observables act on different dimensions")
    values, states = calibration_stacked(a.outcomes, a.effects[None], c.outcomes, c.effects[None])
    return CalibrationResult(value=float(values[0]), state=states[0])


# ---------------------------------------------------------------------------
# Error report
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ErrorReport:
    """Side-by-side error figures for one target/approximator/state triple."""

    eps_no: float
    w2_state: float
    w2_worst: float
    calibration: float
    bias: float
    intrinsic_noise_expectation: float
    w2_worst_exact: bool = False
    witness_state: np.ndarray | None = field(default=None, compare=False)
    calibration_witness: np.ndarray | None = field(default=None, compare=False)

    def __post_init__(self):
        if self.eps_no < 0 or self.w2_state < 0:
            raise ValueError("error figures must be nonnegative")
        dev_term = self.eps_no**2 - self.intrinsic_noise_expectation
        if dev_term < -FORM_TOL:
            raise ValueError(
                "inconsistent report: eps^2 below the intrinsic noise expectation"
            )


def error_report(a, c: Observable, rho) -> ErrorReport:
    """Assemble the full error report for target operator a, approximator c.

    ``spectral_measure`` checks a once and ``check_density`` checks rho.
    eps, the bias and the intrinsic noise come from one noise term and one
    M1 - A.  The worst case's staircase winner, if its route has one, joins
    calibration's stacked eigh, and rho's Born row, stacked with the worst
    case's candidate rows, goes through one call of the row kernel: row 0
    is ``w2_state``, and the first of the others to tie for the largest
    (``first_of_largest``) is the witness of ``w2_worst``.
    """
    a_sharp = spectral_measure(a)
    a = np.asarray(a, dtype=complex)
    if c.dim != a.shape[0]:
        raise ValueError("target operator and approximator dimensions differ")
    rho = opalg.check_density(rho)
    if rho.shape != a.shape:
        raise ValueError(f"state dimension {rho.shape} does not match observable dim {c.dim}")
    m1, m2 = moment_operator(c, 1), moment_operator(c, 2)
    noise = expectation(m2 - m1 @ m1, rho)
    dev = m1 - a
    states, winner, exact = worst_case_candidates(a_sharp, c)
    deviation, shifted = calibration_operators(a_sharp.outcomes, a_sharp.effects[None],
                                               c.outcomes, c.effects[None])
    if winner is not None:
        shifted = np.concatenate([shifted[0], winner[None]])[None]
    evals, evecs = _eigh_hermitian_built(shifted)
    if winner is not None:
        states = evecs[:, -1, :, -1]
        evals, evecs = evals[:, :-1], evecs[:, :-1]
    calibration, calibration_witness = calibration_from_eigh(deviation, evals, evecs)
    rows = np.concatenate([rho[None], pure_states(states)])
    values = w2_born_rows(rows, a_sharp.outcomes, a_sharp.effects, c.outcomes, c.effects)
    k = 1 + int(first_of_largest(values[1:]))
    return ErrorReport(
        eps_no=opalg.sqrt_clamped(noise + expectation(dev @ dev, rho)),
        w2_state=float(values[0]),
        w2_worst=float(values[k]),
        calibration=float(calibration[0]),
        bias=expectation(dev, rho),
        intrinsic_noise_expectation=noise,
        w2_worst_exact=exact,
        witness_state=states[k - 1],
        calibration_witness=calibration_witness[0],
    )
