"""Closed forms and small constructors that only the tests use as references."""

import math

import numpy as np

from qmu import opalg
from qmu.distributions import Coupling, Distribution
from qmu.observables import Observable


def delta(y: float) -> Distribution:
    return Distribution(np.array([y]), np.array([1.0]))


def point_deviation(mu: Distribution, y: float) -> float:
    """Root-mean-square deviation of mu from the point measure at y."""
    return math.sqrt(float(np.sum((mu.support - y) ** 2 * mu.probs)))


def coupling_cost(coupling: Coupling) -> float:
    """Transport cost: the sum over the coupling's cells of weight * (x - y)^2."""
    diff = coupling.row_support[coupling.rows] - coupling.col_support[coupling.cols]
    return float(np.dot(coupling.weights, diff * diff))


def cauchy_schwarz_bounds(mu: Distribution, nu: Distribution) -> tuple[float, float]:
    """Lower/upper bounds on the squared 2-deviation from means and spreads."""
    md = (mu.mean - nu.mean) ** 2
    lower = (mu.std - nu.std) ** 2 + md
    upper = (mu.std + nu.std) ** 2 + md
    return lower, upper


def joint_effects(c, d, gamma0) -> np.ndarray:
    """G_jk = [(1 + j*k*gamma0) 1 + (j c + k d).sigma]/4 for (j, k) = (+,+), (+,-), (-,+), (-,-).

    Bloch vectors c, d (..., 3) and gamma0 (...) give effects (..., 4, 2, 2):
    the eigenvalue reference of ``relations.check_joint_effects``.
    """
    c, d = np.asarray(c, dtype=float), np.asarray(d, dtype=float)
    signs = np.array([[1, 1], [1, -1], [-1, 1], [-1, -1]], dtype=float)
    vecs = signs[:, 0, None] * c[..., None, :] + signs[:, 1, None] * d[..., None, :]
    scale = 1 + signs[:, 0] * signs[:, 1] * np.asarray(gamma0)[..., None]
    return 0.25 * (scale[..., None, None] * np.eye(2, dtype=complex) + opalg.bloch_operator(vecs))


def bloch_parameters(obs: Observable) -> tuple[float, np.ndarray] | None:
    """(c0, c) for a two-outcome qubit POVM with outcomes (-1, +1), else None."""
    if obs.dim != 2 or obs.n_outcomes != 2:
        return None
    if not np.allclose(obs.outcomes, [-1.0, 1.0], atol=1e-12):
        return None
    c_plus = obs.effects[1]
    c0 = float(np.trace(c_plus).real)
    c = np.array([float(np.trace(c_plus @ s).real) for s in opalg.PAULI])
    return c0, c


def qubit_worst_case_closed_form(a: Observable, c: Observable) -> float | None:
    """Exact worst-case deviation for qubit pairs: sqrt(2|1-c0| + 2||a-c||).

    Applies when the target is a sharp two-outcome (+/-1) qubit observable;
    returns the deviation value, or None when the closed form does not apply.
    """
    pa = bloch_parameters(a)
    pc = bloch_parameters(c)
    if pa is None or pc is None:
        return None
    a0, avec = pa
    if abs(a0 - 1.0) > 1e-10 or abs(np.linalg.norm(avec) - 1.0) > 1e-10:
        return None
    c0, cvec = pc
    return math.sqrt(2 * abs(1 - c0) + 2 * np.linalg.norm(avec - cvec))


def wide_random_pairs(count: int) -> list[tuple[Distribution, Distribution]]:
    """Seeded pairs of 17-64 support points at scales from 1e-3 to 1e8.

    Atoms are Dirichlet draws of a random concentration in [0.1, 3], so some
    pairs carry many near-zero atoms.
    """
    rng = np.random.default_rng(7)
    pairs = []
    for _ in range(count):
        m, n = rng.integers(17, 65, 2)
        scale = 10.0 ** rng.uniform(-3, 8)
        pairs.append(tuple(
            Distribution(np.sort(rng.uniform(-scale, scale, k)),
                         rng.dirichlet(np.ones(k) * rng.uniform(0.1, 3)))
            for k in (m, n)))
    return pairs
