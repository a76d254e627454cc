"""Reference values computed with plain numpy, apart from ``qmu``.

Every function here works from the matrices and probability vectors the
benchmark generated itself; none calls into the package under test.
"""

from __future__ import annotations

import math

import numpy as np


def close(a: float, b: float, tol: float = 1e-9) -> bool:
    """|a - b| within ``tol`` scaled by max(1, |b|)."""
    return abs(a - b) <= tol * max(1.0, abs(b))


def w2(x, p, y, q) -> float:
    """Wasserstein-2 distance on the line as the quantile integral.

    The squared distance is the integral over t in (0, 1) of
    (F^-1(t) - G^-1(t))^2; both quantile functions are constant between the
    merged cumulative breakpoints, so the integral is a finite sum.
    """
    x, p, y, q = (np.asarray(v, dtype=float) for v in (x, p, y, q))
    ox, oy = np.argsort(x, kind="stable"), np.argsort(y, kind="stable")
    x, p, y, q = x[ox], p[ox] / p.sum(), y[oy], q[oy] / q.sum()
    cp, cq = np.cumsum(p), np.cumsum(q)
    cp[-1] = cq[-1] = 1.0
    t = np.union1d(cp, cq)
    t = t[(t > 0.0) & (t <= 1.0)]
    lengths = np.diff(np.concatenate(([0.0], t)))
    mid = t - 0.5 * lengths
    i = np.minimum(np.searchsorted(cp, mid), x.size - 1)
    j = np.minimum(np.searchsorted(cq, mid), y.size - 1)
    return math.sqrt(max(float(np.sum(lengths * (x[i] - y[j]) ** 2)), 0.0))


def born(effects, rho) -> np.ndarray:
    """Outcome probabilities tr(rho E_k) of a stack of effects."""
    return np.einsum("ij,kji->k", rho, np.asarray(effects)).real


def pure(psi) -> np.ndarray:
    """Density operator of a state vector."""
    psi = np.asarray(psi, dtype=complex).reshape(-1)
    return np.outer(psi, psi.conj())


def eps_moments(a, outcomes, effects, rho) -> float:
    """Noise-operator error from the moment operators of the effects."""
    outcomes = np.asarray(outcomes, dtype=float)
    m1 = np.einsum("k,kij->ij", outcomes, effects)
    m2 = np.einsum("k,kij->ij", outcomes**2, effects)
    dev = m1 - a
    value = np.trace(rho @ (m2 - m1 @ m1 + dev @ dev)).real
    return math.sqrt(max(float(value), 0.0))


def calibration(target_values, target_bases, outcomes, effects) -> float:
    """sqrt(max_y lambda_max(P_y sum_x (x - y)^2 C(x) P_y)).

    ``target_bases[k]`` holds orthonormal columns spanning the eigenspace of
    ``target_values[k]``, so P_y M P_y restricted to that space is b^dag M b.
    """
    best = 0.0
    for y, basis in zip(target_values, target_bases):
        m = np.einsum("k,kij->ij", (np.asarray(outcomes) - y) ** 2, effects)
        restricted = basis.conj().T @ m @ basis
        best = max(best, float(np.linalg.eigvalsh(0.5 * (restricted + restricted.conj().T))[-1]))
    return math.sqrt(best)


def qubit_worst(a_vec, c0: float, c_vec) -> float:
    """Closed-form worst case sqrt(2|1 - c0| + 2||a - c||) for qubit pairs."""
    return math.sqrt(2 * abs(1 - c0) + 2 * float(np.linalg.norm(np.asarray(a_vec) - c_vec)))


def noise_error_disturbance(u, sigma, pointer_basis, pointer_labels, a, b, rho):
    """<(U^dag(1 x Z_f)U - A x 1)^2> and <(U^dag(B x 1)U - B x 1)^2>, square-rooted."""
    d_obj, d_probe = a.shape[0], sigma.shape[0]
    zf = (pointer_basis * pointer_labels) @ pointer_basis.conj().T
    eye_o, eye_p = np.eye(d_obj), np.eye(d_probe)
    state = np.kron(rho, sigma)
    noise = u.conj().T @ np.kron(eye_o, zf) @ u - np.kron(a, eye_p)
    dist = u.conj().T @ np.kron(b, eye_p) @ u - np.kron(b, eye_p)
    eps = np.trace(state @ noise @ noise).real
    eta = np.trace(state @ dist @ dist).real
    return math.sqrt(max(float(eps), 0.0)), math.sqrt(max(float(eta), 0.0))
