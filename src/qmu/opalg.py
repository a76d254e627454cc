"""Dense complex operator algebra for finite-dimensional quantum models.

Operators are plain square ``numpy`` arrays of ``complex128``; the validators
below are the construction boundary for Hermitian operators, density
operators and unitaries.  Validators, expectations, tensor products and the
random draws also take stacks ``(..., d, d)`` of operators, so a batch of
small models runs as one array computation.  Tolerances are build-time
constants, not knobs.
"""

from __future__ import annotations

import math

import numpy as np

# Validation tolerances (absolute unless noted).
TOL_HERM = 1e-12          # per-entry Hermiticity
TOL_TRACE = 1e-12         # trace-one for density operators
TOL_PSD = 1e-12           # eigenvalue floor for positivity
TOL_UNITARY = 1e-10       # Frobenius norm of U^dag U - 1

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULI = np.stack([SIGMA_X, SIGMA_Y, SIGMA_Z])


def _square_complex(a) -> np.ndarray:
    m = np.asarray(a, dtype=complex)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    return m


def as_complex_matrix(a) -> np.ndarray:
    """Coerce to a square complex matrix, or a stack of them, with finite entries."""
    m = _square_complex(a)
    if not np.isfinite(m).all():
        raise ValueError("matrix has non-finite entries")
    return m


def check_hermitian(a) -> np.ndarray:
    """Validate a Hermitian matrix, or a stack of them, with finite entries.

    One pass: a non-finite entry makes its own deviation from the conjugate
    transpose non-finite, so finiteness is tested only when that fails.
    """
    m = _square_complex(a)
    with np.errstate(invalid="ignore", over="ignore"):
        dev = np.abs(m - m.conj().swapaxes(-1, -2)).max() if m.size else 0.0
    if not dev <= TOL_HERM:
        if not np.isfinite(m).all():
            raise ValueError("matrix has non-finite entries")
        raise ValueError(f"matrix is not Hermitian (max deviation {dev:.3e})")
    return m


def check_density(rho) -> np.ndarray:
    """Validate a density operator, or a stack of them: Hermitian, trace one, positive."""
    m = check_hermitian(rho)
    tr = m.trace(axis1=-2, axis2=-1).real
    off = np.abs(tr - 1.0)
    if off.max() > TOL_TRACE:
        raise ValueError(f"density operator has trace {float(tr.flat[off.argmax()])!r}, expected 1")
    lowest = np.linalg.eigvalsh(m).min()
    if lowest < -TOL_PSD:
        raise ValueError(f"density operator has negative eigenvalue {lowest:.3e}")
    return m


def check_unitary(u) -> np.ndarray:
    m = as_complex_matrix(u)
    dev = np.linalg.norm(dagger(m) @ m - np.eye(m.shape[-1]), axis=(-2, -1)).max()
    if dev > TOL_UNITARY:
        raise ValueError(f"matrix is not unitary (||U^dag U - 1|| = {dev:.3e})")
    return m


def dagger(a: np.ndarray) -> np.ndarray:
    return np.asarray(a).conj().swapaxes(-1, -2)


def expectation(op: np.ndarray, rho: np.ndarray):
    """Real expectation value tr(rho op) for Hermitian op; stacks give an array."""
    value = np.einsum("...ij,...ji->...", rho, op).real
    return value if value.ndim else float(value)


def sqrt_clamped(square):
    """sqrt(max(square, 0)): a float for a float, elementwise for an array.

    Rounding can leave a mathematically nonnegative square just below zero.
    """
    square = np.maximum(square, 0.0)
    return np.sqrt(square) if np.ndim(square) else math.sqrt(square)


def spread(op: np.ndarray, rho: np.ndarray):
    """Standard deviation sqrt(tr[(A - <A>) rho (A - <A>)]) of Hermitian op in rho."""
    mean = np.asarray(expectation(op, rho))
    centred = op - mean[..., None, None] * np.eye(op.shape[-1])
    return sqrt_clamped(expectation(centred @ centred, rho))


def eig_hermitian(op) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix, or a stack, with a fixed phase convention.

    Returns ascending eigenvalues and orthonormal eigenvector columns, phases
    fixed by ``fix_phases``, so the output is deterministic up to
    degenerate-block rotations.
    """
    evals, evecs = np.linalg.eigh(check_hermitian(op))
    return evals, fix_phases(evecs)


def fix_phases(vecs: np.ndarray) -> np.ndarray:
    """Unit columns ``vecs`` (..., d, k), each with its largest-magnitude component real positive.

    Works in place when ``vecs`` is contiguous, as ``eigh`` returns it.  The
    first of equally large components is the pivot.  The phase conj(p)/|p|
    is formed term by term as numpy's scalar complex division forms it (|p|
    by ``hypot``, then its reciprocal, zero signs kept), so every column of
    a stack rounds exactly as the scalar ``p.conj() / abs(p)`` does.
    """
    d, k = vecs.shape[-2:]
    cols = vecs.reshape(-1, d, k)
    pivot = cols[np.arange(cols.shape[0])[:, None], np.abs(cols).argmax(axis=1), np.arange(k)]
    re, im = pivot.real, -pivot.imag
    scale = 1.0 / np.hypot(re, im)
    ratio = 0.0 * scale  # the imaginary part of |p| over its real part
    phase = np.empty_like(pivot)
    phase.real = (re + im * ratio) * scale
    phase.imag = (im - re * ratio) * scale
    cols *= phase[:, None, :]
    return cols.reshape(vecs.shape)


def tensor(a, b) -> np.ndarray:
    """Kronecker product, object factor first: index (i_obj, i_probe).

    Stacks broadcast over their leading axes; the factors are not checked.
    """
    a, b = np.asarray(a), np.asarray(b)
    lead = np.broadcast_shapes(a.shape[:-2], b.shape[:-2])
    dim = a.shape[-1] * b.shape[-1]
    return (a[..., :, None, :, None] * b[..., None, :, None, :]).reshape(*lead, dim, dim)


def projector(vec) -> np.ndarray:
    """|v><v| / <v|v> of a vector, or of each row of a stack (n, d) of vectors."""
    v = np.asarray(vec, dtype=complex)
    v = v / np.linalg.norm(v, axis=-1, keepdims=True)
    return v[..., :, None] * v[..., None, :].conj()


def bloch_operator(v) -> np.ndarray:
    """v . sigma for a real 3-vector v, or a stack (..., 3) of them."""
    v = np.asarray(v, dtype=float)[..., None, None]
    return v[..., 0, :, :] * SIGMA_X + v[..., 1, :, :] * SIGMA_Y + v[..., 2, :, :] * SIGMA_Z


def bloch_state(r) -> np.ndarray:
    """Qubit density operator (1 + r.sigma)/2 of a finite r with ||r|| <= 1."""
    r = np.asarray(r, dtype=float)
    if not np.linalg.norm(r) <= 1 + 1e-12:
        raise ValueError(f"Bloch vector must be finite and lie in the unit ball, got {r!r}")
    return 0.5 * (np.eye(2, dtype=complex) + bloch_operator(r))


def unit_vector(v) -> np.ndarray:
    """v / ||v|| for a real vector v of any finite nonzero scale.

    v is first scaled by the power of two that brings its largest |entry|
    into [1/2, 1), so the norm neither overflows nor underflows.  That
    scaling is exact for every entry it keeps in the normal range, so a
    vector whose plain norm does neither normalises bit for bit as
    v / ||v||.  Raises ValueError on a zero or non-finite vector.
    """
    v = np.asarray(v, dtype=float)
    peak = np.abs(v).max()
    if not 0 < peak < math.inf:
        raise ValueError(f"a direction needs a nonzero finite vector, got {v!r}")
    v = np.ldexp(v, -math.frexp(peak)[1])
    return v / np.linalg.norm(v)


# The random draws below return one draw, or a stack of n draws along a new
# leading axis when n is given; both take the stacked normalisation.


def _stack(n: int | None, *shape: int) -> tuple[int, ...]:
    return shape if n is None else (n, *shape)


def haar_state(dim: int, rng: np.random.Generator, n: int | None = None) -> np.ndarray:
    """Haar-random pure state vector."""
    v = rng.standard_normal(_stack(n, dim)) + 1j * rng.standard_normal(_stack(n, dim))
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


def haar_unitary(dim: int, rng: np.random.Generator, n: int | None = None) -> np.ndarray:
    """Haar-random unitary via QR with phase fixing."""
    shape = _stack(n, dim, dim)
    z = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    q, r = np.linalg.qr(z)
    ph = np.diagonal(r, axis1=-2, axis2=-1).copy()
    ph /= np.abs(ph)
    return q * ph[..., None, :]


def random_density(dim: int, rng: np.random.Generator, rank: int | None = None,
                   n: int | None = None) -> np.ndarray:
    """Random density operator as a mixture of Haar pure states."""
    rank = dim if rank is None else rank
    weights = rng.dirichlet(np.ones(rank), size=n)
    rho = np.zeros(_stack(n, dim, dim), dtype=complex)
    for k in range(rank):
        rho += weights[..., k, None, None] * projector(haar_state(dim, rng, n))
    return 0.5 * (rho + dagger(rho))


def random_hermitian(dim: int, rng: np.random.Generator, n: int | None = None) -> np.ndarray:
    shape = _stack(n, dim, dim)
    z = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return 0.5 * (z + dagger(z))
