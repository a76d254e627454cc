import math
import warnings

import numpy as np
import pytest

from qmu import opalg
from qmu.opalg import (
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    check_density,
    check_hermitian,
    check_unitary,
    eig_hermitian,
    spread,
    tensor,
)


def test_eig_known_spectrum_sigma_z():
    evals, evecs = eig_hermitian(SIGMA_Z)
    np.testing.assert_allclose(evals, [-1.0, 1.0], atol=1e-12)
    np.testing.assert_allclose(evecs.conj().T @ evecs, np.eye(2), atol=1e-12)


def test_eig_degenerate_identity():
    evals, evecs = eig_hermitian(np.eye(2))
    np.testing.assert_allclose(evals, [1.0, 1.0], atol=1e-12)
    np.testing.assert_allclose(evecs.conj().T @ evecs, np.eye(2), atol=1e-12)


def test_eig_half_diagonal_pauli_combination():
    # (sigma1 + sigma2)/(2*sqrt(2)): characteristic polynomial l^2 - 1/4 by hand,
    # so the spectrum is (-1/2, +1/2).
    op = (SIGMA_X + SIGMA_Y) / (2.0 * np.sqrt(2.0))
    evals, _ = eig_hermitian(op)
    np.testing.assert_allclose(evals, [-0.5, 0.5], atol=1e-12)


def test_eig_reconstruction_and_trace_random():
    rng = np.random.default_rng(7)
    for _ in range(20):
        op = opalg.random_hermitian(5, rng)
        evals, evecs = eig_hermitian(op)
        recon = evecs @ np.diag(evals) @ evecs.conj().T
        assert np.linalg.norm(recon - op) < 1e-10
        assert abs(evals.sum() - np.trace(op).real) < 1e-10
        assert np.linalg.norm(evecs.conj().T @ evecs - np.eye(5)) < 1e-10
        assert np.all(np.diff(evals) >= -1e-14)


def test_eig_phase_convention_deterministic():
    rng = np.random.default_rng(3)
    op = opalg.random_hermitian(4, rng)
    _, v1 = eig_hermitian(op)
    _, v2 = eig_hermitian(op.copy())
    np.testing.assert_array_equal(v1, v2)
    for k in range(4):
        idx = int(np.argmax(np.abs(v1[:, k])))
        assert v1[idx, k].real > 0
        assert abs(v1[idx, k].imag) < 1e-14


def test_eig_rejects_non_hermitian():
    with pytest.raises(ValueError):
        eig_hermitian(np.array([[0, 1], [0, 0]], dtype=complex))


def test_tensor_identities():
    np.testing.assert_allclose(tensor(np.eye(2), np.eye(3)), np.eye(6), atol=0)
    evals = np.linalg.eigvalsh(tensor(SIGMA_Z, np.eye(2)))
    np.testing.assert_allclose(np.sort(evals), [-1, -1, 1, 1], atol=1e-12)


def test_tensor_ordering_object_major():
    # Index (i_obj, i_probe) flattened object-major: entry ((0,1),(0,1)) = a00*b11.
    a = np.array([[2, 0], [0, 3]], dtype=complex)
    b = np.array([[5, 0], [0, 7]], dtype=complex)
    t = tensor(a, b)
    assert t[1, 1] == a[0, 0] * b[1, 1]
    assert t[2, 2] == a[1, 1] * b[0, 0]


def test_tensor_trace_multiplicativity_random():
    # Oracle: direct multiplication of the traces.
    rng = np.random.default_rng(11)
    for _ in range(10):
        a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        b = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        assert abs(np.trace(tensor(a, b)) - np.trace(a) * np.trace(b)) < 1e-12


def test_validators():
    check_hermitian(SIGMA_Y)
    check_density(opalg.bloch_state([0, 0, 1]))
    check_unitary(np.eye(3))
    with pytest.raises(ValueError):
        check_density(np.diag([1.5, -0.5]).astype(complex))
    with pytest.raises(ValueError):
        check_unitary(2 * np.eye(2))


def test_haar_unitary_is_unitary_and_seeded():
    rng = np.random.default_rng(0)
    u = opalg.haar_unitary(4, rng)
    check_unitary(u)
    u2 = opalg.haar_unitary(4, np.random.default_rng(0))
    np.testing.assert_array_equal(u, u2)


def test_degenerate_eigenspace_rotation_invariance():
    # Downstream spectral projections must not depend on the basis chosen
    # inside a degenerate block: compare projections onto the degenerate
    # eigenspace after a random rotation of the input basis.
    rng = np.random.default_rng(21)
    op = np.diag([1.0, 1.0, 3.0]).astype(complex)
    u = opalg.haar_unitary(3, rng)
    rotated = u @ op @ u.conj().T
    evals, evecs = eig_hermitian(rotated)
    proj = evecs[:, :2] @ evecs[:, :2].conj().T
    expected = u @ np.diag([1.0, 1.0, 0.0]).astype(complex) @ u.conj().T
    np.testing.assert_allclose(proj, expected, atol=1e-10)


def test_spread_matches_the_spectral_distribution():
    from qmu.observables import distribution_of, spectral_measure

    rng = np.random.default_rng(11)
    for dim in (2, 3, 4):
        for _ in range(10):
            a = opalg.random_hermitian(dim, rng)
            for rho in (opalg.random_density(dim, rng),
                        opalg.projector(opalg.haar_state(dim, rng))):
                expected = distribution_of(spectral_measure(a), rho).std
                assert abs(spread(a, rho) - expected) < 1e-12


def phases_by_column(vecs):
    """The per-column phase convention, one column at a time."""
    vecs = vecs.copy()
    for k in range(vecs.shape[1]):
        idx = int(np.argmax(np.abs(vecs[:, k])))
        pivot = vecs[idx, k]
        if abs(pivot) > 0:
            vecs[:, k] *= pivot.conj() / abs(pivot)
    return vecs


def test_fix_phases_equals_the_per_column_loop_bitwise():
    rng = np.random.default_rng(41)
    s = 1 / np.sqrt(2)
    cases = [
        # the two largest entries of a column have equal magnitude
        np.array([[s, 1j * s], [-1j * s, s]]),
        np.array([[0.5, 0.5j, 0.5, -0.5j], [-0.5j, 0.5, 0.5j, 0.5],
                  [0.5, -0.5, 0.5, 0.5], [0.5j, 0.5j, -0.5j, 0.5j]]).T,
        np.array([[0.6, -0.8], [-0.8, -0.6]], dtype=complex),  # real, signed zeros
        np.array([[0.0, 1.0], [1j, 0.0]]),
    ]
    for dim in (1, 2, 3, 5, 9):
        for real in (False, True):
            h = opalg.random_hermitian(dim, rng)
            cases.append(np.linalg.eigh(h.real.astype(complex) if real else h)[1])
    for vecs in cases:
        expected = phases_by_column(vecs)
        assert opalg.fix_phases(vecs.copy()).tobytes() == np.ascontiguousarray(expected).tobytes()
    stack = np.linalg.eigh(opalg.random_hermitian(4, rng, n=50))[1]
    fixed = opalg.fix_phases(stack.copy())
    for vecs, got in zip(stack, fixed):
        assert got.tobytes() == phases_by_column(vecs).tobytes()
    evals, evecs = eig_hermitian(opalg.random_hermitian(3, rng, n=7))
    assert evals.shape == (7, 3) and evecs.shape == (7, 3, 3)


@pytest.mark.parametrize("entries, message", [
    ({(0, 0): np.inf}, "non-finite"),
    ({(0, 1): np.inf}, "non-finite"),
    ({(0, 1): np.inf, (1, 0): np.inf}, "non-finite"),
    ({(1, 1): complex(np.nan, 0.0)}, "non-finite"),
    ({(0, 1): complex(0.0, -np.inf), (1, 0): complex(0.0, np.inf)}, "non-finite"),
    ({(0, 1): 1.7e308, (1, 0): -1.7e308}, "not Hermitian"),
    ({(0, 1): 1e-11}, "not Hermitian"),
])
def test_hermitian_check_in_one_pass_names_each_fault(entries, message):
    m = np.eye(2, dtype=complex) * 0.5
    for index, value in entries.items():
        m[index] = value
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=message):
            check_hermitian(m)
        with pytest.raises(ValueError, match=message):
            check_density(np.stack([0.5 * np.eye(2), m]))


@pytest.mark.parametrize("r", [[np.nan, 0.0, 0.0], [0.0, np.inf, 0.0], [1.0, 0.0, 0.1]])
def test_bloch_state_rejects_a_non_finite_or_outside_vector(r):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="unit ball"):
            opalg.bloch_state(r)


def test_unit_vector_normalises_at_any_finite_scale():
    rng = np.random.default_rng(30)
    for v in rng.standard_normal((200, 3)) * 10.0 ** rng.uniform(-100, 100, (200, 1)):
        unit = opalg.unit_vector(v)
        assert unit.tobytes() == (v / np.linalg.norm(v)).tobytes()
        # exact power-of-two scalings to peaks of 2^e, most past the plain norm's range
        for e in (-960, -540, 540, 1020):
            scaled = np.ldexp(v, e - math.frexp(np.abs(v).max())[1])
            assert opalg.unit_vector(scaled).tobytes() == unit.tobytes()
    for tiny in (1e-320, 5e-324):
        assert opalg.unit_vector([0.0, -tiny, 0.0]).tolist() == [0.0, -1.0, 0.0]
    for bad in ([0.0, 0.0, 0.0], [0.0, -0.0, 0.0], [np.nan, 1.0, 0.0], [np.inf, 1.0, 0.0]):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="nonzero finite"):
                opalg.unit_vector(bad)
