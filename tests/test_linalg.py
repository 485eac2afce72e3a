import numpy as np
import pytest

from qcorr.linalg import partial_trace, validate_two_qubit_state, von_neumann_entropy

from oracles import SX, eig_hermitian, random_density_matrix, random_hermitian, random_pure_state, reconstruct


def test_eig_diagonal_matrix():
    dec = eig_hermitian(np.diag([3.0, 1.0, 2.0, 0.0]).astype(complex))
    assert np.allclose(dec.eigenvalues, [0.0, 1.0, 2.0, 3.0], atol=1e-14)


def test_eig_sigma_x():
    dec = eig_hermitian(SX)
    assert np.allclose(dec.eigenvalues, [-1.0, 1.0], atol=1e-14)
    minus = np.array([1.0, -1.0]) / np.sqrt(2.0)
    plus = np.array([1.0, 1.0]) / np.sqrt(2.0)
    assert abs(abs(np.vdot(dec.eigenvectors[:, 0], minus)) - 1.0) < 1e-12
    assert abs(abs(np.vdot(dec.eigenvectors[:, 1], plus)) - 1.0) < 1e-12


def test_eig_rejects_non_hermitian():
    m = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    with pytest.raises(ValueError):
        eig_hermitian(m)


def test_eig_reconstruction_and_orthonormality():
    rng = np.random.default_rng(7)
    for i in range(1000):
        m = random_hermitian(rng, 4 if i % 3 else 2)
        dec = eig_hermitian(m)
        assert np.abs(reconstruct(dec) - m).max() <= 1e-10
        v = dec.eigenvectors
        gram = v.conj().T @ v
        assert np.abs(gram - np.eye(m.shape[0])).max() <= 1e-10
        assert np.all(np.diff(dec.eigenvalues) >= 0.0)


def test_eig_deterministic():
    rng = np.random.default_rng(23)
    m = random_hermitian(rng, 4)
    a = eig_hermitian(m)
    b = eig_hermitian(m.copy())
    assert np.array_equal(a.eigenvalues, b.eigenvalues)
    assert np.array_equal(a.eigenvectors, b.eigenvectors)


def test_eig_degenerate_projectors():
    # eigenvalue 1 twice: the projector onto the degenerate pair is contractual
    u = np.linalg.qr(
        np.random.default_rng(5).normal(size=(4, 4))
        + 1j * np.random.default_rng(6).normal(size=(4, 4))
    )[0]
    m = u @ np.diag([1.0, 1.0, 2.0, 3.0]) @ u.conj().T
    m = 0.5 * (m + m.conj().T)
    dec = eig_hermitian(m)
    pair = dec.eigenvectors[:, :2]
    proj = pair @ pair.conj().T
    expected = u[:, :2] @ u[:, :2].conj().T
    assert np.abs(proj - expected).max() <= 1e-10


def test_partial_trace_maximally_mixed():
    rho = np.eye(4, dtype=complex) / 4.0
    assert np.abs(partial_trace(rho, "A") - np.eye(2) / 2.0).max() <= 1e-14


def test_partial_trace_bell():
    bell = np.zeros((4, 4), dtype=complex)
    bell[1, 1] = bell[2, 2] = bell[1, 2] = bell[2, 1] = 0.5
    assert np.abs(partial_trace(bell, "B") - np.eye(2) / 2.0).max() <= 1e-14


def test_partial_trace_product_state():
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = 1.0
    expected = np.array([[1.0, 0.0], [0.0, 0.0]])
    assert np.abs(partial_trace(rho, "A") - expected).max() <= 1e-14


def test_partial_trace_preserves_trace():
    rng = np.random.default_rng(13)
    for _ in range(100):
        rho = random_density_matrix(rng)
        for keep in ("A", "B"):
            reduced = partial_trace(rho, keep)
            assert abs(reduced.trace() - rho.trace()) <= 1e-12


def test_partial_trace_rejects_bad_subsystem():
    with pytest.raises(ValueError):
        partial_trace(np.eye(4, dtype=complex) / 4.0, "C")


def test_entropy_maximally_mixed():
    assert von_neumann_entropy(np.eye(4, dtype=complex) / 4.0) == pytest.approx(2.0, abs=1e-12)


def test_entropy_pure_states():
    rng = np.random.default_rng(17)
    for _ in range(50):
        assert von_neumann_entropy(random_pure_state(rng)) <= 1e-10


def test_entropy_rank_two():
    rho = np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex)
    assert von_neumann_entropy(rho) == pytest.approx(1.0, abs=1e-12)


def test_entropy_unitary_invariance():
    rng = np.random.default_rng(19)
    for _ in range(200):
        rho = random_density_matrix(rng)
        # random unitary from the eigenvector set of a random Hermitian matrix
        u = eig_hermitian(random_hermitian(rng, 4)).eigenvectors
        rotated = u @ rho @ u.conj().T
        rotated = 0.5 * (rotated + rotated.conj().T)
        assert abs(von_neumann_entropy(rotated) - von_neumann_entropy(rho)) <= 1e-10


def test_entropy_rejects_negative_eigenvalue():
    rho = np.diag([1.1, -0.1, 0.0, 0.0]).astype(complex)
    with pytest.raises(ValueError):
        von_neumann_entropy(rho)


def test_validate_two_qubit_state_rejects_bad_trace():
    with pytest.raises(ValueError):
        validate_two_qubit_state(np.eye(4, dtype=complex))
