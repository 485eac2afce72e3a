"""Dense complex linear algebra for 2x2 and 4x4 Hermitian matrices.

Kronecker products, Hermitian eigendecomposition, partial trace and von
Neumann entropy, plus the Pauli constants everything else is built from.
All functions are pure and treat their array arguments as immutable, so
values can be shared freely across workers.

Entropies are in bits (base-2 logarithms) throughout the package.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

HERMITIAN_TOL = 1e-12
TRACE_TOL = 1e-12
PSD_TOL = 1e-10

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
IDENTITY_2 = np.eye(2, dtype=complex)
for _m in (SIGMA_X, SIGMA_Y, SIGMA_Z, IDENTITY_2):
    _m.setflags(write=False)


def is_hermitian(m: np.ndarray, tol: float = HERMITIAN_TOL) -> bool:
    m = np.asarray(m)
    return m.ndim == 2 and m.shape[0] == m.shape[1] and bool(
        np.abs(m - m.conj().T).max() <= tol
    )


def _as_square(m, dims=(2, 4)) -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if m.shape[0] not in dims:
        raise ValueError(f"expected dimension in {dims}, got {m.shape[0]}")
    return m


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of two 2x2 matrices in the basis |00>,|01>,|10>,|11>."""
    a = _as_square(a, dims=(2,))
    b = _as_square(b, dims=(2,))
    return np.kron(a, b)


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalues (ascending) and orthonormal eigenvector columns of a Hermitian matrix."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def reconstruct(self) -> np.ndarray:
        v = self.eigenvectors
        return (v * self.eigenvalues) @ v.conj().T


def eig_hermitian(m: np.ndarray) -> SpectralDecomposition:
    """Deterministic dense eigendecomposition of a Hermitian matrix.

    Raises ValueError if the input is not Hermitian within 1e-12.  For a
    degenerate eigenvalue the returned vectors are an orthonormal basis of
    the eigenspace; only the spectral projectors are contractual.
    """
    m = _as_square(m)
    if not is_hermitian(m):
        raise ValueError("matrix is not Hermitian within 1e-12")
    vals, vecs = np.linalg.eigh(m)
    vals.setflags(write=False)
    vecs.setflags(write=False)
    return SpectralDecomposition(eigenvalues=vals, eigenvectors=vecs)


def validate_two_qubit_state(rho: np.ndarray) -> np.ndarray:
    """Check Hermiticity, unit trace and positivity of a 4x4 density matrix."""
    rho = _as_square(rho, dims=(4,))
    if not is_hermitian(rho):
        raise ValueError("density matrix is not Hermitian within 1e-12")
    tr = rho.trace()
    if abs(tr - 1.0) > TRACE_TOL:
        raise ValueError(f"density matrix trace {tr} differs from 1 beyond 1e-12")
    lam_min = np.linalg.eigvalsh(rho).min()
    if lam_min < -PSD_TOL:
        raise ValueError(f"density matrix has negative eigenvalue {lam_min:.3e}")
    return rho


def partial_trace(rho: np.ndarray, keep: str) -> np.ndarray:
    """Reduced 2x2 state of qubit ``keep`` ("A" = first, "B" = second)."""
    return _reduced_state(validate_two_qubit_state(rho), keep)


def _reduced_state(rho: np.ndarray, keep: str) -> np.ndarray:
    """partial_trace of a state its caller has already validated."""
    r = rho.reshape(2, 2, 2, 2)
    if keep == "A":
        return np.einsum("abcb->ac", r)
    if keep == "B":
        return np.einsum("abad->bd", r)
    raise ValueError(f"keep must be 'A' or 'B', got {keep!r}")


def von_neumann_entropy(m: np.ndarray) -> float:
    """Entropy -sum(lam * log2 lam) in bits of a Hermitian, PSD, unit-trace matrix.

    Eigenvalues in [-1e-10, 0) are treated as round-off and clipped to zero;
    anything more negative raises ValueError.  Eigenvalues at or below 1e-12
    contribute nothing.
    """
    m = _as_square(m)
    if not is_hermitian(m):
        raise ValueError("entropy requires a Hermitian matrix")
    if abs(m.trace() - 1.0) > 1e-9:
        raise ValueError(f"entropy requires unit trace, got {m.trace()}")
    lam = np.linalg.eigvalsh(m)
    if lam[0] < -PSD_TOL:
        raise ValueError(f"invalid state: eigenvalue {lam[0]:.3e} below -1e-10")
    lam = lam[lam > 1e-12]
    s = float(-(lam * np.log2(lam)).sum())
    return min(max(s, 0.0), float(np.log2(m.shape[0])))
