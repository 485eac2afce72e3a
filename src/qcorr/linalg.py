"""Dense complex linear algebra for 2x2 and 4x4 Hermitian matrices.

Density-matrix validation, partial trace and von Neumann entropy.
All functions are pure and treat their array arguments as immutable, so
values can be shared freely across workers.

Entropies are in bits (base-2 logarithms) throughout the package, and
every one of them is built from the kernel x log2 x with 0 log 0 = 0
(``_xlog2x``); no eigenvalue or probability is floored.
"""

from __future__ import annotations

import numpy as np

HERMITIAN_TOL = 1e-12
TRACE_TOL = 1e-12
PSD_TOL = 1e-10


def is_hermitian(m: np.ndarray) -> bool:
    m = np.asarray(m)
    return m.ndim == 2 and m.shape[0] == m.shape[1] and bool(
        np.abs(m - m.conj().T).max() <= HERMITIAN_TOL
    )


def _as_square(m, dims=(2, 4)) -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if m.shape[0] not in dims:
        raise ValueError(f"expected dimension in {dims}, got {m.shape[0]}")
    return m


def validate_two_qubit_state(rho: np.ndarray) -> np.ndarray:
    """Check Hermiticity, unit trace and positivity of a 4x4 density matrix."""
    return validated_spectrum(rho)[0]


def validated_spectrum(rho: np.ndarray):
    """(rho, ascending eigenvalues, eigenvector columns), checked as by validate_two_qubit_state."""
    rho = _as_square(rho, dims=(4,))
    if not is_hermitian(rho):
        raise ValueError("density matrix is not Hermitian within 1e-12")
    tr = rho.trace()
    if abs(tr - 1.0) > TRACE_TOL:
        raise ValueError(f"density matrix trace {tr} differs from 1 beyond 1e-12")
    lam, vecs = np.linalg.eigh(rho)
    if lam[0] < -PSD_TOL:
        raise ValueError(f"density matrix has negative eigenvalue {lam[0]:.3e}")
    return rho, lam, vecs


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
    anything more negative raises ValueError.  Every positive eigenvalue
    counts, with 0 log 0 = 0.
    """
    m = _as_square(m)
    if not is_hermitian(m):
        raise ValueError("entropy requires a Hermitian matrix")
    if abs(m.trace() - 1.0) > 1e-9:
        raise ValueError(f"entropy requires unit trace, got {m.trace()}")
    lam = np.linalg.eigvalsh(m)
    if lam[0] < -PSD_TOL:
        raise ValueError(f"invalid state: eigenvalue {lam[0]:.3e} below -1e-10")
    return _spectrum_entropy(lam)


def _xlog2x(x) -> np.ndarray:
    """x log2 x elementwise, 0 where x <= 0 (0 log 0 = 0; negative round-off counts as 0)."""
    pos = x > 0.0
    return np.where(pos, x * np.log2(np.where(pos, x, 1.0)), 0.0)


def _spectrum_entropy(lam: np.ndarray) -> float:
    """von_neumann_entropy from the checked eigenvalues of a state, clipped to [0, log2 n]."""
    s = float(-_xlog2x(lam).sum())
    return min(max(s, 0.0), float(np.log2(lam.size)))
