"""Validation and entropy of 4x4 two-qubit density matrices.

``validated_spectrum`` is the one input check of the package: it returns
a density matrix with its eigendecomposition, or raises ValueError.  All
functions are pure and treat their array arguments as immutable, so
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


def _as_square(m) -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if m.shape[0] != 4:
        raise ValueError(f"expected dimension in (4,), got {m.shape[0]}")
    return m


def validated_spectrum(rho: np.ndarray):
    """(rho, ascending eigenvalues, eigenvector columns) of a checked 4x4 density matrix.

    Raises ValueError unless rho is Hermitian within 1e-12, has unit trace
    within 1e-12 and no eigenvalue below -1e-10.
    """
    rho = _as_square(rho)
    if not np.abs(rho - rho.conj().T).max() <= HERMITIAN_TOL:
        raise ValueError("density matrix is not Hermitian within 1e-12")
    tr = rho.trace()
    if abs(tr - 1.0) > TRACE_TOL:
        raise ValueError(f"density matrix trace {tr} differs from 1 beyond 1e-12")
    lam, vecs = np.linalg.eigh(rho)
    if lam[0] < -PSD_TOL:
        raise ValueError(f"density matrix has negative eigenvalue {lam[0]:.3e}")
    return rho, lam, vecs


def _xlog2x(x) -> np.ndarray:
    """x log2 x elementwise, 0 where x <= 0 (0 log 0 = 0; negative round-off counts as 0)."""
    pos = x > 0.0
    return np.where(pos, x * np.log2(np.where(pos, x, 1.0)), 0.0)


def _spectrum_entropy(lam: np.ndarray) -> float:
    """-sum(lam log2 lam) in bits from the checked eigenvalues of a state, clipped to [0, log2 n]."""
    s = float(-_xlog2x(lam).sum())
    return min(max(s, 0.0), float(np.log2(lam.size)))
