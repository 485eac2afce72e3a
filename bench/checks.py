"""Independent output checks for the benchmark.

Nothing here imports qcorr.  States are rebuilt from the model parameters
with scipy's matrix exponential (the Gibbs state from exp(-H/T), the
dephased Bell pair from exp(Lt) of the 16x16 Milburn generator), the
concurrence comes from the Hermitian sqrt(rho) rho~ sqrt(rho) route, and the
minimum measured conditional entropy from a dense grid over Bloch
directions.  The checks return the indices of failing points; the caller
decides what a failure counts as.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import expm

_SX = np.array([[0, 1], [1, 0]], dtype=complex)
_SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
_SZ = np.array([[1, 0], [0, -1]], dtype=complex)
_YY = np.kron(_SY, _SY)
_BELL = np.zeros((4, 4), dtype=complex)
_BELL[1, 1] = _BELL[2, 2] = _BELL[1, 2] = _BELL[2, 1] = 0.5

# tolerances of the row checks
IDENTITY_TOL = 1e-9  # I = CC + QD, and the sign and entropy bounds
CLOSED_FORM_TOL = 1e-10  # closed_form_dev column of the decoherence CSV
CONCURRENCE_TOL = 1e-6  # the sqrt route carries a noise floor near sqrt(eps)
INFO_TOL = 1e-8
# S_min may exceed the dense-grid minimum by at most this much (criterion 5's
# bound); a grid of N_ALPHA x N_BETA directions sits above the true minimum
# by at most SMIN_BELOW_TOL, so a reported value further below it is wrong too
SMIN_ABOVE_TOL = 1e-5
SMIN_BELOW_TOL = 1e-3
N_ALPHA, N_BETA = 256, 512


def hamiltonian(jx, jy, jz, dz):
    """1/2 [Jx sx.sx + Jy sy.sy + Jz sz.sz + Dz (sx.sy - sy.sx)], stacked over inputs."""
    jx, jy, jz, dz = (np.asarray(v, dtype=float)[..., None, None] for v in (jx, jy, jz, dz))
    return 0.5 * (
        jx * np.kron(_SX, _SX)
        + jy * np.kron(_SY, _SY)
        + jz * np.kron(_SZ, _SZ)
        + dz * (np.kron(_SX, _SY) - np.kron(_SY, _SX))
    )


def gibbs_states(jx, jy, jz, dz, temperature):
    """exp(-H/T)/Z for arrays of inputs, via the matrix exponential."""
    jx, jy, jz, dz, temperature = np.broadcast_arrays(jx, jy, jz, dz, temperature)
    h = hamiltonian(jx, jy, jz, dz)
    t = np.asarray(temperature, dtype=float)[..., None, None]
    # shift by a lower bound of the spectrum so exp stays finite at low T
    shift = -np.abs(h).sum(axis=-1).max(axis=-1)[..., None, None]
    g = expm(-(h - shift * np.eye(4)) / t)
    return g / np.trace(g, axis1=-2, axis2=-1).real[..., None, None]


def dephased_bell_states(jx, jy, jz, dz, gamma, time):
    """Bell pair (|01>+|10>)/sqrt2 after drho/dt = -i[H,rho] - (gamma/2)[H,[H,rho]]."""
    jx, jy, jz, dz, gamma, time = np.broadcast_arrays(jx, jy, jz, dz, gamma, time)
    h = hamiltonian(jx, jy, jz, dz)
    eye = np.eye(4)
    # row-major vec: vec(A rho B) = (A kron B^T) vec(rho)
    k = np.einsum("...ij,kl->...ikjl", h, eye).reshape(h.shape[:-2] + (16, 16))
    k = k - np.einsum("ij,...lk->...ikjl", eye, h).reshape(h.shape[:-2] + (16, 16))
    g = np.asarray(gamma, dtype=float)[..., None, None]
    t = np.asarray(time, dtype=float)[..., None, None]
    gen = (-1j * k - 0.5 * g * (k @ k)) * t
    out = (expm(gen) @ _BELL.reshape(16)).reshape(h.shape[:-2] + (4, 4))
    return 0.5 * (out + np.conj(np.swapaxes(out, -1, -2)))


def _entropy(m):
    lam = np.clip(np.linalg.eigvalsh(m), 0.0, None)
    terms = np.where(lam > 1e-15, -lam * np.log2(np.where(lam > 1e-15, lam, 1.0)), 0.0)
    return terms.sum(axis=-1)


def reduced_a(rho):
    return np.einsum("...abcb->...ac", rho.reshape(rho.shape[:-2] + (2, 2, 2, 2)))


def reduced_b(rho):
    return np.einsum("...abad->...bd", rho.reshape(rho.shape[:-2] + (2, 2, 2, 2)))


def entropies(rho):
    """(S_A, S_B, S_AB) in bits for a stack of 4x4 states."""
    return _entropy(reduced_a(rho)), _entropy(reduced_b(rho)), _entropy(rho)


def concurrence(rho):
    """Wootters concurrence from the eigenvalues of sqrt(rho) rho~ sqrt(rho)."""
    lam, vec = np.linalg.eigh(rho)
    root = (vec * np.sqrt(np.clip(lam, 0.0, None))[..., None, :]) @ np.conj(np.swapaxes(vec, -1, -2))
    tilde = _YY @ np.conj(rho) @ _YY
    ev = np.sqrt(np.clip(np.linalg.eigvalsh(root @ tilde @ root), 0.0, None))[..., ::-1]
    return np.clip(ev[..., 0] - ev[..., 1] - ev[..., 2] - ev[..., 3], 0.0, None)


_ALPHA = np.repeat(np.linspace(0.0, np.pi / 2.0, N_ALPHA), N_BETA)
_BETA = np.tile(np.linspace(0.0, 2.0 * np.pi, N_BETA, endpoint=False), N_ALPHA)
_BLOCH = np.stack(
    [np.sin(_ALPHA) * np.cos(_BETA), np.sin(_ALPHA) * np.sin(_BETA), np.cos(_ALPHA)]
)


def _plogp(x):
    return np.where(x > 1e-15, x * np.log2(np.where(x > 1e-15, x, 1.0)), 0.0)


def dense_min_conditional_entropy(rho):
    """min over Bloch directions n of sum_+- p S(rho_A | outcome), on the dense grid.

    The outcome-+- block of qubit A is (rho_A +- sum_j n_j Tr_B[(1 x s_j) rho]) / 2;
    its eigenvalues come from the 2x2 trace and discriminant.
    """
    r = rho.reshape(2, 2, 2, 2)
    ra = np.einsum("abcb->ac", r)
    tj = [np.einsum("abcd,db->ac", r, s) for s in (_SX, _SY, _SZ)]
    total = np.zeros(_ALPHA.size)
    for sign in (1.0, -1.0):
        blk = [
            0.5 * (ra[i, j] + sign * (_BLOCH[0] * tj[0][i, j] + _BLOCH[1] * tj[1][i, j] + _BLOCH[2] * tj[2][i, j]))
            for i, j in ((0, 0), (1, 1), (0, 1))
        ]
        a, d, b = blk[0].real, blk[1].real, blk[2]
        p = a + d
        disc = np.sqrt(((a - d) / 2.0) ** 2 + b.real**2 + b.imag**2)
        mu1, mu2 = np.clip(p / 2.0 + disc, 0.0, None), np.clip(p / 2.0 - disc, 0.0, None)
        total += _plogp(p) - _plogp(mu1) - _plogp(mu2)
    return float(total.min())


def row_failures(conc, info, cc, qd, sa, sb):
    """Indices of points that break 0<=C<=1, I=CC+QD, CC,QD>=0 or CC,QD<=min(S_A,S_B)."""
    conc, info, cc, qd = (np.asarray(v, dtype=float) for v in (conc, info, cc, qd))
    smin = np.minimum(sa, sb)
    bad = (
        ~np.isfinite(conc + info + cc + qd)
        | (conc < 0.0)
        | (conc > 1.0)
        | (np.abs(info - cc - qd) > IDENTITY_TOL)
        | (cc < -IDENTITY_TOL)
        | (qd < -IDENTITY_TOL)
        | (cc > smin + IDENTITY_TOL)
        | (qd > smin + IDENTITY_TOL)
    )
    return set(np.flatnonzero(bad).tolist())


def oracle_failures(rho, conc, info, cc, qd):
    """Indices whose C, I or S_min disagree with the oracle, plus the largest S_min gap.

    rho is the oracle's own stack of states; S_min is read back from the
    reported values as S_A - CC.
    """
    sa, sb, sab = entropies(rho)
    bad = set()
    gaps = []
    for i in range(rho.shape[0]):
        gap = (sa[i] - cc[i]) - dense_min_conditional_entropy(rho[i])
        gaps.append(gap)
        if (
            abs(conc[i] - concurrence(rho[i])) > CONCURRENCE_TOL
            or abs(info[i] - (sa[i] + sb[i] - sab[i])) > INFO_TOL
            or gap > SMIN_ABOVE_TOL
            or gap < -SMIN_BELOW_TOL
        ):
            bad.add(i)
    return bad, max(gaps) if gaps else None
