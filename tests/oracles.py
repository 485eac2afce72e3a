"""Independent reference implementations and random-state generators.

Everything here deliberately avoids the code paths used by the package:
the matrix exponential is a scaling-and-squaring Taylor evaluation, the
spectra come from dense LAPACK eigendecompositions rather than the
package's parity-block closed forms, reduced states are np.trace over the
other qubit's axes, entropies come from eigvalsh spectra, the dense
measurement search contracts explicit projector matrices, and the
Bell-diagonal discord comes from its analytic closed form.
"""

from typing import NamedTuple

import numpy as np

SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SY = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SZ = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


def expm_scaling_squaring(m):
    """exp(m) by scaling to 1-norm <= 0.5, Taylor summation, then squaring."""
    m = np.asarray(m, dtype=complex)
    norm = np.linalg.norm(m, 1)
    squarings = 0
    if norm > 0.5:
        squarings = int(np.ceil(np.log2(norm / 0.5)))
        m = m / (2.0**squarings)
    term = np.eye(m.shape[0], dtype=complex)
    out = term.copy()
    for k in range(1, 64):
        term = term @ m / k
        out = out + term
        if np.abs(term).max() < 1e-20:
            break
    for _ in range(squarings):
        out = out @ out
    return out


class Eigh(NamedTuple):
    """Ascending eigenvalues and orthonormal eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def eig_hermitian(m):
    """Dense LAPACK eigendecomposition of a Hermitian matrix.

    Raises ValueError if the input is not Hermitian within 1e-12.  For a
    degenerate eigenvalue the returned vectors are an orthonormal basis of
    the eigenspace; only the spectral projectors are contractual.
    """
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or np.abs(m - m.conj().T).max() > 1e-12:
        raise ValueError("matrix is not Hermitian within 1e-12")
    vals, vecs = np.linalg.eigh(m)
    return Eigh(vals, vecs)


def reconstruct(dec):
    """The matrix sum_k E_k |v_k><v_k| of an eigendecomposition."""
    v = dec.eigenvectors
    return (v * dec.eigenvalues) @ v.conj().T


def dense_gibbs_state(h, temperature):
    """Gibbs state from the dense eigendecomposition, weights shifted by the ground energy."""
    dec = eig_hermitian(h)
    w = np.exp(-(dec.eigenvalues - dec.eigenvalues[0]) / temperature)
    rho = (dec.eigenvectors * w) @ dec.eigenvectors.conj().T / w.sum()
    return 0.5 * (rho + rho.conj().T)


def thermal_oracle(h, temperature):
    """Gibbs state from the scaling-and-squaring exponential of -H/T."""
    g = expm_scaling_squaring(-np.asarray(h, complex) / temperature)
    return g / g.trace().real


def unitary_evolution_oracle(h, rho0, t):
    """exp(-iHt) rho0 exp(+iHt) via the scaling-and-squaring exponential."""
    u = expm_scaling_squaring(-1j * t * np.asarray(h, complex))
    return u @ rho0 @ u.conj().T


def reduced_state(rho, keep):
    """Reduced 2x2 state of qubit ``keep`` ("A" = first, "B" = second) by np.trace over the other."""
    r4 = np.asarray(rho, complex).reshape(2, 2, 2, 2)
    return np.trace(r4, axis1=1, axis2=3) if keep == "A" else np.trace(r4, axis1=0, axis2=2)


def eigvalsh_entropy(m):
    """-sum(p log2 p) in bits over the LAPACK eigvalsh spectrum of a Hermitian matrix; p <= 0 adds 0."""
    p = np.linalg.eigvalsh(np.asarray(m, complex))
    p = p[p > 0.0]
    return float(-(p * np.log2(p)).sum())


def _plogp_terms(n00, n11, n01):
    """p_k S(rho_k) from unnormalized 2x2 blocks, trace/determinant route."""
    p = n00 + n11
    det = n00 * n11 - (n01.real**2 + n01.imag**2)
    disc = np.sqrt(np.clip(p * p - 4.0 * det, 0.0, None))
    safe_p = np.where(p > 1e-12, p, 1.0)
    acc = np.zeros_like(p)
    for lam in ((p + disc) / (2.0 * safe_p), (p - disc) / (2.0 * safe_p)):
        lam = np.clip(lam, 0.0, None)
        mask = lam > 1e-12
        logl = np.log2(lam, out=np.zeros_like(lam), where=mask)
        acc -= lam * logl
    return np.where(p > 1e-12, p * acc, 0.0)


def dense_grid_min_conditional_entropy(rho, n_theta=1024, n_phi=2048, validate=None):
    """Minimum measured conditional entropy over a dense (theta, phi) grid.

    Builds the projector matrices explicitly for both outcomes, contracts
    them against the state, and diagonalizes the conditioned blocks via the
    trace/determinant formula.  When ``validate`` is an integer, that many
    randomly chosen grid blocks are re-diagonalized with LAPACK eigvalsh and
    must agree to 1e-12.
    """
    r4 = np.asarray(rho, complex).reshape(2, 2, 2, 2)
    thetas = np.repeat(np.linspace(0.0, np.pi / 2.0, n_theta), n_phi)
    phis = np.tile(np.linspace(0.0, 2.0 * np.pi, n_phi, endpoint=False), n_theta)
    best = np.inf
    rng = np.random.default_rng(20240229) if validate else None
    chunk = 1 << 18
    for lo in range(0, thetas.size, chunk):
        th = thetas[lo : lo + chunk]
        ph = phis[lo : lo + chunk]
        ct, st = np.cos(th), np.sin(th)
        e = np.exp(1j * ph)
        v0 = np.stack([ct + 0j, e * st], axis=-1)
        v1 = np.stack([e.conj() * st, -(ct + 0j)], axis=-1)
        total = np.zeros(th.size)
        for v in (v0, v1):
            proj = np.einsum("ni,nj->nij", v, v.conj())
            n = np.einsum("acxd,ndc->nax", r4, proj, optimize=True)
            n00, n11, n01 = n[:, 0, 0].real, n[:, 1, 1].real, n[:, 0, 1]
            total += _plogp_terms(n00, n11, n01)
            if rng is not None:
                for i in rng.integers(0, th.size, max(1, validate // 8)):
                    lam_ref = np.linalg.eigvalsh(n[i])
                    p = n[i, 0, 0].real + n[i, 1, 1].real
                    det = n[i, 0, 0].real * n[i, 1, 1].real - abs(n[i, 0, 1]) ** 2
                    disc = np.sqrt(max(p * p - 4.0 * det, 0.0))
                    assert abs(lam_ref[1] - (p + disc) / 2.0) < 1e-12
                    assert abs(lam_ref[0] - (p - disc) / 2.0) < 1e-12
        best = min(best, float(total.min()))
    return best


def explicit_conditional_entropy(rho, theta, phi):
    """sum_k p_k S(rho_k) built literally from 4x4 sandwiches (I x B_k) rho (I x B_k)."""
    c, s = np.cos(theta), np.sin(theta)
    v = np.array([[c, np.exp(-1j * phi) * s], [np.exp(1j * phi) * s, -c]], dtype=complex)
    total = 0.0
    for k in (0, 1):
        bk = np.outer(v[:, k], v[:, k].conj())
        op = np.kron(np.eye(2, dtype=complex), bk)
        cond = op @ rho @ op
        p = cond.trace().real
        if p <= 1e-12:
            continue
        lam = np.linalg.eigvalsh(cond / p)
        lam = lam[lam > 1e-12]
        total += p * float(-(lam * np.log2(lam)).sum())
    return total


def x_state_phase(rho):
    """phi that lines up the phases of rho14 and rho23 for an X state.

    For an X state the outcome-0 block after measuring B has off-diagonal
    cos(theta) sin(theta) (e^{i phi} rho14 + e^{-i phi} rho23); this phi makes
    its modulus cos(theta) sin(theta) (|rho14| + |rho23|), the largest it can
    be at that theta, and so leaves a 1-D search over theta.
    """
    return (np.angle(rho[1, 2]) - np.angle(rho[0, 3])) / 2.0


def x_state_conditional_entropy(rho, thetas):
    """Measured conditional entropy of an X state at each theta, phi = x_state_phase(rho)."""
    d = np.asarray(rho).diagonal().real
    c2, s2 = np.cos(thetas) ** 2, np.sin(thetas) ** 2
    off = (np.cos(thetas) * np.sin(thetas) * (abs(rho[0, 3]) + abs(rho[1, 2]))).astype(complex)
    total = _plogp_terms(c2 * d[0] + s2 * d[1], c2 * d[2] + s2 * d[3], off)
    total += _plogp_terms(s2 * d[0] + c2 * d[1], s2 * d[2] + c2 * d[3], off)
    return total


def x_state_min_conditional_entropy(rho, n_theta=100001):
    """Minimum of x_state_conditional_entropy over n_theta points of [0, pi/2]."""
    return float(x_state_conditional_entropy(rho, np.linspace(0.0, np.pi / 2.0, n_theta)).min())


def x_state_concurrence(rho):
    """X-state concurrence 2 max(0, |rho23| - sqrt(rho11 rho44), |rho14| - sqrt(rho22 rho33)).

    The algebraic form of Wootters' formula for a state whose only nonzero
    entries lie on the diagonal and the anti-diagonal (Yu & Eberly, Quantum
    Inf. Comput. 7, 459 (2007)); it reads only those entries.
    """
    d = np.clip(np.asarray(rho).diagonal().real, 0.0, None)
    c = 2.0 * max(0.0, abs(rho[1, 2]) - np.sqrt(d[0] * d[3]), abs(rho[0, 3]) - np.sqrt(d[1] * d[2]))
    return min(float(c), 1.0)


def spin_flip_concurrence(rho):
    """Wootters' textbook route: the square roots of the eigenvalues of rho (sy.sy) rho* (sy.sy).

    The operator is not Hermitian, so its eigenvalues come from the general
    eigensolver; near-zero ones are square-rooted, which leaves a noise
    floor around sqrt(machine epsilon) on rank-deficient states.
    """
    yy = np.kron(SY, SY)
    ev = np.linalg.eigvals(rho @ yy @ np.asarray(rho).conj() @ yy).real
    lam = np.sort(np.sqrt(np.clip(ev, 0.0, None)))[::-1]
    return min(max(float(lam[0] - lam[1] - lam[2] - lam[3]), 0.0), 1.0)


def bell_diagonal_state(c1, c2, c3):
    return 0.25 * (
        np.eye(4, dtype=complex)
        + c1 * np.kron(SX, SX)
        + c2 * np.kron(SY, SY)
        + c3 * np.kron(SZ, SZ)
    )


def bell_diagonal_exact(c1, c2, c3):
    """Analytic (I, CC, QD, S_min) of a Bell-diagonal state."""
    lam = 0.25 * np.array(
        [
            1 - c1 - c2 - c3,
            1 - c1 + c2 + c3,
            1 + c1 - c2 + c3,
            1 + c1 + c2 - c3,
        ]
    )
    if lam.min() < -1e-12:
        raise ValueError("not a valid Bell-diagonal state")
    lam = lam[lam > 1e-15]
    s_ab = float(-(lam * np.log2(lam)).sum())
    info = 2.0 - s_ab
    c = max(abs(c1), abs(c2), abs(c3))
    cc = 0.0
    for sign in (-1.0, 1.0):
        w = (1.0 + sign * c) / 2.0
        if w > 1e-15:
            cc += w * np.log2(2.0 * w)
    return {"I": info, "CC": cc, "QD": info - cc, "smin": 1.0 - cc}


def readme_hamiltonian(params):
    """H = 1/2 [Jx sx.sx + Jy sy.sy + Jz sz.sz + Dz (sx.sy - sy.sx)] from Kronecker products."""
    return 0.5 * (
        params.jx * np.kron(SX, SX)
        + params.jy * np.kron(SY, SY)
        + params.jz * np.kron(SZ, SZ)
        + params.dz * (np.kron(SX, SY) - np.kron(SY, SX))
    )


def gibbs_bell_diagonal_exact(params, temperature):
    """Analytic (C, I, CC, QD, S_min) of the Gibbs state of the README Hamiltonian.

    The Gibbs state comes from ``thermal_oracle``.  It is X-shaped with
    rho11 = rho44 and rho22 = rho33, so local z rotations make rho14 and
    rho23 real and non-negative without changing any of the measures; the
    result is the Bell-diagonal state with c1 = 2(|rho23|+|rho14|),
    c2 = 2(|rho23|-|rho14|), c3 = rho11+rho44-rho22-rho33, whose measures
    are closed-form (``bell_diagonal_exact``; C = max(0, 2 lambda_max - 1)).
    """
    rho = thermal_oracle(readme_hamiltonian(params), temperature)
    off_x = np.ones((4, 4), dtype=bool)
    off_x[[0, 1, 2, 3, 0, 3, 1, 2], [0, 1, 2, 3, 3, 0, 2, 1]] = False
    d = rho.diagonal().real
    spill = max(np.abs(rho[off_x]).max(), abs(d[0] - d[3]), abs(d[1] - d[2]))
    if spill > 1e-12:
        raise ValueError(f"Gibbs state is not locally Bell-diagonal (spill {spill:.3e})")
    r14, r23 = abs(rho[0, 3]), abs(rho[1, 2])
    c1, c2, c3 = 2.0 * (r23 + r14), 2.0 * (r23 - r14), d[0] + d[3] - d[1] - d[2]
    out = bell_diagonal_exact(c1, c2, c3)
    lam_max = 0.25 * max(1 - c1 - c2 - c3, 1 - c1 + c2 + c3, 1 + c1 - c2 + c3, 1 + c1 + c2 - c3)
    out["C"] = max(0.0, 2.0 * lam_max - 1.0)
    return out


def gibbs_sudden_change_dz(params):
    """Dz* > 0 where the optimal measurement of the Gibbs state switches from sz to sx, at every T.

    Regime: 2Jz - |Jx-Jy| > |Jx+Jy|.  With w_i = exp(-E_i/T) for the levels
    E1,2 = (Jz +- (Jx-Jy))/2 and E3,4 = (-Jz -+ mu)/2,
    mu = sqrt((Jx+Jy)^2 + 4 Dz^2), the locally Bell-diagonal form of the
    state (``gibbs_bell_diagonal_exact``) has c1 = (|w1-w2| + |w3-w4|)/Z and
    c3 = (w1+w2-w3-w4)/Z, and |c2| <= c1.  Luo's theorem measures sz while
    |c3| > c1.  Where the inner block holds more weight, |c3| = c1 reduces
    to max(w1, w2) = w4, the level crossing mu = 2Jz - |Jx-Jy|, which does
    not involve T: sz is optimal below Dz* = sqrt((2Jz - |Jx-Jy|)^2 -
    (Jx+Jy)^2) / 2 and sx at phi* above it (the sudden change of Maziero,
    Celeri, Serra & Vedral, PRA 80, 044102 (2009)).  params.dz is ignored.
    """
    crossing = 2.0 * params.jz - abs(params.jx - params.jy)
    if crossing <= abs(params.jx + params.jy):
        raise ValueError("no sudden change: 2Jz - |Jx-Jy| <= |Jx+Jy|")
    return 0.5 * float(np.sqrt(crossing**2 - (params.jx + params.jy) ** 2))


def dephased_bell_concurrence(params, gamma, t):
    """Concurrence of the Bell pair (|01>+|10>)/sqrt(2) under intrinsic decoherence.

    The pair lives in the odd-parity block, whose levels (-Jz +- mu)/2 have
    eigenvectors (e^{i arg beta}|01> +- |10>)/sqrt(2), beta = Jx+Jy+2i Dz,
    mu = |beta|.  With f = cos(arg beta) = (Jx+Jy)/mu, the pair's weights on
    them are (1 +- f)/2 and its one coherence is
    (i sin(arg beta) / 2) e^{-i mu t} e^{-gamma mu^2 t / 2}.  Back in the
    standard basis rho11 = rho44 = 0 and
    2 rho23 = e^{i arg beta} (f - i sin(arg beta) e^{-gamma mu^2 t / 2} cos(mu t)), so
    C = 2|rho23| = sqrt(f^2 + (1 - f^2) e^{-gamma mu^2 t} cos^2(mu t)),
    never below the floor f.  Jz drops out.
    """
    mu = np.hypot(params.jx + params.jy, 2.0 * params.dz)
    f = (params.jx + params.jy) / mu
    return np.sqrt(f * f + (1.0 - f * f) * np.exp(-gamma * mu * mu * t) * np.cos(mu * t) ** 2)


def dephased_bell_steady_state(params):
    """Limits of C, CC, QD and I for the dephased Bell pair as gamma mu^2 t -> infinity.

    Dephasing removes the pair's one coherence between the odd-parity levels
    and keeps their weights (1 +- f)/2, f = |Jx+Jy|/mu (see
    ``dephased_bell_concurrence``).  What is left has rho22 = rho33 = 1/2 and
    |rho23| = f/2, so C = f; both marginals are maximally mixed, measuring sz
    on B leaves A in a pure state, so CC = 1; S(rho_AB) = h2((1+f)/2), so
    I = 2 - h2((1+f)/2) and QD = I - CC.  Jz and gamma drop out.
    """
    mu = np.hypot(params.jx + params.jy, 2.0 * params.dz)
    f = abs(params.jx + params.jy) / mu
    h2 = -sum(w * np.log2(w) for w in ((1.0 + f) / 2.0, (1.0 - f) / 2.0) if w > 0.0)
    return {"C": f, "CC": 1.0, "QD": 1.0 - h2, "I": 2.0 - h2}


def random_bell_diagonal(rng):
    while True:
        c = rng.uniform(-1.0, 1.0, size=3)
        try:
            exact = bell_diagonal_exact(*c)
        except ValueError:
            continue
        return bell_diagonal_state(*c), exact


def werner_state(p):
    bell = np.zeros((4, 4), dtype=complex)
    bell[1, 1] = bell[2, 2] = bell[1, 2] = bell[2, 1] = 0.5
    return p * bell + (1.0 - p) * np.eye(4, dtype=complex) / 4.0


def milburn_bell_quadratic_mu(params, gamma, t):
    """Closed-form variant with the population wobble divided by mu^2 (audited typo)."""
    mu = np.hypot(params.jx + params.jy, 2.0 * params.dz)
    env = np.exp(-0.5 * gamma * mu * mu * t)
    rho = np.zeros((4, 4), dtype=complex)
    wob = params.dz * env * np.sin(mu * t) / mu**2
    rho[1, 1] = 0.5 + wob
    rho[2, 2] = 0.5 - wob
    beta = complex(params.jx + params.jy, 2.0 * params.dz)
    rho[1, 2] = beta * ((params.jx + params.jy) - 2j * params.dz * env * np.cos(mu * t)) / (2 * mu * mu)
    rho[2, 1] = rho[1, 2].conjugate()
    return rho


def milburn_bell_wide_grouping(params, gamma, t):
    """Closed-form variant with the envelope multiplying the whole coherence (audited reading)."""
    mu = np.hypot(params.jx + params.jy, 2.0 * params.dz)
    env = np.exp(-0.5 * gamma * mu * mu * t)
    rho = np.zeros((4, 4), dtype=complex)
    wob = params.dz * env * np.sin(mu * t) / mu
    rho[1, 1] = 0.5 + wob
    rho[2, 2] = 0.5 - wob
    rho[1, 2] = 0.5 * env * np.cos(mu * t)
    rho[2, 1] = rho[1, 2].conjugate()
    return rho


def random_density_matrix(rng, dim=4):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    return rho / rho.trace().real


def random_pure_state(rng, dim=4):
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    v /= np.linalg.norm(v)
    return np.outer(v, v.conj())


def random_x_state(rng):
    d = rng.random(4) + 0.05
    d /= d.sum()
    r14 = rng.random() * np.sqrt(d[0] * d[3]) * np.exp(2j * np.pi * rng.random())
    r23 = rng.random() * np.sqrt(d[1] * d[2]) * np.exp(2j * np.pi * rng.random())
    rho = np.diag(d).astype(complex)
    rho[0, 3], rho[3, 0] = r14, r14.conjugate()
    rho[1, 2], rho[2, 1] = r23, r23.conjugate()
    return rho


def random_rank2_x_state(rng):
    """A random rank-2 X state, a mixture of a|00> + b|11> and c|01> + d|10> (complex a, b, c, d)."""
    v = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    even = np.array([v[0, 0], 0.0, 0.0, v[0, 1]])
    odd = np.array([0.0, v[1, 0], v[1, 1], 0.0])
    w = rng.random()
    return w * np.outer(even, even.conj()) + (1.0 - w) * np.outer(odd, odd.conj())


def random_hermitian(rng, dim=4, scale=1.0):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return scale * 0.5 * (g + g.conj().T)


def random_unitary(rng, dim=2):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))
