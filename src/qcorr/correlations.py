"""Correlation measures for two-qubit states.

``correlation_columns`` is the one route to the four measures of a
sequence of states, all in bits except the concurrence, and
``correlation_report`` is its one-row case:

* concurrence C = max(l1 - l2 - l3 - l4, 0), where l1 >= ... >= l4 are the
  Wootters values, the square roots of the eigenvalues of
  rho (sy.sy) rho* (sy.sy).  With rho = X X^dag and X = V sqrt(Lambda) from
  the state's eigendecomposition, they are the singular values of
  X^T (sy.sy) X (Uhlmann, PRA 62, 032307 (2000)), so no eigenvalue near
  zero is square-rooted and one route is exact for every state;
* quantum mutual information I = S(rho_A) + S(rho_B) - S(rho_AB);
* classical correlation CC = S(rho_A) - S_min, where S_min is the measured
  conditional entropy sum_k p_k S(rho_k) minimized over all rank-1
  projective measurements on qubit B;
* quantum discord QD = I - CC = S(rho_B) - S(rho_AB) + S_min.

The measurement family is B_k = V |k><k| V^dag with

    V = ( cos(theta)              exp(-i phi) sin(theta) )
        ( exp(i phi) sin(theta)  -cos(theta)             )

and theta in [0, pi/2], phi in [0, 2*pi) covering every direction on the
Bloch sphere: B_0 = (1 + n.sigma)/2 with
n = (sin 2theta cos phi, sin 2theta sin phi, cos 2theta), and B_1 is the
same with -n.  The block of qubit A left by outcome n,
M(n) = tr_B[rho (1 x (1 + n.sigma)/2)], is affine in n (Luo, PRA 77,
042303 (2008)), so the evaluator works on unit vectors and calls no trig:
the real 4x4 map g of the state (``_bloch_map``) takes (1, n) to the
entries of M(n) and (1, -n) to those of M(-n).  The evaluator
(``_conditional_entropy``) builds both blocks into one buffer and reduces
them in place, through the same float operations in the same order as a
fresh array per step, so each value, sign of zero included, is that of the
fresh-array form to the last bit; ``_search`` stops on an exact 0.

A state with |rho11 - rho44|, |rho22 - rho33| and every off-X entry (off
the diagonal and the anti-diagonal) at most the one tolerance ``_LUO_TOL``
= 1e-15, as every Gibbs state of the model is, needs no search.  A local
z rotation makes such a state Bell-diagonal, and Luo's theorem puts S_min
on the axis of largest |c_i|, which lies at theta = 0 or at theta = pi/4
and the phase phi* = (arg rho23 - arg rho14)/2.  phi* is
optimal for every theta of an X state (Chen, Zhang, Yu, Yi & Oh, PRA 84,
042313 (2011)): phi leaves the diagonals of M(+-n) unchanged, and phi*
gives their common off-diagonal modulus |cos(theta) sin(theta)
(e^{i phi} rho14 + e^{-i phi} rho23)| its largest value, which spreads each
block's eigenvalues furthest and so lowers both entropies.  So
``_minimize``, which takes a stack of states, makes both axis
evaluations for a whole stack in one pass (one mask holds the gate) and
returns the smaller, reported at (0, 0) when S(0) <= S(pi/4) + 1e-12 and
at (pi/4, phi*) otherwise.  The tolerance absorbs the round-off of a
built state: it is within trace distance 4e-15 of a symmetric X state
(1e-15 from the pairs, under 3e-15 from the off-X entries), which moves
every measured conditional entropy by at most about 2e-13 bits
(Alicki-Fannes-Winter), so the exit may exceed S_min by about 4e-13 and
is never below it.  The better axis is not the
minimum of a general X state (Huang, PRA 88, 014302 (2013)).

Every other state, X-shaped or not, goes through one search
(``_search``) over one coarse set: the 33 x 128 (theta, phi) grid
(``GRID_THETA`` x ``GRID_PHI``), precomputed as unit vectors.
(pi/2 - theta, phi + pi) is -n, the same measurement with its outcomes
swapped, so the grid covers theta in [0, pi/4] only.  The search refines
the coarse argmin n0 in one fixed chart of the plane tangent to the sphere
at n0: each trial point is n0 + a e_theta + b e_phi scaled back onto the
sphere, with (a, b) on a 17 x 17 stencil, so the refinement passes through
the poles and through phi = 0 and may cross pi/4.  A trial point replaces
the incumbent only when strictly lower, so the value never exceeds any
coarse sample, and once the incumbent is exactly 0 (each entropy term is
clipped at 0) no round can change it and the refinement stops; the
dephased Bell pair, which measuring sigma_z on B leaves with A pure, stops
after the coarse pass.  theta and phi are read back from the final vector
once, and phi is reported as 0 at theta = 0.  One tie rule: the coarse
point of smallest theta, then phi, within 1e-12 of the coarse minimum is
reported at its own angles if it is still within 1e-12 of the final
minimum, else the refined point is; the reported S_min is the minimum
itself.

``correlation_columns`` validates and decomposes each state on its own
(its eigendecomposition, S_A, S_B and S_AB), then makes one ``_minimize``
call and one ``_concurrence`` call, a batched SVD, for the whole stack and
clips I, CC and QD as array operations; ``correlation_report`` runs the
same steps on a stack of one.  Everything behind the validation takes a
checked state.  Every step works row by row, so a state's measures do not
depend on the other rows of its stack, and ``run_sweep``, which calls
``correlation_columns`` once per Dz block, writes exactly what
``correlation_report`` gives point by point.
Everything here is pure and deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .linalg import _spectrum_entropy, _xlog2x, validated_spectrum

# sigma_y (x) sigma_y, the spin flip of the concurrence
_Y4 = np.array([[0, 0, 0, -1], [0, 0, 1, 0], [0, 1, 0, 0], [-1, 0, 0, 0]], dtype=complex)
_Y4.setflags(write=False)

# |rho11 - rho44|, |rho22 - rho33| and every off-X |rho_ij| at most this: Luo's two-evaluation exit
_LUO_TOL = 1e-15
_OFF_X = ~(np.eye(4, dtype=bool) | np.eye(4, dtype=bool)[::-1])  # off the diagonal and anti-diagonal
# rho (16 entries) @ _GATE: the 8 off-X entries, rho11 - rho44 and rho22 - rho33, in
# one product, which is exact: each column holds one 1, or a 1 and a -1
_GATE = np.eye(16, dtype=complex)[:, [*np.flatnonzero(_OFF_X), 0, 5]]
_GATE[[15, 10], [8, 9]] = -1.0
_ANTI = np.array([6, 3])  # rho23 and rho14 among the 16 entries


def _bloch_vectors(thetas, phis) -> np.ndarray:
    """Unit Bloch vectors n(theta, phi), theta and phi broadcast together, in a last axis of 3."""
    s = np.sin(2.0 * thetas)
    x = s * np.cos(phis)
    n = np.empty(np.shape(x) + (3,))
    n[..., 0], n[..., 1], n[..., 2] = x, s * np.sin(phis), np.cos(2.0 * thetas)
    return n


# coarse search grid over half the theta range, spacing pi/128 in both angles,
# as (theta, phi) rows ordered by theta, then phi, and as unit vectors
GRID_THETA = np.linspace(0.0, np.pi / 4.0, 33)
GRID_PHI = np.linspace(0.0, 2.0 * np.pi, 128, endpoint=False)
_GRID_ANGLES = np.stack(np.meshgrid(GRID_THETA, GRID_PHI, indexing="ij"), axis=-1).reshape(-1, 2)
_GRID = _bloch_vectors(*_GRID_ANGLES.T)
# refinement stencil in tangent-chart offsets (a, b): 17 x 17 offsets spanning
# +-2 current spacings along both axes
_STENCIL = np.linspace(-2.0, 2.0, 17)
_PLANE = np.stack(np.meshgrid(_STENCIL, _STENCIL, indexing="ij"), axis=-1).reshape(-1, 2)
_REFINE_MIN_STEP = 1e-9
_LUO_THETA = GRID_THETA[[0, -1]]  # the Luo exit's two axes, sigma_z and the equator at phi*
for _a in (_OFF_X, _GATE, _ANTI, _LUO_THETA, GRID_THETA, GRID_PHI, _GRID_ANGLES, _GRID, _STENCIL, _PLANE):
    _a.setflags(write=False)


@dataclass(frozen=True)
class MeasurementBasis:
    """Angles of the rank-1 projector pair; theta in [0, pi/2], phi in [0, 2*pi)."""

    theta: float
    phi: float

    def __post_init__(self):
        if not 0.0 <= self.theta <= np.pi / 2.0:
            raise ValueError(f"theta must lie in [0, pi/2], got {self.theta}")
        if not 0.0 <= self.phi < 2.0 * np.pi:
            raise ValueError(f"phi must lie in [0, 2*pi), got {self.phi}")


@dataclass(frozen=True)
class CorrelationReport:
    """Concurrence, mutual information, classical correlation, discord and argmin basis."""

    concurrence: float
    mutual_information: float
    classical_correlation: float
    quantum_discord: float
    argmin_basis: MeasurementBasis


def _concurrence(lam: np.ndarray, vecs: np.ndarray, maximum=np.maximum, minimum=np.minimum):
    """C from eigenvalues (..., 4) and eigenvector columns (..., 4, 4): one batched SVD (module docstring).

    LAPACK decomposes each matrix on its own, so a row's C does not depend on
    its stack; ``correlation_report`` passes the builtins max and min, as to ``_clipped``.
    """
    x = vecs * np.sqrt(np.maximum(lam, 0.0))[..., None, :]
    sv = np.linalg.svd(x.swapaxes(-1, -2) @ _Y4 @ x, compute_uv=False)  # descending
    s0, s1, s2, s3 = sv.T  # numpy scalars for one state; .T reverses the leading axes, which c.T undoes
    c = (s0 - s1 - s2 - s3).T
    return minimum(maximum(c, 0.0), 1.0)


def _entropy_terms(n00, n11, n01_sq) -> np.ndarray:
    """p * S(block / p) = p log2 p - sum(l log2 l) for 2x2 blocks given as entry arrays of one shape.

    The block [[n00, n01], [conj(n01), n11]], with n01_sq = |n01|^2, has
    trace p and eigenvalues l; for a conditioned block of qubit A, p is the
    outcome probability.  Nothing divides by p, so every outcome counts,
    with 0 log 0 = 0; round-off below zero is clipped.  p and both l fill
    one (3, ...) buffer, which ``_xlog2x`` then takes in place.
    """
    x = np.empty((3,) + n00.shape)
    p = np.add(n00, n11, out=x[0, ...])
    d = np.subtract(n00, n11, out=x[2, ...])
    disc = np.multiply(n01_sq, 4.0, out=x[1, ...])
    disc += np.square(d, out=d)
    np.sqrt(disc, out=disc)
    np.subtract(p, disc, out=x[2, ...])
    disc += p
    x[1:] *= 0.5
    _xlog2x(x)
    t = np.subtract(x[0, ...], x[1, ...], out=x[1, ...])
    t -= x[2, ...]
    return np.maximum(t, 0.0, out=t)


# 1, sigma_x, sigma_y, sigma_z
_PAULI = np.array([[[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])
# g = Re(rho (16 entries) @ _BLOCH) / 2, row-major: column (i, mu) takes entry i
# of tr_B[rho (1 x sigma_mu)], for i = n00, n11, n01 and -1j n01 (whose real part
# is Im n01).  Each column has at most two nonzero coefficients, all of modulus
# 1, so each entry of g is one rounded sum of two entries of rho.
_ENTRY = np.array([[[1, 0], [0, 0]], [[0, 0], [0, 1]], [[0, 1], [0, 0]], [[0, -1j], [0, 0]]])
_BLOCH = np.einsum("iac,mdb->abcdim", _ENTRY, _PAULI).reshape(16, 16)
for _a in (_PAULI, _ENTRY, _BLOCH):
    _a.setflags(write=False)


def _bloch_map(rho: np.ndarray) -> np.ndarray:
    """Real 4x4 g with (n00, n11, Re n01, Im n01) = g @ (1, n) for the block M(n), over leading axes.

    M(n) = tr_B[rho (1 x (1 + n.sigma)/2)] is the unnormalised state of
    qubit A after outcome n of a measurement on B, affine in the Bloch
    vector n; column mu of g holds the entries of tr_B[rho (1 x sigma_mu)] / 2.
    """
    t = rho.reshape(rho.shape[:-2] + (16,)) @ _BLOCH
    return (0.5 * t.real).reshape(rho.shape)


def _conditional_entropy(g: np.ndarray, n: np.ndarray) -> np.ndarray:
    """Measured conditional entropy at each unit Bloch vector n (last axis of 3) of each map g.

    g is (..., 4, 4) and n is (..., m, 3) over the same leading axes, or
    one vector (3,); the result is (..., m), or (...,) for one vector.
    Outcome 0 of the basis is n and outcome 1 is -n.  One product gives
    the linear parts g[:, 1:] n as rows of m, and both outcomes' blocks
    g[:, 0] +- g[:, 1:] n fill one (2, ..., 4, m) buffer.
    """
    if n.ndim == 1:
        return _conditional_entropy(g, n[None])[..., 0]
    lin = g[..., 1:] @ n.swapaxes(-1, -2)
    m = np.empty((2,) + lin.shape)
    np.add(g[..., 0, None], lin, out=m[0])
    np.subtract(g[..., 0, None], lin, out=m[1])
    n01_sq = np.square(m[..., 2, :], out=m[..., 2, :])
    n01_sq += np.square(m[..., 3, :], out=m[..., 3, :])
    terms = _entropy_terms(m[..., 0, :], m[..., 1, :], n01_sq)
    return terms[0] + terms[1]


def _minimize(rho: np.ndarray):
    """(theta, phi, S_min) arrays of a stack of validated states, shape (n, 4, 4).

    The Luo gate is one mask.  If any row passes it, every row gets phi*
    and both axis evaluations in one pass (module docstring); every row
    outside the gate then goes to ``_search``, in row order, whose result
    replaces the exit's.  phi* is 0 where it cannot change the measurement
    (rho14 = rho23 = 0).
    """
    g = _bloch_map(rho)
    flat = rho.reshape(-1, 16)
    others = np.flatnonzero(np.abs(flat @ _GATE).max(axis=1) > _LUO_TOL)  # a validated state has no NaN
    if others.size < len(rho):
        r = flat[:, _ANTI]
        a = np.arctan2(r.imag, r.real)  # np.angle
        # a product with a mask is np.where(mask, x, 0.0) here: each x is finite and not -0.0
        star = r.any(axis=1) * _fold_phi((a[:, 0] - a[:, 1]) / 2.0)
        s0, s1 = _conditional_entropy(g, _bloch_vectors(_LUO_THETA, star[:, None])).T
        turn = s0 > s1 + 1e-12  # ties go to (0, 0)
        theta, phi, smin = turn * (np.pi / 4.0), turn * star, np.minimum(s0, s1)
    else:
        theta, phi, smin = np.zeros((3, len(rho)))
    for k in others:
        basis, smin[k] = _search(g[k], _GRID, _GRID_ANGLES, _PLANE)
        theta[k], phi[k] = basis.theta, basis.phi
    return theta, phi, smin


def _fold_phi(phi) -> np.ndarray:
    """phi modulo 2*pi, elementwise, in [0, 2*pi)."""
    phi = np.mod(phi, 2.0 * np.pi)
    return np.where(phi >= 2.0 * np.pi, 0.0, phi)  # a tiny negative phi folds onto 2*pi in round-off


def _search(g: np.ndarray, coarse: np.ndarray, angles: np.ndarray, stencil: np.ndarray):
    """(MeasurementBasis, S_min) from coarse unit vectors, their (theta, phi) rows and a stencil.

    Trial points n0 + a e_theta + b e_phi, scaled back onto the sphere, lie
    in one fixed chart at the coarse argmin n0, at (a, b) = incumbent +
    2 dt stencil; dt, the arc of one theta spacing (the polar angle is
    2 theta), shrinks 4x per round until it is below 1e-9 or the
    incumbent is 0, which no trial can beat.
    """
    coarse_vals = _conditional_entropy(g, coarse)
    k = int(np.argmin(coarse_vals))
    best_val = float(coarse_vals[k])
    # ties within round-off go to the first coarse point: smallest theta, then phi
    tie = int(np.argmax(coarse_vals <= best_val + 1e-12))
    c, s = np.cos(2.0 * angles[k, 0]), np.sin(2.0 * angles[k, 0])
    cp, sp = np.cos(angles[k, 1]), np.sin(angles[k, 1])
    steps = stencil @ np.array([[c * cp, c * sp, -s], [-sp, cp, 0.0]])  # a e_theta + b e_phi
    n = incumbent = coarse[k]  # n0, and then its point in the plane tangent at n0
    dt = float(GRID_THETA[1])
    while best_val > 0.0 and dt >= _REFINE_MIN_STEP:
        v = incumbent + 2.0 * dt * steps
        trial = v / np.sqrt(np.einsum("ij,ij->i", v, v))[:, None]
        vals = _conditional_entropy(g, trial)
        j = int(np.argmin(vals))
        if vals[j] < best_val:
            best_val, incumbent, n = float(vals[j]), v[j], trial[j]
        dt /= 4.0
    if coarse_vals[tie] <= best_val + 1e-12:
        theta, phi = float(angles[tie, 0]), float(angles[tie, 1])
    else:
        theta = 0.5 * float(np.arctan2(np.hypot(n[0], n[1]), n[2]))
        phi = float(_fold_phi(np.arctan2(n[1], n[0])))
    return MeasurementBasis(theta=theta, phi=phi if theta > 0.0 else 0.0), best_val


def _local_measures(rho: np.ndarray):
    """(validated rho, eigenvalues, eigenvectors, (S_A, S_B, S_AB)) of one state; C and S_min come stacked."""
    rho, lam, vecs = validated_spectrum(rho)
    r4 = rho.reshape(2, 2, 2, 2)
    r = np.stack((np.einsum("abcb->ac", r4), np.einsum("abad->bd", r4)))  # rho_A, rho_B
    sa, sb = _entropy_terms(r[:, 0, 0].real, r[:, 1, 1].real, np.abs(r[:, 0, 1]) ** 2).tolist()
    return rho, lam, vecs, (sa, sb, _spectrum_entropy(lam))


class CorrelationColumns(NamedTuple):
    """The fields of ``CorrelationReport`` as float arrays, one entry per state, the basis as its angles."""

    concurrence: np.ndarray
    mutual_information: np.ndarray
    classical_correlation: np.ndarray
    quantum_discord: np.ndarray
    theta: np.ndarray
    phi: np.ndarray


def correlation_columns(states) -> CorrelationColumns:
    """All four measures of a non-empty sequence of states: one spectrum per state, stacked C and S_min.

    Each state is validated and decomposed on its own; the concurrence
    (``_concurrence``, one batched SVD) and the discord minimization
    (``_minimize``) take them all at once: two evaluations where Luo's
    theorem applies, one search elsewhere.  0 <= CC <= I and
    0 <= QD <= I hold exactly: I >= 0 is subadditivity, CC >= 0 holds
    because no measurement leaves more conditional entropy than S(rho_A)
    (concavity), and CC <= I is QD >= 0, so each clip only removes
    round-off.  A search that stops above the true minimum still shows as
    too low a CC.
    """
    checked, lam, vecs, local = zip(*map(_local_measures, states))
    sa, sb, sab = np.array(local).T
    theta, phi, smin = _minimize(np.array(checked))
    c = _concurrence(np.array(lam), np.array(vecs))
    return CorrelationColumns(c, *_clipped(sa, sb, sab, smin), theta, phi)


def _clipped(sa, sb, sab, smin, maximum=np.maximum, minimum=np.minimum):
    """(I, CC, QD) from the entropies, clipped to 0 <= CC <= I (``correlation_columns``), elementwise.

    ``correlation_report`` passes floats and the builtins max and min, which
    round and pick exactly as np.maximum and np.minimum do for finite
    values, without a ufunc call per clip.
    """
    info = maximum(sa + sb - sab, 0.0)
    cc = minimum(maximum(sa - smin, 0.0), info)
    return info, cc, info - cc


def correlation_report(rho: np.ndarray) -> CorrelationReport:
    """All four measures of one state and its argmin basis: the one row of ``correlation_columns``.

    It runs the same steps on a stack of one state, without building the
    columns.
    """
    rho, lam, vecs, (sa, sb, sab) = _local_measures(rho)
    theta, phi, smin = (x.item() for x in _minimize(rho[None]))
    c = float(_concurrence(lam, vecs, max, min))
    return CorrelationReport(c, *_clipped(sa, sb, sab, smin, max, min), MeasurementBasis(theta, phi))
