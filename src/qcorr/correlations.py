"""Correlation measures for two-qubit states.

``correlation_report`` is the one route to the four measures of a state,
all in bits except the concurrence:

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
entries of M(n) and (1, -n) to those of M(-n).

An X-shaped state (every entry off the diagonal and anti-diagonal at most
``X_SHAPE_TOL``) with |rho11 - rho44| and |rho22 - rho33| at most
``_LUO_TOL`` = 1e-15, as every Gibbs state of the model is, needs no
search.  A local z rotation makes such a state Bell-diagonal, and Luo's
theorem puts S_min on the axis of largest |c_i|, which lies at theta = 0 or
at theta = pi/4 and the phase phi* = (arg rho23 - arg rho14)/2.  phi* is
optimal for every theta of an X state (Chen, Zhang, Yu, Yi & Oh, PRA 84,
042313 (2011)): phi leaves the diagonals of M(+-n) unchanged, and phi*
gives their common off-diagonal modulus |cos(theta) sin(theta)
(e^{i phi} rho14 + e^{-i phi} rho23)| its largest value, which spreads each
block's eigenvalues furthest and so lowers both entropies.  So
``_minimize`` evaluates both axes and returns the smaller, reported at
(0, 0) when S(0) <= S(pi/4) + 1e-12 and at (pi/4, phi*) otherwise.  The
tolerance absorbs the round-off of a built state: it is within trace
distance 1e-15 of a symmetric one, which moves every measured conditional
entropy by at most about 5e-14 bits (Alicki-Fannes-Winter), so the exit
may exceed S_min by about 1e-13 and is never below it.  The better axis is
not the minimum of a general X state (Huang, PRA 88, 014302 (2013)).

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

``correlation_report`` validates its input once; everything behind it
takes a checked state.  Everything here is pure and deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import _spectrum_entropy, _xlog2x, validated_spectrum

# sigma_y (x) sigma_y, the spin flip of the concurrence
_Y4 = np.array([[0, 0, 0, -1], [0, 0, 1, 0], [0, 1, 0, 0], [-1, 0, 0, 0]], dtype=complex)
_Y4.setflags(write=False)

X_SHAPE_TOL = 1e-10
# |rho11 - rho44| and |rho22 - rho33| at most this: Luo's two-evaluation exit
_LUO_TOL = 1e-15


def _bloch_vectors(thetas, phis) -> np.ndarray:
    """Unit Bloch vectors n(theta, phi), theta and phi broadcast together, in a last axis of 3."""
    s = np.sin(2.0 * thetas)
    return np.stack(np.broadcast_arrays(s * np.cos(phis), s * np.sin(phis), np.cos(2.0 * thetas)), axis=-1)


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
for _a in (GRID_THETA, GRID_PHI, _GRID_ANGLES, _GRID, _STENCIL, _PLANE):
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


def _concurrence(lam: np.ndarray, vecs: np.ndarray) -> float:
    """Concurrence from the state's eigenvalues and eigenvectors (module docstring)."""
    x = vecs * np.sqrt(np.maximum(lam, 0.0))
    sv = np.linalg.svd(x.T @ _Y4 @ x, compute_uv=False)  # descending
    return min(max(float(sv[0] - sv[1] - sv[2] - sv[3]), 0.0), 1.0)


_OFF_X = [(i, j) for i in range(4) for j in range(4)
          if (i, j) not in ((0, 0), (1, 1), (2, 2), (3, 3), (0, 3), (3, 0), (1, 2), (2, 1))]


def _off_x_spill(rho: np.ndarray) -> float:
    return max(abs(rho[i, j]) for i, j in _OFF_X)


def _entropy_terms(n00, n11, n01_sq) -> np.ndarray:
    """p * S(block / p) = p log2 p - sum(l log2 l) for 2x2 blocks given as entry arrays.

    The block [[n00, n01], [conj(n01), n11]], with n01_sq = |n01|^2, has
    trace p and eigenvalues l; for a conditioned block of qubit A, p is the
    outcome probability.  Nothing divides by p, so every outcome counts,
    with 0 log 0 = 0; round-off below zero is clipped.
    """
    p = n00 + n11
    disc = np.sqrt((n00 - n11) ** 2 + 4.0 * n01_sq)
    x = _xlog2x(np.stack((p, 0.5 * (p + disc), 0.5 * (p - disc))))
    return np.maximum(x[0] - x[1] - x[2], 0.0)


# 1, sigma_x, sigma_y, sigma_z
_PAULI = np.array([[[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])
_PAULI.setflags(write=False)


def _bloch_map(rho: np.ndarray) -> np.ndarray:
    """Real 4x4 g with (n00, n11, Re n01, Im n01) = g @ (1, n) for the block M(n).

    M(n) = tr_B[rho (1 x (1 + n.sigma)/2)] is the unnormalised state of
    qubit A after outcome n of a measurement on B, affine in the Bloch
    vector n; column mu of g holds the entries of tr_B[rho (1 x sigma_mu)] / 2.
    """
    t = 0.5 * np.einsum("abcd,mdb->mac", rho.reshape(2, 2, 2, 2), _PAULI)
    return np.stack((t[:, 0, 0].real, t[:, 1, 1].real, t[:, 0, 1].real, t[:, 0, 1].imag))


def _conditional_entropy(g: np.ndarray, n: np.ndarray) -> np.ndarray:
    """Measured conditional entropy at each unit Bloch vector n (last axis of 3).

    Outcome 0 of the basis is n and outcome 1 is -n; both blocks
    g[:, 0] +- g[:, 1:] n come from one product.
    """
    t = n @ g[:, 1:].T
    m = np.stack((g[:, 0] + t, g[:, 0] - t))
    terms = _entropy_terms(m[..., 0], m[..., 1], m[..., 2] ** 2 + m[..., 3] ** 2)
    return terms[0] + terms[1]


def _minimize(rho: np.ndarray):
    """(MeasurementBasis, S_min) of a validated state: Luo's two evaluations where they apply, else the search.

    phi* is 0 where it cannot change the measurement (rho14 = rho23 = 0).
    """
    g = _bloch_map(rho)
    # rho22 first: a dephased Bell pair (rho11 = rho44 = 0) leaves after one comparison
    if (abs(rho[1, 1] - rho[2, 2]) <= _LUO_TOL and abs(rho[0, 0] - rho[3, 3]) <= _LUO_TOL
            and _off_x_spill(rho) <= X_SHAPE_TOL):
        phi = 0.0
        if abs(rho[0, 3]) + abs(rho[1, 2]) > 0.0:
            phi = _fold_phi((np.angle(rho[1, 2]) - np.angle(rho[0, 3])) / 2.0)
        s0, s1 = _conditional_entropy(g, _bloch_vectors(GRID_THETA[[0, -1]], phi)).tolist()
        if s0 <= s1 + 1e-12:
            return MeasurementBasis(0.0, 0.0), min(s0, s1)
        return MeasurementBasis(np.pi / 4.0, phi), s1
    return _search(g, _GRID, _GRID_ANGLES, _PLANE)


def _fold_phi(phi) -> float:
    phi = float(phi) % (2.0 * np.pi)
    return 0.0 if phi >= 2.0 * np.pi else phi  # a tiny negative phi folds onto 2*pi in round-off


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
        phi = _fold_phi(np.arctan2(n[1], n[0]))
    return MeasurementBasis(theta=theta, phi=phi if theta > 0.0 else 0.0), best_val


def correlation_report(rho: np.ndarray) -> CorrelationReport:
    """All four measures of one state, from one eigendecomposition and one discord minimization.

    The concurrence takes the singular-value route for every state; only
    the discord minimization depends on the state's shape (``_minimize``):
    two evaluations where Luo's theorem applies, one search elsewhere.
    0 <= CC <= I and 0 <= QD <= I hold exactly: I >= 0 is subadditivity,
    CC >= 0 holds because no measurement leaves more conditional entropy
    than S(rho_A) (concavity), and CC <= I is QD >= 0, so each clip only
    removes round-off.  A search that stops above the true minimum still
    shows as too low a CC.
    """
    rho, lam, vecs = validated_spectrum(rho)
    r4 = rho.reshape(2, 2, 2, 2)
    r = np.stack((np.einsum("abcb->ac", r4), np.einsum("abad->bd", r4)))  # rho_A, rho_B
    sa, sb = _entropy_terms(r[:, 0, 0].real, r[:, 1, 1].real, np.abs(r[:, 0, 1]) ** 2).tolist()
    sab = _spectrum_entropy(lam)
    basis, smin = _minimize(rho)
    info = max(sa + sb - sab, 0.0)
    cc = min(max(sa - smin, 0.0), info)
    return CorrelationReport(
        concurrence=_concurrence(lam, vecs),
        mutual_information=info,
        classical_correlation=cc,
        quantum_discord=info - cc,
        argmin_basis=basis,
    )
