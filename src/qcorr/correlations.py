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
Bloch sphere.  (pi/2 - theta, phi + pi) is the same measurement with its
outcomes swapped, so the coarse grid covers theta in [0, pi/4] only (33
points, ``GRID_THETA``); the refinement clips theta to [0, pi/2], so it may
cross pi/4.

Two evaluators share one search schedule, and ``_minimize`` picks between
them; nothing else depends on the shape of the state.  An X-shaped state
(every entry off the diagonal and anti-diagonal at most ``X_SHAPE_TOL``) is
measured at the phase phi* = (arg rho23 - arg rho14)/2, which is optimal for
every theta (Chen, Zhang, Yu, Yi & Oh, PRA 84, 042313 (2011)), so its search
is the theta line alone: every discrete local minimum of the coarse line is
refined on shrinking 17-point stencils, all of them in one batched call per
round.  Any other state is searched over the 33 x 128 (theta, phi) grid,
whose minimum is refined on shrinking 17 x 17 stencils with phi periodic
(so it wraps through phi = 0).  Ties resolve to the smallest theta, then
phi.

Everything here is pure and deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import validate_two_qubit_state, validated_spectrum
from .linalg import _reduced_state, _spectrum_entropy, _xlog2x

# sigma_y (x) sigma_y, the spin flip of the concurrence
_Y4 = np.array([[0, 0, 0, -1], [0, 0, 1, 0], [0, 1, 0, 0], [-1, 0, 0, 0]], dtype=complex)
_Y4.setflags(write=False)

X_SHAPE_TOL = 1e-10

# coarse search grid over half the theta range, spacing pi/128 in both angles
GRID_THETA = np.linspace(0.0, np.pi / 4.0, 33)
GRID_PHI = np.linspace(0.0, 2.0 * np.pi, 128, endpoint=False)
# refinement stencil: 17 offsets spanning +-2 current spacings, per angle
_STENCIL = np.linspace(-2.0, 2.0, 17)
_REFINE_MIN_STEP = 1e-9
for _a in (GRID_THETA, GRID_PHI, _STENCIL):
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


def concurrence(rho: np.ndarray) -> float:
    """Wootters concurrence of a two-qubit density matrix, in [0, 1]."""
    _, lam, vecs = validated_spectrum(rho)
    return _concurrence(lam, vecs)


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
    out = _xlog2x(p) - _xlog2x(0.5 * (p + disc)) - _xlog2x(0.5 * (p - disc))
    return np.maximum(out, 0.0)


def _basis_trig(thetas, phis):
    """cos^2, sin^2 and cos sin e^{i phi}, a theta column broadcast against a phi row."""
    ct, st = np.cos(thetas)[:, None], np.sin(thetas)[:, None]
    return ct * ct, st * st, ct * st * np.exp(1j * phis)


# trigonometry of the fixed coarse grid, shared by every minimization
_GRID_TRIG = _basis_trig(GRID_THETA, GRID_PHI)


def _conditional_entropy_from_trig(r4, c2, s2, z) -> np.ndarray:
    """Conditional entropy given precomputed cos^2, sin^2 and cos sin e^{i phi}.

    r4 is the density matrix reshaped to (2, 2, 2, 2) with axes (a, b, a', b').
    The conditioned block for outcome 0 is a linear combination of the four
    fixed (b, b') blocks of r4 with those coefficients; outcome 1 follows
    from completeness as rho_A minus the outcome-0 block.
    """
    zc = z.conj()
    n00 = c2 * r4[0, 0, 0, 0] + z * r4[0, 0, 0, 1] + zc * r4[0, 1, 0, 0] + s2 * r4[0, 1, 0, 1]
    n11 = c2 * r4[1, 0, 1, 0] + z * r4[1, 0, 1, 1] + zc * r4[1, 1, 1, 0] + s2 * r4[1, 1, 1, 1]
    n01 = c2 * r4[0, 0, 1, 0] + z * r4[0, 0, 1, 1] + zc * r4[0, 1, 1, 0] + s2 * r4[0, 1, 1, 1]

    ra00 = (r4[0, 0, 0, 0] + r4[0, 1, 0, 1]).real
    ra11 = (r4[1, 0, 1, 0] + r4[1, 1, 1, 1]).real
    ra01 = r4[0, 0, 1, 0] + r4[0, 1, 1, 1]

    total = _entropy_terms(n00.real, n11.real, n01.real**2 + n01.imag**2)
    m01 = ra01 - n01
    total += _entropy_terms(ra00 - n00.real, ra11 - n11.real, m01.real**2 + m01.imag**2)
    return total


def _x_conditional_entropy(d, k, thetas) -> np.ndarray:
    """Conditional entropy of an X state at each theta, measured at phi*.

    d is the real diagonal (rho11, rho22, rho33, rho44) and k = |rho14| + |rho23|.
    At phi* the outcome-0 block is [[c2 d0 + s2 d1, cs k], [cs k, c2 d2 + s2 d3]]
    with c2 = cos^2(theta), s2 = sin^2(theta), cs = cos(theta) sin(theta).
    Outcome 1 is outcome 0 at pi/2 - theta (c2 and s2 swapped), so both
    outcomes stack on a leading axis through one ``_entropy_terms`` call.
    """
    c, s = np.cos(thetas), np.sin(thetas)
    c2, s2 = c * c, s * s
    a, b = np.stack((c2, s2)), np.stack((s2, c2))
    off = c * s * k
    terms = _entropy_terms(a * d[0] + b * d[1], a * d[2] + b * d[3], off * off)
    return terms[0] + terms[1]


def conditional_entropy(rho: np.ndarray, basis: MeasurementBasis) -> float:
    """sum_k p_k S(rho_k) for the projective measurement of ``basis`` on qubit B."""
    rho = validate_two_qubit_state(rho)
    trig = _basis_trig(np.array([basis.theta]), np.array([basis.phi]))
    return float(_conditional_entropy_from_trig(rho.reshape(2, 2, 2, 2), *trig)[0, 0])


def minimize_conditional_entropy(rho: np.ndarray):
    """Global minimum of the measured conditional entropy over (theta, phi).

    Returns (MeasurementBasis, value).  One schedule, two evaluators (see
    the module docstring): an X-shaped state is searched on the theta line
    at phi*, reporting phi = 0 where phi cannot change the measurement
    (theta = 0 or rho14 = rho23 = 0); any other state on the (theta, phi)
    grid.  Each refinement round is 4x finer until the theta spacing is
    below 1e-9, and a refined point replaces its incumbent only when
    strictly lower, so the value never exceeds any coarse sample of its
    route.
    """
    return _minimize(validate_two_qubit_state(rho))


def _minimize(rho: np.ndarray):
    """The theta-line search for an X-shaped state, the (theta, phi) grid for any other."""
    return _minimize_x(rho) if _off_x_spill(rho) <= X_SHAPE_TOL else _minimize_grid(rho)


def _fold_phi(phi: float) -> float:
    phi = phi % (2.0 * np.pi)
    return 0.0 if phi >= 2.0 * np.pi else phi  # a tiny negative phi folds onto 2*pi in round-off


def _minimize_x(rho: np.ndarray):
    d = rho.diagonal().real
    k = abs(rho[0, 3]) + abs(rho[1, 2])
    vals = _x_conditional_entropy(d, k, GRID_THETA)
    # refine the first point of every run of equal values lower than both neighbours
    padded = np.concatenate(([np.inf], vals, [np.inf]))
    idx = np.flatnonzero((vals < padded[:-2]) & (vals <= padded[2:]))
    ths, best = GRID_THETA[idx], vals[idx]

    rows = np.arange(idx.size)
    dt = float(GRID_THETA[1])
    while dt >= _REFINE_MIN_STEP:
        thetas = np.clip(ths[:, None] + dt * _STENCIL, 0.0, np.pi / 2.0)
        vals = _x_conditional_entropy(d, k, thetas)
        j = np.argmin(vals, axis=1)
        lower = vals[rows, j] < best
        best = np.where(lower, vals[rows, j], best)
        ths = np.where(lower, thetas[rows, j], ths)
        dt /= 4.0
    best_val = float(best.min())
    theta = float(ths[best == best_val].min())
    phi = 0.0
    if theta > 0.0 and k > 0.0:
        phi = _fold_phi((np.angle(rho[1, 2]) - np.angle(rho[0, 3])) / 2.0)
    return MeasurementBasis(theta=theta, phi=phi), best_val


def _minimize_grid(rho: np.ndarray):
    r4 = rho.reshape(2, 2, 2, 2)
    vals = _conditional_entropy_from_trig(r4, *_GRID_TRIG).ravel()
    best_val = float(vals.min())
    # ties within round-off resolve to the smallest theta, then smallest phi
    i, j = divmod(int(np.argmax(vals <= best_val + 1e-12)), GRID_PHI.size)
    th0, ph0 = float(GRID_THETA[i]), float(GRID_PHI[j])

    dt, dp = float(GRID_THETA[1]), float(GRID_PHI[1])
    while dt >= _REFINE_MIN_STEP:
        thetas = np.clip(th0 + dt * _STENCIL, 0.0, np.pi / 2.0)
        phis = ph0 + dp * _STENCIL  # periodic in the trig, so left unbounded
        vals = _conditional_entropy_from_trig(r4, *_basis_trig(thetas, phis))
        i, j = divmod(int(np.argmin(vals)), _STENCIL.size)
        if vals[i, j] < best_val:
            best_val, th0, ph0 = float(vals[i, j]), float(thetas[i]), float(phis[j])
        dt /= 4.0
        dp /= 4.0
    return MeasurementBasis(theta=th0, phi=_fold_phi(ph0)), best_val


def correlation_report(rho: np.ndarray) -> CorrelationReport:
    """All four measures of one state, from one eigendecomposition and one basis search.

    The concurrence takes the singular-value route for every state; only
    the discord search depends on the state's shape (``_minimize``).
    0 <= CC <= I and 0 <= QD <= I hold exactly: I >= 0 is subadditivity,
    CC >= 0 holds because no measurement leaves more conditional entropy
    than S(rho_A) (concavity), and CC <= I is QD >= 0, so each clip only
    removes round-off.  A search that stops above the true minimum still
    shows as too low a CC.
    """
    rho, lam, vecs = validated_spectrum(rho)
    r = np.stack((_reduced_state(rho, "A"), _reduced_state(rho, "B")))
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
