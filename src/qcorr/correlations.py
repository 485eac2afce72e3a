"""Correlation measures for two-qubit states.

``correlation_report`` is the one route to the four measures of a state,
all in bits except the concurrence:

* concurrence C, from the square-rooted eigenvalues of the spin-flipped
  operator rho (sy.sy) rho* (sy.sy), sorted descending:
  C = max(l1 - l2 - l3 - l4, 0);
* quantum mutual information I = S(rho_A) + S(rho_B) - S(rho_AB);
* classical correlation CC = S(rho_A) - S_min, where S_min is the measured
  conditional entropy sum_k p_k S(rho_k) minimized over all rank-1
  projective measurements on qubit B;
* quantum discord QD = S(rho_B) - S(rho_AB) + S_min.

The measurement family is B_k = V |k><k| V^dag with

    V = ( cos(theta)              exp(-i phi) sin(theta) )
        ( exp(i phi) sin(theta)  -cos(theta)             )

and theta in [0, pi/2], phi in [0, 2*pi) covering every direction on the
Bloch sphere.  (pi/2 - theta, phi + pi) is the same measurement with its
outcomes swapped, so the coarse 33 x 128 grid covers theta in [0, pi/4]
only; its minimum is refined on shrinking 17 x 17 local grids with theta
in [0, pi/2] (so it may cross pi/4) and phi periodic (so it wraps through
phi = 0).  Grid ties resolve to the smallest theta, then phi.  One
evaluator, broadcasting a theta column against a phi row, serves the grid,
the refinement and ``conditional_entropy``.

Everything here is pure and deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericFailure
from .linalg import validate_two_qubit_state, validated_spectrum, von_neumann_entropy
from .linalg import _reduced_state, _spectrum_entropy

# sigma_y (x) sigma_y, the spin flip of the concurrence
_Y4 = np.array([[0, 0, 0, -1], [0, 0, 1, 0], [0, 1, 0, 0], [-1, 0, 0, 0]], dtype=complex)
_Y4.setflags(write=False)

X_SHAPE_TOL = 1e-10
_PROB_FLOOR = 1e-12

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
    rho = validate_two_qubit_state(rho)
    return _concurrence_checked(rho)


def _concurrence_checked(rho: np.ndarray) -> float:
    flipped = _Y4 @ rho.conj() @ _Y4
    ev = np.linalg.eigvals(rho @ flipped).real
    if ev.min() < -1e-9:
        raise NumericFailure(
            f"spin-flip operator eigenvalue {ev.min():.3e} below -1e-9"
        )
    lam = np.sort(np.sqrt(np.clip(ev, 0.0, None)))[::-1]
    c = float(lam[0] - lam[1] - lam[2] - lam[3])
    return min(max(c, 0.0), 1.0)


_OFF_X = [(i, j) for i in range(4) for j in range(4)
          if (i, j) not in ((0, 0), (1, 1), (2, 2), (3, 3), (0, 3), (3, 0), (1, 2), (2, 1))]


def _off_x_spill(rho: np.ndarray) -> float:
    return max(abs(rho[i, j]) for i, j in _OFF_X)


def _concurrence_x(rho: np.ndarray) -> float:
    d = np.clip(rho.diagonal().real, 0.0, None)
    c = 2.0 * max(
        0.0,
        abs(rho[1, 2]) - math.sqrt(d[0] * d[3]),
        abs(rho[0, 3]) - math.sqrt(d[1] * d[2]),
    )
    return min(float(c), 1.0)


def concurrence_x_state(rho: np.ndarray) -> float:
    """Concurrence of an X-shaped state: 2 max(0, |r23|-sqrt(r11 r44), |r14|-sqrt(r22 r33)).

    Raises ValueError when any entry off the diagonal and anti-diagonal
    exceeds 1e-10.
    """
    rho = validate_two_qubit_state(rho)
    if _off_x_spill(rho) > X_SHAPE_TOL:
        raise ValueError("state is not X-shaped within 1e-10")
    return _concurrence_x(rho)


def _entropy_terms(n00, n11, n01) -> np.ndarray:
    """p_k * S(rho_k) for conditioned 2x2 blocks given as entry arrays.

    The block [[n00, n01], [conj(n01), n11]] is the unnormalized state of
    qubit A after the measurement outcome; its trace is the outcome
    probability.  Outcomes with probability <= 1e-12 contribute zero.
    """
    p = n00 + n11
    disc = np.sqrt((n00 - n11) ** 2 + 4.0 * (n01.real**2 + n01.imag**2))
    safe_p = np.where(p > _PROB_FLOOR, p, 1.0)
    out = np.zeros_like(p)
    for lam in ((p + disc) / (2.0 * safe_p), (p - disc) / (2.0 * safe_p)):
        np.clip(lam, 0.0, None, out=lam)
        mask = lam > _PROB_FLOOR
        logl = np.log2(lam, out=np.zeros_like(lam), where=mask)
        out -= lam * logl
    np.clip(out, 0.0, None, out=out)  # entropy round-off must not go negative
    return np.where(p > _PROB_FLOOR, p * out, 0.0)


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

    total = _entropy_terms(n00.real, n11.real, n01)
    total += _entropy_terms(ra00 - n00.real, ra11 - n11.real, ra01 - n01)
    return total


def conditional_entropy(rho: np.ndarray, basis: MeasurementBasis) -> float:
    """sum_k p_k S(rho_k) for the projective measurement of ``basis`` on qubit B."""
    rho = validate_two_qubit_state(rho)
    trig = _basis_trig(np.array([basis.theta]), np.array([basis.phi]))
    return float(_conditional_entropy_from_trig(rho.reshape(2, 2, 2, 2), *trig)[0, 0])


def minimize_conditional_entropy(rho: np.ndarray):
    """Global minimum of the measured conditional entropy over (theta, phi).

    Returns (MeasurementBasis, value).  The coarse grid minimum is refined on
    shrinking 17 x 17 local grids spanning two spacings either side of the
    incumbent, 4x finer each round until the theta spacing is below 1e-9.
    phi is treated as periodic, so the search wraps through phi = 0.  A
    refined point replaces the incumbent only when strictly lower, so the
    value never exceeds any coarse grid sample.
    """
    rho = validate_two_qubit_state(rho)
    return _minimize_checked(rho)


def _minimize_checked(rho: np.ndarray):
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
    ph0 = ph0 % (2.0 * np.pi)
    if ph0 >= 2.0 * np.pi:  # a tiny negative phi folds onto 2*pi in round-off
        ph0 = 0.0
    return MeasurementBasis(theta=th0, phi=ph0), best_val


def correlation_report(rho: np.ndarray) -> CorrelationReport:
    """All four measures of one state, sharing a single basis minimization.

    X-shaped states take the exact algebraic concurrence route; the general
    spin-flip route square-roots near-zero eigenvalues and carries a noise
    floor around sqrt(machine epsilon).
    """
    rho, lam = validated_spectrum(rho)
    sa = von_neumann_entropy(_reduced_state(rho, "A"))
    sb = von_neumann_entropy(_reduced_state(rho, "B"))
    sab = _spectrum_entropy(lam)
    basis, smin = _minimize_checked(rho)
    if _off_x_spill(rho) <= X_SHAPE_TOL:
        conc = _concurrence_x(rho)
    else:
        conc = _concurrence_checked(rho)
    return CorrelationReport(
        concurrence=conc,
        mutual_information=sa + sb - sab,
        classical_correlation=sa - smin,
        quantum_discord=sb - sab + smin,
        argmin_basis=basis,
    )
