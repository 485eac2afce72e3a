"""Correlation measures for two-qubit states.

Four quantities are computed per state, all in bits except the concurrence:

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
Bloch sphere; (theta, phi) -> (pi - theta, phi + pi) merely swaps the two
outcomes, which is why theta stops at pi/2.  The minimization runs a coarse
65 x 128 grid, then refines its minimum on shrinking 17 x 17 local grids;
theta is clipped to [0, pi/2] and phi is periodic, so the refinement wraps
through phi = 0.  Ties on the grid resolve to the smallest theta, then the
smallest phi.  One vectorised evaluator serves the grid, the refinement and
``conditional_entropy``.

Everything here is pure and deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericFailure
from .linalg import SIGMA_Y, _reduced_state, kron, validate_two_qubit_state, von_neumann_entropy

_Y4 = kron(SIGMA_Y, SIGMA_Y)
_Y4.setflags(write=False)

X_SHAPE_TOL = 1e-10
_PROB_FLOOR = 1e-12

# coarse search grid; theta-major ordering fixes the tie-break
GRID_THETA = np.linspace(0.0, np.pi / 2.0, 65)
GRID_PHI = np.linspace(0.0, 2.0 * np.pi, 128, endpoint=False)
_GRID_T = np.repeat(GRID_THETA, GRID_PHI.size)
_GRID_P = np.tile(GRID_PHI, GRID_THETA.size)
# refinement stencil: 17 x 17 offsets spanning +-2 current spacings, theta-major
_STENCIL = np.linspace(-2.0, 2.0, 17)
_STENCIL_T = np.repeat(_STENCIL, _STENCIL.size)
_STENCIL_P = np.tile(_STENCIL, _STENCIL.size)
_REFINE_MIN_STEP = 1e-9
for _a in (GRID_THETA, GRID_PHI, _GRID_T, _GRID_P, _STENCIL, _STENCIL_T, _STENCIL_P):
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


def mutual_information(rho: np.ndarray) -> float:
    """I = S(rho_A) + S(rho_B) - S(rho_AB) in bits."""
    rho = validate_two_qubit_state(rho)
    sa = von_neumann_entropy(_reduced_state(rho, "A"))
    sb = von_neumann_entropy(_reduced_state(rho, "B"))
    return sa + sb - von_neumann_entropy(rho)


def _basis_vectors(theta: float, phi: float):
    c, s = math.cos(theta), math.sin(theta)
    e = complex(math.cos(phi), math.sin(phi))
    return np.array([c, e * s], dtype=complex), np.array([e.conjugate() * s, -c], dtype=complex)


def measurement_projectors(basis: MeasurementBasis):
    """The projector pair (B0, B1); B0 + B1 = I, each idempotent and rank 1."""
    v0, v1 = _basis_vectors(basis.theta, basis.phi)
    return np.outer(v0, v0.conj()), np.outer(v1, v1.conj())


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
    ct, st = np.cos(thetas), np.sin(thetas)
    return ct * ct, st * st, ct * st * np.exp(1j * phis)


# trigonometry of the fixed coarse grid, shared by every minimization
_GRID_C2, _GRID_S2, _GRID_Z = _basis_trig(_GRID_T, _GRID_P)


def _conditional_entropy_from_trig(r4, c2, s2, z) -> np.ndarray:
    """Conditional entropy given precomputed cos^2, sin^2 and cos sin e^{i phi}.

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


def _conditional_entropy_batch(r4: np.ndarray, thetas: np.ndarray, phis: np.ndarray) -> np.ndarray:
    """Measured conditional entropy for arrays of bases against one state.

    r4 is the density matrix reshaped to (2, 2, 2, 2) with axes (a, b, a', b').
    """
    return _conditional_entropy_from_trig(r4, *_basis_trig(thetas, phis))


def conditional_entropy(rho: np.ndarray, basis: MeasurementBasis) -> float:
    """sum_k p_k S(rho_k) for the projective measurement of ``basis`` on qubit B."""
    rho = validate_two_qubit_state(rho)
    r4 = rho.reshape(2, 2, 2, 2)
    return float(_conditional_entropy_batch(r4, np.array([basis.theta]), np.array([basis.phi]))[0])


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
    vals = _conditional_entropy_from_trig(r4, _GRID_C2, _GRID_S2, _GRID_Z)
    best_val = float(vals.min())
    # ties within round-off resolve to the smallest theta, then smallest phi
    idx = int(np.argmax(vals <= best_val + 1e-12))
    th0, ph0 = float(_GRID_T[idx]), float(_GRID_P[idx])

    dt, dp = float(GRID_THETA[1]), float(GRID_PHI[1])
    while dt >= _REFINE_MIN_STEP:
        thetas = np.clip(th0 + dt * _STENCIL_T, 0.0, np.pi / 2.0)
        phis = ph0 + dp * _STENCIL_P  # periodic in the trig, so left unbounded
        vals = _conditional_entropy_batch(r4, thetas, phis)
        j = int(np.argmin(vals))
        if vals[j] < best_val:
            best_val, th0, ph0 = float(vals[j]), float(thetas[j]), float(phis[j])
        dt /= 4.0
        dp /= 4.0
    ph0 = ph0 % (2.0 * np.pi)
    if ph0 >= 2.0 * np.pi:  # a tiny negative phi folds onto 2*pi in round-off
        ph0 = 0.0
    return MeasurementBasis(theta=th0, phi=ph0), best_val


def classical_correlation(rho: np.ndarray) -> float:
    """CC = S(rho_A) - min_basis sum_k p_k S(rho_k) in bits."""
    rho = validate_two_qubit_state(rho)
    sa = von_neumann_entropy(_reduced_state(rho, "A"))
    _, smin = _minimize_checked(rho)
    return sa - smin


def quantum_discord(rho: np.ndarray) -> float:
    """QD = S(rho_B) - S(rho_AB) + min_basis sum_k p_k S(rho_k) in bits."""
    rho = validate_two_qubit_state(rho)
    sb = von_neumann_entropy(_reduced_state(rho, "B"))
    _, smin = _minimize_checked(rho)
    return sb - von_neumann_entropy(rho) + smin


def correlation_report(rho: np.ndarray) -> CorrelationReport:
    """All four measures of one state, sharing a single basis minimization.

    X-shaped states take the exact algebraic concurrence route; the general
    spin-flip route square-roots near-zero eigenvalues and carries a noise
    floor around sqrt(machine epsilon).
    """
    rho = validate_two_qubit_state(rho)
    sa = von_neumann_entropy(_reduced_state(rho, "A"))
    sb = von_neumann_entropy(_reduced_state(rho, "B"))
    sab = von_neumann_entropy(rho)
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
