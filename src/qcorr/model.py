"""Two-qubit anisotropic XYZ chain with a z-axis Dzyaloshinskii-Moriya term.

The Hamiltonian is

    H = 1/2 [ Jx sx.sx + Jy sy.sy + Jz sz.sz + Dz (sx.sy - sy.sx) ]

which in the standard basis |00>,|01>,|10>,|11> is block diagonal: an outer
block on span{|00>,|11>} with eigenvalues (Jz +- (Jx-Jy))/2 and an inner
block on span{|01>,|10>} with off-diagonal beta/2, beta = Jx+Jy+2i*Dz, and
eigenvalues (-Jz +- mu)/2 where mu = |beta| = sqrt((Jx+Jy)^2 + 4 Dz^2).

This module builds the spectrum from the two blocks, the Gibbs state
exp(-H/T)/Z from the block closed forms, and the pure-dephasing evolution
that damps every coherence between energy eigenstates |m>,|n> by
exp(-(gamma t / 2)(Em - En)^2) while rotating it by exp(-i (Em - En) t).
Every state is built by one route; the dense Hamiltonian matrix and its
eigendecomposition serve only as test oracles.

All functions are pure; inputs and outputs are treated as immutable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericFailure
from .linalg import validate_two_qubit_state


def _finite(name, value) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")
    return value


@dataclass(frozen=True)
class ModelParams:
    """Coupling constants jx, jy, jz and DM strength dz (energy units, hbar = 1)."""

    jx: float
    jy: float
    jz: float
    dz: float

    def __post_init__(self):
        for name in ("jx", "jy", "jz", "dz"):
            object.__setattr__(self, name, _finite(name, getattr(self, name)))

    @property
    def beta(self) -> complex:
        return complex(self.jx + self.jy, 2.0 * self.dz)

    @property
    def mu(self) -> float:
        return math.hypot(self.jx + self.jy, 2.0 * self.dz)


@dataclass(frozen=True)
class ThermalPoint:
    """Model parameters together with a strictly positive temperature (k_B = 1)."""

    params: ModelParams
    temperature: float

    def __post_init__(self):
        t = _finite("temperature", self.temperature)
        if t <= 0.0:
            raise ValueError(f"temperature must be > 0, got {t}")
        object.__setattr__(self, "temperature", t)


@dataclass(frozen=True)
class DecoherenceParams:
    """Model parameters with a phase-damping rate gamma >= 0 and a time t >= 0."""

    params: ModelParams
    gamma: float
    time: float

    def __post_init__(self):
        g = _finite("gamma", self.gamma)
        t = _finite("time", self.time)
        if g < 0.0:
            raise ValueError(f"gamma must be >= 0, got {g}")
        if t < 0.0:
            raise ValueError(f"time must be >= 0, got {t}")
        object.__setattr__(self, "gamma", g)
        object.__setattr__(self, "time", t)


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalues (ascending) and orthonormal eigenvector columns of a Hermitian matrix."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def hamiltonian_spectrum(p: ModelParams) -> SpectralDecomposition:
    """Spectrum of the Hamiltonian from the two 2x2 parity blocks.

    The levels (Jz +- (Jx-Jy))/2 on span{|00>,|11>} and (-Jz +- mu)/2 on
    span{|01>,|10>}, sorted ascending, with their Bell-type eigenvectors
    (|00> +- |11>)/sqrt(2) and (e^{i arg beta}|01> +- |10>)/sqrt(2) as
    columns.  Both arrays are read-only.
    """
    s = 1.0 / math.sqrt(2.0)
    mu = p.mu
    # inner-block phase; arbitrary for mu = 0 (degenerate block)
    phase = p.beta / mu if mu > 0.0 else 1.0 + 0.0j
    vals = np.array([p.jz + (p.jx - p.jy), p.jz - (p.jx - p.jy), -p.jz + mu, -p.jz - mu]) / 2.0
    vecs = s * np.array([[1, 1, 0, 0], [0, 0, phase, phase], [0, 0, 1, -1], [1, -1, 0, 0]], dtype=complex)
    order = np.argsort(vals, kind="stable")
    vals, vecs = vals[order], vecs[:, order]
    vals.setflags(write=False)
    vecs.setflags(write=False)
    return SpectralDecomposition(eigenvalues=vals, eigenvectors=vecs)


def thermal_state(tp: ThermalPoint) -> np.ndarray:
    """Gibbs state exp(-H/T)/Z from the analytic block elements.

    Every element is a combination of exp(a_i/(2T)) terms; all exponents are
    shifted by their maximum before exponentiation so the construction stays
    finite at low temperature, and the matrix is normalized by its trace once.
    The result is X-shaped by construction.
    """
    p, t2 = tp.params, 2.0 * tp.temperature
    mu = p.mu
    a1 = (p.jx - p.jy - p.jz) / t2
    a2 = (p.jy - p.jx - p.jz) / t2
    b1 = (p.jz + mu) / t2
    b2 = (p.jz - mu) / t2
    shift = max(a1, a2, b1, b2)
    ea1, ea2, eb1, eb2 = (math.exp(a - shift) for a in (a1, a2, b1, b2))
    u11 = 0.5 * (ea1 + ea2)
    u41 = 0.5 * (-ea1 + ea2)
    u22 = 0.5 * (eb1 + eb2)
    sinh_term = 0.5 * (eb1 - eb2)
    u23 = -(p.beta / mu) * sinh_term if mu > 0.0 else 0.0j
    z = 2.0 * (u11 + u22)
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = rho[3, 3] = u11 / z
    rho[0, 3] = rho[3, 0] = u41 / z
    rho[1, 1] = rho[2, 2] = u22 / z
    rho[1, 2] = u23 / z
    rho[2, 1] = np.conj(u23) / z
    return rho


def bell_initial_state() -> np.ndarray:
    """Projector onto (|01> + |10>)/sqrt(2)."""
    rho = np.zeros((4, 4), dtype=complex)
    rho[1, 1] = rho[2, 2] = rho[1, 2] = rho[2, 1] = 0.5
    return rho


def milburn_evolve(dp: DecoherenceParams, rho0: np.ndarray) -> np.ndarray:
    """Pure-dephasing evolution of rho0 in the energy eigenbasis.

    rho(t) = sum_mn exp(-(gamma t/2)(Em-En)^2 - i(Em-En) t) <m|rho0|n> |m><n|,

    with |m>, Em from hamiltonian_spectrum.

    At gamma = 0 this is exactly the unitary evolution exp(-iHt) rho0 exp(iHt);
    for gamma > 0 the energy-basis diagonal is conserved and purity is
    non-increasing in t.
    """
    rho0 = validate_two_qubit_state(rho0)
    dec = hamiltonian_spectrum(dp.params)
    v = dec.eigenvectors
    coeff = v.conj().T @ rho0 @ v
    gaps = dec.eigenvalues[:, None] - dec.eigenvalues[None, :]
    with np.errstate(over="ignore"):  # an overflowing damping leaves a zero coherence
        damping = 0.0 if dp.gamma == 0.0 or dp.time == 0.0 else (0.5 * dp.gamma * dp.time) * gaps**2
        phases = gaps * dp.time
    if not np.isfinite(phases).all():
        raise NumericFailure(f"energy gap times t overflows at t = {dp.time:g}")
    kernel = np.exp(-damping - 1j * phases)
    out = v @ (coeff * kernel) @ v.conj().T
    return 0.5 * (out + out.conj().T)


def milburn_closed_form(dp: DecoherenceParams) -> np.ndarray:
    """Dephased state of the Bell pair (|01>+|10>)/sqrt(2) in closed form.

    With mu = sqrt((Jx+Jy)^2 + 4 Dz^2) and envelope E = exp(-gamma mu^2 t / 2):

        rho22 = 1/2 + Dz E sin(mu t) / mu
        rho23 = (Jx+Jy+2i Dz) ((Jx+Jy) - 2i Dz E cos(mu t)) / (2 mu^2)
        rho33 = 1 - rho22,  rho32 = conj(rho23),  all other entries zero.

    The population oscillation is normalized by mu (not mu^2); with that
    normalization this agrees with milburn_evolve(bell_initial_state()) to
    machine precision, independent of Jz.
    """
    p = dp.params
    mu = p.mu
    rho = np.zeros((4, 4), dtype=complex)
    if mu == 0.0:
        # beta = 0: the Bell pair is an eigenstate and nothing moves
        return bell_initial_state()
    # no damping at gamma t = 0, where 0 * mu * mu could be 0 * inf
    env = 1.0 if dp.gamma == 0.0 or dp.time == 0.0 else math.exp(-0.5 * dp.gamma * mu * mu * dp.time)
    wobble = p.dz * env * math.sin(mu * dp.time) / mu
    rho[1, 1] = 0.5 + wobble
    rho[2, 2] = 0.5 - wobble
    jsum = p.jx + p.jy
    # (beta / mu) and (...) / mu each stay bounded; mu * mu may underflow
    rho[1, 2] = (p.beta / mu) * ((jsum - 2j * p.dz * env * math.cos(mu * dp.time)) / mu) / 2.0
    rho[2, 1] = rho[1, 2].conjugate()
    return rho
