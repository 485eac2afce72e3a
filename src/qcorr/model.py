"""Two-qubit anisotropic XYZ chain with a z-axis Dzyaloshinskii-Moriya term.

The Hamiltonian is

    H = 1/2 [ Jx sx.sx + Jy sy.sy + Jz sz.sz + Dz (sx.sy - sy.sx) ]

which in the standard basis |00>,|01>,|10>,|11> is block diagonal: an outer
block on span{|00>,|11>} with eigenvalues (Jz +- (Jx-Jy))/2 and an inner
block on span{|01>,|10>} with off-diagonal beta/2, beta = Jx+Jy+2i*Dz, and
eigenvalues (-Jz +- mu)/2 where mu = |beta| = sqrt((Jx+Jy)^2 + 4 Dz^2).

This module builds the spectrum from the two blocks, as the plain pair
(levels, vecs) of ``hamiltonian_spectrum``, and both model states from
that one eigenbasis: the Gibbs state exp(-H/T)/Z, and the pure-dephasing
evolution that damps every coherence between energy eigenstates |m>,|n> by
exp(-(gamma t / 2)(Em - En)^2) while rotating it by exp(-i (Em - En) t).
Each state, and the closed form of the dephased Bell pair, has one builder
that makes an (n, 4, 4) stack over an array of temperatures or times from
one spectrum; ``thermal_state``, ``milburn_evolve`` and ``milburn_closed_form``
are its one-row calls.  The dense Hamiltonian matrix and its
eigendecomposition serve only as test oracles.

All functions are pure; inputs and outputs are treated as immutable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericFailure
from .linalg import validated_spectrum


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
        for name in ("gamma", "time"):
            value = _finite(name, getattr(self, name))
            if value < 0.0:
                raise ValueError(f"{name} must be >= 0, got {value}")
            object.__setattr__(self, name, value)


_ENERGY_SCALES = ("mu = hypot(Jx+Jy, 2Dz)", "(Jz + (Jx-Jy))/2", "(Jz - (Jx-Jy))/2",
                  "(-Jz + mu)/2", "(-Jz - mu)/2")


def _block_levels(p: ModelParams) -> tuple:
    """(mu, *levels): mu and the levels (Jz +- (Jx-Jy))/2, (-Jz +- mu)/2, outer block first.

    Raises NumericFailure naming the first of them that overflows, so no
    state is built from an infinite energy scale.
    """
    mu = p.mu
    scales = (mu, (p.jz + (p.jx - p.jy)) / 2.0, (p.jz - (p.jx - p.jy)) / 2.0,
              (-p.jz + mu) / 2.0, (-p.jz - mu) / 2.0)
    for name, value in zip(_ENERGY_SCALES, scales):
        if not math.isfinite(value):
            raise NumericFailure(f"energy scale {name} overflows")
    return scales


def hamiltonian_spectrum(p: ModelParams) -> tuple:
    """(levels, vecs): the Hamiltonian's spectrum from the two 2x2 parity blocks.

    The levels (Jz +- (Jx-Jy))/2 on span{|00>,|11>} and (-Jz +- mu)/2 on
    span{|01>,|10>}, sorted ascending, with their Bell-type eigenvectors
    (|00> +- |11>)/sqrt(2) and (e^{i arg beta}|01> +- |10>)/sqrt(2) as
    the columns of vecs.  Both arrays are read-only.
    """
    s = 1.0 / math.sqrt(2.0)
    mu, *levels = _block_levels(p)
    # inner-block phase; arbitrary for mu = 0 (degenerate block)
    phase = p.beta / mu if mu > 0.0 else 1.0 + 0.0j
    vecs = s * np.array([[1, 1, 0, 0], [0, 0, phase, phase], [0, 0, 1, -1], [1, -1, 0, 0]], dtype=complex)
    vals = np.array(levels)
    order = np.argsort(vals, kind="stable")
    vals, vecs = vals[order], vecs[:, order]
    vals.setflags(write=False)
    vecs.setflags(write=False)
    return vals, vecs


@np.errstate(over="ignore")  # an overflowing gap / T leaves a zero weight
def _gibbs_states(p: ModelParams, temperatures) -> np.ndarray:
    """The Gibbs states of thermal_state at each temperature, as an (n, 4, 4) stack."""
    levels, v = hamiltonian_spectrum(p)
    w = np.exp(-(levels - levels[0]) / np.asarray(temperatures)[:, None])
    out = (v * (w / w.sum(axis=1, keepdims=True))[:, None, :]) @ v.conj().T
    return 0.5 * (out + out.conj().swapaxes(1, 2))


def thermal_state(tp: ThermalPoint) -> np.ndarray:
    """Gibbs state exp(-H/T)/Z in the eigenbasis of hamiltonian_spectrum.

    rho = V diag(w / sum w) V^dag with w = exp(-(E - E0)/T) and E0 the ground
    level, so no exponent is positive and low temperatures stay finite; a gap
    whose ratio to T overflows gets weight exactly 0.  V's exact zeros keep
    the state X-shaped.
    """
    return _gibbs_states(tp.params, [tp.temperature])[0]


def bell_initial_state() -> np.ndarray:
    """Projector onto (|01> + |10>)/sqrt(2)."""
    rho = np.zeros((4, 4), dtype=complex)
    rho[1, 1] = rho[2, 2] = rho[1, 2] = rho[2, 1] = 0.5
    return rho


def _phases(gaps, times: np.ndarray) -> np.ndarray:
    """gaps * t under the caller's errstate; NumericFailure names the first t where one overflows."""
    phases = gaps * times
    finite = np.isfinite(phases).reshape(times.shape[0], -1).all(axis=1)
    if not finite.all():
        raise NumericFailure(f"energy gap times t overflows at t = {times.flat[finite.argmin()]:g}")
    return phases


@np.errstate(over="ignore")  # an overflowing damping leaves a zero coherence
def _dephased_states(p: ModelParams, gamma: float, times, rho0: np.ndarray) -> np.ndarray:
    """rho0 evolved as in milburn_evolve to each time, as an (n, 4, 4) stack; rho0 is checked once."""
    rho0 = validated_spectrum(rho0)[0]
    levels, v = hamiltonian_spectrum(p)
    coeff = v.conj().T @ rho0 @ v
    gaps = levels[:, None] - levels[None, :]
    times = np.asarray(times, dtype=float)[:, None, None]
    phases = _phases(gaps, times)
    damping = 0.5 * (math.sqrt(gamma) * np.sqrt(times) * gaps) ** 2
    out = v @ (coeff * np.exp(-damping - 1j * phases)) @ v.conj().T
    return 0.5 * (out + out.conj().swapaxes(1, 2))


def milburn_evolve(dp: DecoherenceParams, rho0: np.ndarray) -> np.ndarray:
    """Pure-dephasing evolution of rho0 in the energy eigenbasis.

    rho(t) = sum_mn exp(-(gamma t/2)(Em-En)^2 - i(Em-En) t) <m|rho0|n> |m><n|,

    with |m>, Em from hamiltonian_spectrum; rho0 is checked by
    linalg.validated_spectrum, which raises ValueError for a non-state.
    The damping is formed as (sqrt(gamma) sqrt(t) (Em-En))^2 / 2, so no gamma t / 2 underflows.

    At gamma = 0 this is exactly the unitary evolution exp(-iHt) rho0 exp(iHt);
    for gamma > 0 the energy-basis diagonal is conserved and purity is
    non-increasing in t.
    """
    return _dephased_states(dp.params, dp.gamma, [dp.time], rho0)[0]


@np.errstate(over="ignore")  # an overflowing exponent leaves a zero envelope
def _bell_closed_forms(p: ModelParams, gamma: float, times) -> np.ndarray:
    """The closed-form states of milburn_closed_form at each time, as an (n, 4, 4) stack."""
    times = np.asarray(times, dtype=float)
    mu = _block_levels(p)[0]
    if mu == 0.0:  # beta = 0: the Bell pair is an eigenstate and nothing moves
        return np.tile(bell_initial_state(), (times.size, 1, 1))
    rho = np.zeros((times.size, 4, 4), dtype=complex)
    angle = _phases(mu, times)
    env = np.exp(-0.5 * (math.sqrt(gamma) * np.sqrt(times) * mu) ** 2)
    wobble = p.dz * env * np.sin(angle) / mu
    rho[:, 1, 1] = 0.5 + wobble
    rho[:, 2, 2] = 0.5 - wobble
    # (beta / mu) ((...) / mu) in real parts: mu * mu may underflow, and 1 / mu overflow
    b1, b2 = (p.jx + p.jy) / mu, 2.0 * p.dz / mu
    c2 = -(2.0 * p.dz * env * np.cos(angle)) / mu
    rho23 = rho[:, 1, 2]
    rho23.real, rho23.imag = (b1 * b1 - b2 * c2) / 2.0, (b1 * c2 + b2 * b1) / 2.0
    rho[:, 2, 1] = rho23.conj()
    return rho


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
    return _bell_closed_forms(dp.params, dp.gamma, [dp.time])[0]
