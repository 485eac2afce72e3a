"""Property tests of the model states and their correlation measures.

* Dz -> -Dz conjugates the Gibbs state and maps the dephased Bell pair to
  (sx.sx) rho (sx.sx); Jx <-> Jy is undone by a local z rotation.  None of
  these changes any of the four measures.
* Scaling every coupling and T by s leaves the Gibbs state unchanged, and
  so does scaling the couplings by s with gamma / s and t / s for the
  dephased state.
* Entropy bounds on Gibbs, dephased and random states: CC <= min(S_A, S_B)
  (Henderson and Vedral, J. Phys. A 34, 6899 (2001)) and QD <= S_B, with B
  the measured qubit.  0 <= CC <= I and 0 <= QD <= I hold with no tolerance,
  on Gibbs states up to T = 1e308 too.
* When the Dz = 0 ground state lies in the inner (odd-parity) block, C, CC
  and I of the Gibbs state do not fall as |Dz| grows; QD may (README,
  "Where Dz helps and where it hurts").

Examples are derandomized, so every run draws the same points.
"""

from dataclasses import replace

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qcorr.correlations import correlation_report
from qcorr.model import (
    DecoherenceParams,
    ModelParams,
    ThermalPoint,
    bell_initial_state,
    milburn_closed_form,
    milburn_evolve,
    thermal_state,
)

from oracles import eigvalsh_entropy, random_density_matrix, reduced_state

SYMMETRY_TOL = 1e-9
SCALE_TOL = 1e-12
BOUND_TOL = 1e-9
MONOTONE_TOL = 1e-9

coupling = st.floats(-3.0, 3.0, allow_nan=False, allow_infinity=False)
params = st.builds(ModelParams, coupling, coupling, coupling, coupling)
temperature = st.floats(0.05, 3.0)
any_temperature = st.floats(1e-2, 1e308)
gamma = st.floats(0.0, 0.5)
time = st.floats(0.0, 10.0)
scale = st.floats(1e-3, 1e6)
states = st.one_of(
    st.builds(lambda p, t: thermal_state(ThermalPoint(p, t)), params, temperature),
    st.builds(lambda p, g, t: milburn_evolve(DecoherenceParams(p, g, t), bell_initial_state()),
              params, gamma, time),
    st.builds(lambda seed: random_density_matrix(np.random.default_rng(seed)), st.integers(0, 2**32 - 1)),
)

common = settings(max_examples=40, deadline=None, derandomize=True, database=None)
bounds = settings(common, max_examples=120)

_OFF_X = np.ones((4, 4), dtype=bool)
_OFF_X[[0, 1, 2, 3, 0, 3, 1, 2], [0, 1, 2, 3, 3, 0, 2, 1]] = False


def _measures(rho):
    rep = correlation_report(rho)
    return np.array([rep.concurrence, rep.classical_correlation, rep.quantum_discord,
                     rep.mutual_information])


def _symmetry_partners(p):
    return replace(p, dz=-p.dz), replace(p, jx=p.jy, jy=p.jx)


def _scaled(p, s):
    return ModelParams(p.jx * s, p.jy * s, p.jz * s, p.dz * s)


@common
@given(params, temperature)
def test_gibbs_measures_invariant_under_dz_flip_and_xy_swap(p, t):
    base = _measures(thermal_state(ThermalPoint(p, t)))
    assert 0.0 <= base[0] <= 1.0 and base[2] >= -1e-12
    for q in _symmetry_partners(p):
        assert np.abs(_measures(thermal_state(ThermalPoint(q, t))) - base).max() <= SYMMETRY_TOL


@common
@given(params, gamma, time)
def test_dephased_measures_invariant_under_dz_flip_and_xy_swap(p, g, t):
    bell = bell_initial_state()
    base = _measures(milburn_evolve(DecoherenceParams(p, g, t), bell))
    assert 0.0 <= base[0] <= 1.0 and base[2] >= -1e-12
    for q in _symmetry_partners(p):
        partner = _measures(milburn_evolve(DecoherenceParams(q, g, t), bell))
        assert np.abs(partner - base).max() <= SYMMETRY_TOL


@common
@given(params, temperature, scale)
def test_gibbs_state_is_scale_invariant(p, t, s):
    unit = thermal_state(ThermalPoint(p, t))
    scaled = thermal_state(ThermalPoint(_scaled(p, s), t * s))
    assert np.abs(scaled - unit).max() <= SCALE_TOL


@common
@given(params, gamma, time, scale)
def test_dephased_state_is_scale_invariant_and_x_shaped(p, g, t, s):
    bell = bell_initial_state()
    unit = milburn_evolve(DecoherenceParams(p, g, t), bell)
    scaled_dp = DecoherenceParams(_scaled(p, s), g / s, t / s)
    assert np.abs(milburn_evolve(scaled_dp, bell) - unit).max() <= SCALE_TOL
    assert np.abs(milburn_closed_form(scaled_dp) - unit).max() <= SCALE_TOL
    assert np.abs(unit[_OFF_X]).max() <= SCALE_TOL


def _local_entropies(rho):
    return (eigvalsh_entropy(reduced_state(rho, "A")), eigvalsh_entropy(reduced_state(rho, "B")))


@bounds
@given(states)
def test_classical_correlation_below_both_local_entropies(rho):
    assert correlation_report(rho).classical_correlation <= min(_local_entropies(rho)) + BOUND_TOL


@bounds
@given(states)
def test_discord_below_measured_qubit_entropy(rho):
    assert correlation_report(rho).quantum_discord <= _local_entropies(rho)[1] + BOUND_TOL


@bounds
@given(params, any_temperature)
def test_gibbs_correlations_lie_between_zero_and_mutual_information(p, t):
    rep = correlation_report(thermal_state(ThermalPoint(p, t)))
    info = rep.mutual_information
    assert 0.0 <= rep.classical_correlation <= info
    assert 0.0 <= rep.quantum_discord <= info


@settings(common, max_examples=60)
@given(coupling, coupling, coupling, temperature, st.floats(0.1, 3.0), st.sampled_from((-1.0, 1.0)))
def test_inner_block_gibbs_correlations_grow_with_dz(jx, jy, jz, t, dz_max, sign):
    # inner-block ground level -(Jz + |Jx+Jy|)/2 at or below the outer one (Jz - |Jx-Jy|)/2
    assume(-jz - abs(jx + jy) <= jz - abs(jx - jy))
    rows = []
    for dz in sign * np.linspace(0.0, dz_max, 9):
        rep = correlation_report(thermal_state(ThermalPoint(ModelParams(jx, jy, jz, dz), t)))
        rows.append((rep.concurrence, rep.classical_correlation, rep.mutual_information))
    assert np.diff(np.array(rows), axis=0).min() >= -MONOTONE_TOL
