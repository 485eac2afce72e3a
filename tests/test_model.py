import numpy as np
import pytest

from qcorr.correlations import _LUO_TOL, _OFF_X
from qcorr.errors import NumericFailure
from qcorr.model import (
    DecoherenceParams,
    ModelParams,
    ThermalPoint,
    _bell_closed_forms,
    _dephased_states,
    _gibbs_states,
    bell_initial_state,
    hamiltonian_spectrum,
    milburn_closed_form,
    milburn_evolve,
    thermal_state,
)

from oracles import (
    dense_gibbs_state,
    eig_hermitian,
    milburn_bell_quadratic_mu,
    random_density_matrix,
    readme_hamiltonian,
    reduced_state,
    thermal_oracle,
    unitary_evolution_oracle,
)

FIG1_PARAMS = ModelParams(jx=0.2, jy=0.4, jz=0.8, dz=1.0)


def random_params(rng, coupling_scale=1.0):
    jx, jy, jz, dz = rng.uniform(-coupling_scale, coupling_scale, size=4)
    return ModelParams(jx=jx, jy=jy, jz=jz, dz=dz)


# the entries of the oracle H that the dense tests below build on
def test_hamiltonian_entries_fig1():
    h = readme_hamiltonian(FIG1_PARAMS)
    # 1-indexed (1,1)=Jz/2, (1,4)=(Jx-Jy)/2, (2,3)=beta/2 with beta=Jx+Jy+2i*Dz
    assert h[0, 0] == pytest.approx(0.4)
    assert h[0, 3] == pytest.approx(-0.1)
    assert h[1, 2] == pytest.approx(0.3 + 1.0j)
    assert h[2, 1] == pytest.approx(0.3 - 1.0j)
    assert h[1, 1] == pytest.approx(-0.4)


def test_hamiltonian_zero_params():
    assert np.abs(readme_hamiltonian(ModelParams(0, 0, 0, 0))).max() == 0.0


def test_hamiltonian_equal_xy_kills_corners():
    h = readme_hamiltonian(ModelParams(1.0, 1.0, 0.0, 0.0))
    assert h[0, 3] == 0.0 and h[3, 0] == 0.0
    assert h[1, 2] == pytest.approx(1.0)
    assert h[2, 1] == pytest.approx(1.0)


def test_spectrum_fig1_values():
    levels, _ = hamiltonian_spectrum(FIG1_PARAMS)
    mu = np.sqrt(0.6**2 + 4.0)
    expected = np.sort([0.3, 0.5, (-0.8 + mu) / 2.0, (-0.8 - mu) / 2.0])
    assert np.abs(levels - expected).max() <= 1e-12
    assert np.allclose(levels, [-1.4440, 0.3, 0.5, 0.6440], atol=5e-5)


def test_spectrum_zero_params():
    assert np.abs(hamiltonian_spectrum(ModelParams(0, 0, 0, 0))[0]).max() == 0.0


def test_spectrum_xxx_point():
    levels, _ = hamiltonian_spectrum(ModelParams(1.0, 1.0, 1.0, 0.0))
    assert np.abs(levels - np.array([-1.5, 0.5, 0.5, 0.5])).max() <= 1e-12


def test_thermal_state_high_temperature_limit():
    rho = thermal_state(ThermalPoint(FIG1_PARAMS, 1e6))
    assert np.abs(rho - np.eye(4) / 4.0).max() <= 1e-6


def test_thermal_state_corner_vanishes_for_equal_xy():
    rho = thermal_state(ThermalPoint(ModelParams(0.3, 0.3, 0.5, 0.7), 0.8))
    assert abs(rho[0, 3]) <= 1e-15


def test_thermal_state_against_expm_oracle():
    p = FIG1_PARAMS
    rho = thermal_state(ThermalPoint(p, 1.0))
    ref = thermal_oracle(readme_hamiltonian(p), 1.0)
    assert np.abs(rho - ref).max() <= 1e-10


def test_gibbs_coherence_identity_against_expm_oracle():
    # rho23 = -(beta/mu) e^{Jz/2T} sinh(mu/2T) / Z, sign included, with
    # Z = 2 e^{-Jz/2T} cosh((Jx-Jy)/2T) + 2 e^{Jz/2T} cosh(mu/2T)
    rng = np.random.default_rng(53)
    for _ in range(40):
        p = random_params(rng)
        t = float(rng.uniform(0.1, 2.0))
        a, b = p.jz / (2.0 * t), p.mu / (2.0 * t)
        z = 2.0 * np.exp(-a) * np.cosh((p.jx - p.jy) / (2.0 * t)) + 2.0 * np.exp(a) * np.cosh(b)
        rho23 = -(p.beta / p.mu) * np.exp(a) * np.sinh(b) / z
        assert abs(thermal_oracle(readme_hamiltonian(p), t)[1, 2] - rho23) <= 1e-12


def test_thermal_state_random_params_vs_oracle():
    rng = np.random.default_rng(37)
    for _ in range(60):
        p = random_params(rng)
        t = float(rng.uniform(0.05, 3.0))
        rho = thermal_state(ThermalPoint(p, t))
        ref = thermal_oracle(readme_hamiltonian(p), t)
        assert np.abs(rho - ref).max() <= 1e-10


def test_thermal_state_closed_form_matches_spectral():
    rng = np.random.default_rng(41)
    for _ in range(60):
        p = random_params(rng)
        t = float(rng.uniform(0.02, 2.0))
        a = thermal_state(ThermalPoint(p, t))
        b = dense_gibbs_state(readme_hamiltonian(p), t)
        assert np.abs(a - b).max() <= 1e-12


def test_thermal_state_low_temperature_is_finite():
    # at Dz = 1e307, T = 0.01 and at T = 1e-310 every gap / T overflows and
    # each excited level gets weight 0; all three states are the ground projector
    for p, t in ((ModelParams(0.2, 0.4, 0.8, 3.0), 0.01), (ModelParams(1.0, 1.0, 1.0, 1e307), 0.01),
                 (FIG1_PARAMS, 1e-310)):
        rho = thermal_state(ThermalPoint(p, t))
        assert np.isfinite(rho).all()
        assert rho.trace().real == pytest.approx(1.0, abs=1e-12)
        ground = hamiltonian_spectrum(p)[1][:, 0]
        assert np.abs(rho - np.outer(ground, ground.conj())).max() <= 1e-15


def test_thermal_state_x_shape_and_pairs():
    rng = np.random.default_rng(43)
    for _ in range(40):
        rho = thermal_state(ThermalPoint(random_params(rng), float(rng.uniform(0.05, 2.0))))
        # in the Luo exit's own terms, so every Gibbs state takes it
        assert abs(rho[0, 0] - rho[3, 3]) <= _LUO_TOL and abs(rho[1, 1] - rho[2, 2]) <= _LUO_TOL
        assert not rho[_OFF_X].any()


def test_thermal_reduced_states_are_maximally_mixed():
    rng = np.random.default_rng(47)
    for _ in range(20):
        rho = thermal_state(ThermalPoint(random_params(rng), float(rng.uniform(0.05, 2.0))))
        for keep in ("A", "B"):
            assert np.abs(reduced_state(rho, keep) - np.eye(2) / 2.0).max() <= 1e-10


def test_thermal_rejects_nonpositive_temperature():
    with pytest.raises(ValueError):
        ThermalPoint(FIG1_PARAMS, 0.0)
    with pytest.raises(ValueError):
        ThermalPoint(FIG1_PARAMS, -1.0)


def test_bell_state_entries():
    rho = bell_initial_state()
    assert rho[1, 1] == 0.5 and rho[2, 2] == 0.5 and rho[1, 2] == 0.5
    assert rho.trace() == pytest.approx(1.0)
    assert np.trace(rho @ rho).real == pytest.approx(1.0, abs=1e-14)


def test_milburn_identity_at_t_zero():
    rng = np.random.default_rng(53)
    rho0 = random_density_matrix(rng)
    dp = DecoherenceParams(FIG1_PARAMS, gamma=0.4, time=0.0)
    assert np.abs(milburn_evolve(dp, rho0) - rho0).max() <= 1e-12


def test_milburn_gamma_zero_is_unitary():
    rng = np.random.default_rng(59)
    for _ in range(50):
        p = random_params(rng)
        t = float(rng.uniform(0.0, 5.0))
        rho0 = random_density_matrix(rng)
        evolved = milburn_evolve(DecoherenceParams(p, 0.0, t), rho0)
        ref = unitary_evolution_oracle(readme_hamiltonian(p), rho0, t)
        assert np.abs(evolved - ref).max() <= 1e-10


def test_milburn_dephases_in_energy_basis():
    p = ModelParams(0.03, 0.06, 0.0, 6.0)
    gamma = 0.01
    mu = p.mu
    t = 2.0 * 40.0 / (gamma * mu * mu)  # gamma mu^2 t / 2 = 40
    rho = milburn_evolve(DecoherenceParams(p, gamma, t), bell_initial_state())
    levels, v = hamiltonian_spectrum(p)
    coeff = v.conj().T @ rho @ v
    gaps = np.abs(levels[:, None] - levels[None, :])
    assert np.abs(coeff[gaps > 1e-9]).max() <= 1e-12


def test_milburn_conserves_energy_diagonal():
    rng = np.random.default_rng(61)
    p = random_params(rng)
    _, v = hamiltonian_spectrum(p)
    rho0 = random_density_matrix(rng)
    d0 = np.diagonal(v.conj().T @ rho0 @ v).real
    for t in (0.3, 1.7, 12.0):
        rho = milburn_evolve(DecoherenceParams(p, 0.2, t), rho0)
        d = np.diagonal(v.conj().T @ rho @ v).real
        assert np.abs(d - d0).max() <= 1e-12


def test_milburn_purity_nonincreasing():
    rng = np.random.default_rng(67)
    for _ in range(10):
        p = random_params(rng)
        rho0 = random_density_matrix(rng)
        times = np.sort(rng.uniform(0.0, 8.0, size=12))
        purities = [
            np.trace(m @ m).real
            for m in (milburn_evolve(DecoherenceParams(p, 0.3, float(t)), rho0) for t in times)
        ]
        assert all(b <= a + 1e-12 for a, b in zip(purities, purities[1:]))


def test_milburn_composition():
    rng = np.random.default_rng(71)
    p = random_params(rng)
    rho0 = random_density_matrix(rng)
    gamma = 0.15
    one = milburn_evolve(DecoherenceParams(p, gamma, 0.9), rho0)
    two = milburn_evolve(DecoherenceParams(p, gamma, 1.4), one)
    direct = milburn_evolve(DecoherenceParams(p, gamma, 2.3), rho0)
    assert np.abs(two - direct).max() <= 1e-10


def test_milburn_closed_form_recovers_bell_at_t_zero():
    p = ModelParams(3.0, 0.6, 0.0, 0.1)
    rho = milburn_closed_form(DecoherenceParams(p, 0.1, 0.0))
    assert rho[1, 1] == pytest.approx(0.5, abs=1e-14)
    assert abs(rho[1, 2]) == pytest.approx(0.5, abs=1e-14)


def test_milburn_closed_form_matches_spectral_evolution():
    bell = bell_initial_state()
    rng = np.random.default_rng(73)
    for jx, jy, dz, gamma in ((0.03, 0.06, 6.0, 0.01), (3.0, 0.6, 0.1, 0.1), (3.0, 0.6, 0.3, 0.1)):
        jz = float(rng.uniform(-1.0, 1.0))  # must not matter
        p = ModelParams(jx, jy, jz, dz)
        for t in np.linspace(0.0, 7.0, 60):
            dp = DecoherenceParams(p, gamma, float(t))
            assert np.abs(milburn_evolve(dp, bell) - milburn_closed_form(dp)).max() <= 1e-12


def test_milburn_closed_form_trace_and_support():
    p = ModelParams(0.03, 0.06, 0.4, 6.0)
    for t in (0.0, 0.3, 2.0, 9.0):
        rho = milburn_closed_form(DecoherenceParams(p, 0.01, t))
        assert rho[1, 1].real + rho[2, 2].real == pytest.approx(1.0, abs=1e-14)
        assert rho[0, 0] == 0.0 and rho[3, 3] == 0.0 and rho[0, 3] == 0.0


def test_milburn_closed_form_steady_state_coherence():
    for dz, expected in ((0.1, 3.6 / np.sqrt(13.0)), (0.3, 3.6 / np.sqrt(13.32))):
        p = ModelParams(3.0, 0.6, 0.0, dz)
        t = 2.0 * 40.0 / (0.1 * p.mu**2)
        rho = milburn_closed_form(DecoherenceParams(p, 0.1, t))
        assert 2.0 * abs(rho[1, 2]) == pytest.approx(expected, abs=1e-9)


def test_milburn_quadratic_mu_variant_is_wrong():
    # the mu^2-normalized population wobble does not reproduce the dynamics
    p = ModelParams(0.03, 0.06, 0.0, 6.0)
    dp = DecoherenceParams(p, 0.01, 0.12)
    dev = np.abs(milburn_bell_quadratic_mu(p, 0.01, 0.12) - milburn_evolve(dp, bell_initial_state())).max()
    assert dev > 0.1


def test_milburn_bell_reduced_state_departs_from_mixed():
    # with Dz != 0 the Bell populations oscillate, so the reduced states are
    # only spectrally equal, not both I/2
    p = ModelParams(0.03, 0.06, 0.0, 6.0)
    mu = p.mu
    t = float(np.pi / (2.0 * mu))  # sin(mu t) = 1
    rho = milburn_evolve(DecoherenceParams(p, 0.01, t), bell_initial_state())
    ra = reduced_state(rho, "A")
    rb = reduced_state(rho, "B")
    expected_shift = p.dz / mu * np.exp(-0.005 * mu * mu * t)
    assert ra[0, 0].real - 0.5 == pytest.approx(expected_shift, abs=1e-12)
    assert np.abs(np.linalg.eigvalsh(ra) - np.linalg.eigvalsh(rb)).max() <= 1e-12


def test_decoherence_params_validation():
    with pytest.raises(ValueError):
        DecoherenceParams(FIG1_PARAMS, gamma=-0.1, time=1.0)
    with pytest.raises(ValueError):
        DecoherenceParams(FIG1_PARAMS, gamma=0.1, time=-1.0)
    with pytest.raises(ValueError):
        ModelParams(np.inf, 0.0, 0.0, 0.0)


def test_spectrum_cross_check_error_type():
    # NumericFailure is reserved for internal inconsistencies; a valid input
    # must never raise it
    rng = np.random.default_rng(79)
    for _ in range(200):
        try:
            hamiltonian_spectrum(random_params(rng, 5.0))
        except NumericFailure as exc:  # pragma: no cover
            pytest.fail(f"unexpected cross-check failure: {exc}")


def test_spectrum_matches_dense_eigh():
    # the same couplings as test_spectrum_cross_check_error_type
    rng = np.random.default_rng(79)
    for _ in range(200):
        p = random_params(rng, 5.0)
        h = readme_hamiltonian(p)
        levels, v = hamiltonian_spectrum(p)
        assert np.abs(levels - eig_hermitian(h).eigenvalues).max() <= 1e-10
        residual = h @ v - v * levels
        assert np.abs(residual).max() <= 1e-10
        gram = v.conj().T @ v
        assert np.abs(gram - np.eye(4)).max() <= 1e-12


def test_milburn_closed_form_finite_when_mu_squared_underflows():
    # mu = 1.1e-175 > 0, but mu * mu underflows to 0
    p = ModelParams(0.0, 0.0, 0.0, 5.360154248904543e-176)
    for t in (0.0, 1.0):
        dp = DecoherenceParams(p, 0.1, t)
        closed = milburn_closed_form(dp)
        assert np.abs(closed - bell_initial_state()).max() <= 1e-12
        assert np.abs(milburn_evolve(dp, bell_initial_state()) - closed).max() <= 1e-12


def test_milburn_finite_when_gaps_squared_overflow():
    # gaps near 3e200 overflow gap**2: no damping at gamma t = 0, full damping after
    p = ModelParams(1e200, 1e200, 0.0, 1e200)
    bell = bell_initial_state()
    dp = DecoherenceParams(p, 0.1, 0.0)
    assert np.abs(milburn_evolve(dp, bell) - bell).max() <= 1e-15
    assert np.abs(milburn_closed_form(dp) - bell).max() <= 1e-15
    dp = DecoherenceParams(p, 0.0, 2.5)  # unitary: the two derivations still agree
    assert np.abs(milburn_evolve(dp, bell) - milburn_closed_form(dp)).max() <= 1e-14
    steady = np.zeros((4, 4), dtype=complex)
    steady[1, 1] = steady[2, 2] = 0.5
    steady[1, 2] = (p.beta / p.mu) * ((p.jx + p.jy) / p.mu) / 2.0
    steady[2, 1] = steady[1, 2].conjugate()
    # at gamma = 1e-300, t = 1e-30 the product gamma t / 2 underflows to 0,
    # yet the damping (sqrt(gamma/2) sqrt(t) gap)^2 is about 4e70; at
    # gamma = 5e-324 even 0.5 * gamma is 0, and the damping is about 2e77; at
    # gamma = 1e308, t = 1e10 the product gamma t / 2 itself overflows
    for dp in (DecoherenceParams(p, 0.1, 1.0), DecoherenceParams(p, 1e-300, 1e-30),
               DecoherenceParams(p, 5e-324, 1.0), DecoherenceParams(p, 1e308, 1e10)):
        assert np.abs(milburn_evolve(dp, bell) - steady).max() <= 1e-15
        assert np.abs(milburn_closed_form(dp) - steady).max() <= 1e-15
    for gamma in (0.0, 0.1):
        dp = DecoherenceParams(p, gamma, 1e200)  # gap * t overflows
        with pytest.raises(NumericFailure, match="energy gap times t overflows at t = 1e"):
            milburn_evolve(dp, bell)
        with pytest.raises(NumericFailure, match="energy gap times t overflows at t = 1e"):
            milburn_closed_form(dp)


@pytest.mark.parametrize("params, scale", [
    (ModelParams(1.0, 1.0, 1.0, 1e308), "mu = hypot(Jx+Jy, 2Dz)"),
    (ModelParams(1e308, -1e308, 1.0, 1.0), "(Jz + (Jx-Jy))/2"),
])
def test_overflowing_energy_scale_is_named(params, scale):
    for build in (lambda: hamiltonian_spectrum(params),
                  lambda: thermal_state(ThermalPoint(params, 1.0)),
                  lambda: milburn_closed_form(DecoherenceParams(params, 0.1, 0.0))):
        with pytest.raises(NumericFailure) as info:
            build()
        assert str(info.value) == f"energy scale {scale} overflows"


def test_block_rows_equal_the_one_row_calls_bitwise():
    # one stack per builder mixes the edge cases the one-row calls cover on
    # their own: gap / T overflowing at Dz = 1e307, T = 0.01, and T = 1e308;
    # t = 0, gamma = 5e-324 and gaps squared overflowing at 1e200 couplings;
    # mu = 0, and a subnormal mu, whose reciprocal overflows
    for p in (ModelParams(1.0, 1.0, 1.0, 1e307), FIG1_PARAMS):
        temperatures = np.array([0.01, 0.37, 2.0, 5e307, 1e308])
        block = _gibbs_states(p, temperatures)
        assert block.shape == (5, 4, 4)
        for rho, t in zip(block, temperatures):
            assert np.array_equal(rho, thermal_state(ThermalPoint(p, float(t))))
    rho0 = random_density_matrix(np.random.default_rng(83))
    huge = ModelParams(1e200, 1e200, 0.0, 1e200)
    cases = ((huge, 5e-324, [0.0, 1e-30, 1.0, 2.5]), (huge, 0.1, [0.0, 1.0]), (huge, 1e308, [0.0, 1e10]),
             (ModelParams(0.0, 0.0, 0.0, 0.0), 0.2, [0.0, 1.0]),
             (ModelParams(0.0, 0.0, 0.0, 2.225073858507e-311), 0.1, [0.0, 1.0]),
             (ModelParams(0.03, 0.06, 0.0, 6.0), 0.01, np.linspace(0.0, 6.0, 7)))
    for p, gamma, times in cases:
        evolved, closed = _dephased_states(p, gamma, times, rho0), _bell_closed_forms(p, gamma, times)
        bell = _dephased_states(p, gamma, times, bell_initial_state())
        assert evolved.shape == closed.shape == bell.shape == (len(times), 4, 4)
        assert np.isfinite(closed).all() and np.abs(bell - closed).max() <= 1e-14
        for k, t in enumerate(times):
            dp = DecoherenceParams(p, gamma, float(t))
            assert np.array_equal(evolved[k], milburn_evolve(dp, rho0))
            assert np.array_equal(bell[k], milburn_evolve(dp, bell_initial_state()))
            assert np.array_equal(closed[k], milburn_closed_form(dp))


def test_block_names_its_first_overflowing_time():
    # gap * t overflows from t = 1e200 on at 1e200 couplings: the block fails
    # with the text of the one-row call at its first such t
    p = ModelParams(1e200, 1e200, 0.0, 1e200)
    times = [1.0, 1e200, 1e250]
    for block, one in ((lambda: _dephased_states(p, 0.1, times, bell_initial_state()),
                        lambda: milburn_evolve(DecoherenceParams(p, 0.1, 1e200), bell_initial_state())),
                       (lambda: _bell_closed_forms(p, 0.1, times),
                        lambda: milburn_closed_form(DecoherenceParams(p, 0.1, 1e200)))):
        with pytest.raises(NumericFailure) as info:
            block()
        with pytest.raises(NumericFailure) as single:
            one()
        assert str(info.value) == str(single.value) == "energy gap times t overflows at t = 1e+200"
