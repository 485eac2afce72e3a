import numpy as np
import pytest

from qcorr.correlations import (
    MeasurementBasis,
    concurrence,
    concurrence_x_state,
    conditional_entropy,
    correlation_report,
    minimize_conditional_entropy,
)
from qcorr.linalg import partial_trace, von_neumann_entropy
from qcorr.model import (
    DecoherenceParams,
    ModelParams,
    ThermalPoint,
    bell_initial_state,
    milburn_evolve,
    thermal_state,
)

from oracles import (
    SY,
    bell_diagonal_exact,
    dense_grid_min_conditional_entropy,
    explicit_conditional_entropy,
    random_bell_diagonal,
    random_density_matrix,
    random_unitary,
    random_x_state,
    werner_state,
    x_state_conditional_entropy,
    x_state_min_conditional_entropy,
    x_state_phase,
)


def product_state(rho_a, rho_b):
    return np.kron(rho_a, rho_b)


def test_spin_flip_matrix_is_sigma_y_squared():
    from qcorr.correlations import _Y4

    assert np.array_equal(_Y4, np.kron(SY, SY))


def test_concurrence_bell():
    assert concurrence(bell_initial_state()) == pytest.approx(1.0, abs=1e-12)


def test_concurrence_maximally_mixed():
    assert concurrence(np.eye(4, dtype=complex) / 4.0) == 0.0


def test_concurrence_werner_half():
    # Wootters eigenvalues of the Werner state give max(0, (3p-1)/2)
    assert concurrence(werner_state(0.5)) == pytest.approx(0.25, abs=1e-10)
    assert concurrence(werner_state(1.0 / 3.0)) == pytest.approx(0.0, abs=1e-10)
    assert concurrence(werner_state(0.9)) == pytest.approx(0.85, abs=1e-10)


def test_concurrence_local_unitary_invariance():
    rng = np.random.default_rng(101)
    for _ in range(200):
        rho = random_density_matrix(rng)
        u = np.kron(random_unitary(rng), random_unitary(rng))
        rotated = u @ rho @ u.conj().T
        rotated = 0.5 * (rotated + rotated.conj().T)
        assert concurrence(rotated) == pytest.approx(concurrence(rho), abs=1e-9)


def test_concurrence_x_state_bell():
    assert concurrence_x_state(bell_initial_state()) == pytest.approx(1.0, abs=1e-12)


def test_concurrence_x_state_diagonal():
    assert concurrence_x_state(np.diag([0.25, 0.25, 0.25, 0.25]).astype(complex)) == 0.0


def test_concurrence_x_state_dephased_bell_limit():
    # population 1/2,1/2 with coherence (Jx+Jy)/(2 mu): concurrence (Jx+Jy)/mu
    p = ModelParams(3.0, 0.6, 0.0, 0.1)
    rho = np.zeros((4, 4), dtype=complex)
    rho[1, 1] = rho[2, 2] = 0.5
    rho[1, 2] = p.beta * (p.jx + p.jy) / (2.0 * p.mu**2)
    rho[2, 1] = rho[1, 2].conjugate()
    expected = 3.6 / np.sqrt(13.0)
    assert concurrence_x_state(rho) == pytest.approx(expected, abs=1e-12)
    assert concurrence(rho) == pytest.approx(expected, abs=1e-10)


def test_concurrence_x_state_matches_general_route():
    rng = np.random.default_rng(103)
    for _ in range(1000):
        rho = random_x_state(rng)
        assert concurrence_x_state(rho) == pytest.approx(concurrence(rho), abs=1e-10)


def test_concurrence_x_state_rejects_non_x():
    rng = np.random.default_rng(107)
    with pytest.raises(ValueError):
        concurrence_x_state(random_density_matrix(rng))


def test_mutual_information_trivial_states():
    mixed = np.eye(4, dtype=complex) / 4.0
    assert correlation_report(mixed).mutual_information == pytest.approx(0.0, abs=1e-12)
    assert correlation_report(bell_initial_state()).mutual_information == pytest.approx(2.0, abs=1e-12)
    pure00 = np.zeros((4, 4), dtype=complex)
    pure00[0, 0] = 1.0
    assert correlation_report(pure00).mutual_information == pytest.approx(0.0, abs=1e-12)


def test_basis_range_validation():
    with pytest.raises(ValueError):
        MeasurementBasis(-0.1, 0.0)
    with pytest.raises(ValueError):
        MeasurementBasis(0.0, 2.0 * np.pi)


def test_conditional_entropy_product_state():
    rng = np.random.default_rng(113)
    for _ in range(20):
        rho_a = random_density_matrix(rng, 2)
        rho_b = random_density_matrix(rng, 2)
        rho = product_state(rho_a, rho_b)
        basis = MeasurementBasis(rng.uniform(0, np.pi / 2), rng.uniform(0, 2 * np.pi))
        expected = von_neumann_entropy(rho_a)
        assert conditional_entropy(rho, basis) == pytest.approx(expected, abs=1e-10)


def test_conditional_entropy_bell_any_basis():
    rng = np.random.default_rng(127)
    bell = bell_initial_state()
    for _ in range(20):
        basis = MeasurementBasis(rng.uniform(0, np.pi / 2), rng.uniform(0, 2 * np.pi))
        assert conditional_entropy(bell, basis) <= 1e-10


def test_conditional_entropy_maximally_mixed():
    basis = MeasurementBasis(0.3, 1.2)
    assert conditional_entropy(np.eye(4, dtype=complex) / 4.0, basis) == pytest.approx(1.0, abs=1e-12)


def test_conditional_entropy_matches_explicit_sandwich():
    rng = np.random.default_rng(131)
    for _ in range(100):
        rho = random_density_matrix(rng)
        theta = rng.uniform(0, np.pi / 2)
        phi = rng.uniform(0, 2 * np.pi)
        fast = conditional_entropy(rho, MeasurementBasis(theta, phi))
        slow = explicit_conditional_entropy(rho, theta, phi)
        assert fast == pytest.approx(slow, abs=1e-11)


def test_minimize_bell_flat_landscape():
    basis, value = minimize_conditional_entropy(bell_initial_state())
    assert value <= 1e-10
    assert basis.theta == 0.0 and basis.phi == 0.0  # tie-break at the first grid node


def test_minimize_product_state():
    rng = np.random.default_rng(137)
    rho_a = random_density_matrix(rng, 2)
    rho_b = random_density_matrix(rng, 2)
    _, value = minimize_conditional_entropy(product_state(rho_a, rho_b))
    assert value == pytest.approx(von_neumann_entropy(rho_a), abs=1e-9)


def test_minimize_thermal_state_vs_dense_grid():
    rho = thermal_state(ThermalPoint(ModelParams(0.2, 0.4, 0.8, 1.0), 1.0))
    _, value = minimize_conditional_entropy(rho)
    dense = dense_grid_min_conditional_entropy(rho)
    assert value <= dense + 1e-5


def test_minimize_wraps_phi_through_zero():
    # the minimum sits just below phi = 0; a search bounded to [0, 2*pi]
    # stalls on the grid node (theta = pi/4, phi = 0), 3.4e-4 too high
    p = ModelParams(jx=-2.5167188125478512, jy=-0.7730850414054586,
                    jz=-0.577463163587999, dz=0.07816153067105258)
    rho = thermal_state(ThermalPoint(p, 1.0608))
    _, value = minimize_conditional_entropy(rho)
    assert value <= dense_grid_min_conditional_entropy(rho) + 1e-5


def test_minimize_dominates_random_bases():
    rng = np.random.default_rng(139)
    for _ in range(5):
        rho = random_density_matrix(rng)
        _, value = minimize_conditional_entropy(rho)
        for _ in range(100):
            basis = MeasurementBasis(rng.uniform(0, np.pi / 2), rng.uniform(0, 2 * np.pi))
            assert value <= conditional_entropy(rho, basis) + 1e-9


def test_minimize_value_below_every_grid_sample():
    # every point of the full 65 x 128 grid over theta in [0, pi/2], of which
    # the search evaluates only the half with theta <= pi/4
    from qcorr.correlations import GRID_PHI, _basis_trig, _conditional_entropy_from_trig

    rng = np.random.default_rng(149)
    rho = random_density_matrix(rng)
    _, value = minimize_conditional_entropy(rho)
    full_theta = np.linspace(0.0, np.pi / 2.0, 65)
    grid_vals = _conditional_entropy_from_trig(rho.reshape(2, 2, 2, 2), *_basis_trig(full_theta, GRID_PHI))
    assert grid_vals.shape == (65, 128)
    assert value <= grid_vals.min() + 1e-15


def test_conditional_entropy_invariant_under_outcome_swap():
    # (pi/2 - theta, phi + pi) is the same measurement with its outcomes swapped
    rng = np.random.default_rng(197)
    for _ in range(200):
        rho = random_density_matrix(rng)
        theta, phi = rng.uniform(0.0, np.pi / 2.0), rng.uniform(0.0, 2.0 * np.pi)
        swapped = MeasurementBasis(np.pi / 2.0 - theta, (phi + np.pi) % (2.0 * np.pi))
        s = conditional_entropy(rho, MeasurementBasis(theta, phi))
        assert abs(conditional_entropy(rho, swapped) - s) <= 1e-14


def test_x_state_reduction_matches_explicit_sandwich():
    rng = np.random.default_rng(181)
    for _ in range(250):
        rho = random_x_state(rng)
        theta = rng.uniform(0.0, np.pi / 2.0)
        reduced = x_state_conditional_entropy(rho, np.array([theta]))[0]
        explicit = explicit_conditional_entropy(rho, theta, x_state_phase(rho))
        assert abs(reduced - explicit) <= 1e-12


def _interior_minimum_states():
    # states 7045 and 15981 of this stream have their minima inside (theta* ~ 0.561
    # and 0.282), below both theta = 0 (sigma_z) and theta = pi/4 (sigma_x)
    stream = np.random.default_rng(4242)
    drawn = [random_x_state(stream) for _ in range(15982)]
    return drawn[7045], drawn[15981]


def _x_states_for_discord():
    yield from _interior_minimum_states()
    rng = np.random.default_rng(191)
    for _ in range(100):
        yield random_x_state(rng)
    for _ in range(100):
        p = ModelParams(*rng.uniform(-3.0, 3.0, size=4))
        yield thermal_state(ThermalPoint(p, float(rng.uniform(0.05, 3.0))))
    bell = bell_initial_state()
    for _ in range(100):
        p = ModelParams(*rng.uniform(-3.0, 3.0, size=4))
        dp = DecoherenceParams(p, float(rng.uniform(0.0, 0.5)), float(rng.uniform(0.0, 10.0)))
        yield milburn_evolve(dp, bell)


def test_x_state_oracle_has_interior_minima():
    for rho, gap in zip(_interior_minimum_states(), (3e-6, 3e-5)):
        ends = x_state_conditional_entropy(rho, np.array([0.0, np.pi / 4.0]))
        assert x_state_min_conditional_entropy(rho) < ends.min() - gap


def test_minimize_matches_x_state_oracle():
    for rho in _x_states_for_discord():
        _, value = minimize_conditional_entropy(rho)
        oracle = x_state_min_conditional_entropy(rho)
        assert oracle - 1e-9 <= value <= oracle + 1e-12


def test_classical_correlation_trivial_states():
    mixed = np.eye(4, dtype=complex) / 4.0
    assert correlation_report(bell_initial_state()).classical_correlation == pytest.approx(1.0, abs=1e-9)
    assert correlation_report(mixed).classical_correlation == pytest.approx(0.0, abs=1e-9)
    rng = np.random.default_rng(151)
    rho = product_state(random_density_matrix(rng, 2), random_density_matrix(rng, 2))
    assert correlation_report(rho).classical_correlation == pytest.approx(0.0, abs=1e-9)


def test_quantum_discord_trivial_states():
    assert correlation_report(bell_initial_state()).quantum_discord == pytest.approx(1.0, abs=1e-9)
    rng = np.random.default_rng(157)
    rho = product_state(random_density_matrix(rng, 2), random_density_matrix(rng, 2))
    assert correlation_report(rho).quantum_discord == pytest.approx(0.0, abs=1e-9)


def test_quantum_discord_werner_vs_closed_form():
    exact = bell_diagonal_exact(0.5, 0.5, -0.5)  # Werner p=0.5 correlation vector
    rep = correlation_report(werner_state(0.5))
    assert rep.quantum_discord == pytest.approx(exact["QD"], abs=1e-6)


def test_quantum_discord_bell_diagonal_closed_form():
    rng = np.random.default_rng(163)
    for _ in range(60):
        rho, exact = random_bell_diagonal(rng)
        rep = correlation_report(rho)
        assert rep.quantum_discord == pytest.approx(exact["QD"], abs=1e-6)
        assert rep.classical_correlation == pytest.approx(exact["CC"], abs=1e-6)


def test_report_bell():
    rep = correlation_report(bell_initial_state())
    assert rep.concurrence == pytest.approx(1.0, abs=1e-9)
    assert rep.mutual_information == pytest.approx(2.0, abs=1e-9)
    assert rep.classical_correlation == pytest.approx(1.0, abs=1e-9)
    assert rep.quantum_discord == pytest.approx(1.0, abs=1e-9)
    for value in (rep.concurrence, rep.mutual_information, rep.classical_correlation, rep.quantum_discord):
        assert type(value) is float


def test_report_maximally_mixed_and_pure_product():
    for rho in (np.eye(4, dtype=complex) / 4.0,):
        rep = correlation_report(rho)
        for value in (rep.concurrence, rep.mutual_information, rep.classical_correlation, rep.quantum_discord):
            assert abs(value) <= 1e-9
    pure00 = np.zeros((4, 4), dtype=complex)
    pure00[0, 0] = 1.0
    rep = correlation_report(pure00)
    for value in (rep.concurrence, rep.mutual_information, rep.classical_correlation, rep.quantum_discord):
        assert abs(value) <= 1e-9


def test_report_additivity():
    # QD + CC = I holds exactly when one shared minimization is used
    rng = np.random.default_rng(167)
    for _ in range(50):
        rep = correlation_report(random_density_matrix(rng))
        total = rep.quantum_discord + rep.classical_correlation
        assert total == pytest.approx(rep.mutual_information, abs=1e-9)


def test_report_nonnegative_on_random_states():
    rng = np.random.default_rng(173)
    for _ in range(1000):
        rep = correlation_report(random_density_matrix(rng))
        assert rep.quantum_discord >= -1e-9
        assert rep.classical_correlation >= -1e-9
        assert rep.mutual_information >= -1e-9
        assert 0.0 <= rep.concurrence <= 1.0
        assert type(rep.concurrence) is float  # general spin-flip route


def test_report_additivity_on_model_states():
    # every state the model produces has S(rho_A) = S(rho_B)
    rng = np.random.default_rng(179)
    for _ in range(20):
        p = ModelParams(*rng.uniform(-1, 1, size=4))
        rho = thermal_state(ThermalPoint(p, float(rng.uniform(0.05, 2.0))))
        sa = von_neumann_entropy(partial_trace(rho, "A"))
        sb = von_neumann_entropy(partial_trace(rho, "B"))
        assert sa == pytest.approx(sb, abs=1e-10)
        rep = correlation_report(rho)
        assert rep.quantum_discord + rep.classical_correlation == pytest.approx(
            rep.mutual_information, abs=1e-9
        )
