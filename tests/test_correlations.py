import numpy as np
import pytest

from qcorr.correlations import (
    MeasurementBasis,
    classical_correlation,
    concurrence,
    concurrence_x_state,
    conditional_entropy,
    correlation_report,
    measurement_projectors,
    minimize_conditional_entropy,
    mutual_information,
    quantum_discord,
)
from qcorr.linalg import partial_trace, von_neumann_entropy
from qcorr.model import ModelParams, ThermalPoint, bell_initial_state, thermal_state

from oracles import (
    bell_diagonal_exact,
    dense_grid_min_conditional_entropy,
    explicit_conditional_entropy,
    random_bell_diagonal,
    random_density_matrix,
    random_unitary,
    random_x_state,
    werner_state,
)


def product_state(rho_a, rho_b):
    return np.kron(rho_a, rho_b)


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
    assert mutual_information(np.eye(4, dtype=complex) / 4.0) == pytest.approx(0.0, abs=1e-12)
    assert mutual_information(bell_initial_state()) == pytest.approx(2.0, abs=1e-12)
    pure00 = np.zeros((4, 4), dtype=complex)
    pure00[0, 0] = 1.0
    assert mutual_information(pure00) == pytest.approx(0.0, abs=1e-12)


def test_projectors_theta_zero():
    b0, b1 = measurement_projectors(MeasurementBasis(0.0, 0.0))
    assert np.abs(b0 - np.diag([1.0, 0.0])).max() <= 1e-14
    assert np.abs(b1 - np.diag([0.0, 1.0])).max() <= 1e-14


def test_projectors_hadamard_case():
    b0, _ = measurement_projectors(MeasurementBasis(np.pi / 4.0, 0.0))
    assert np.abs(b0 - 0.5 * np.ones((2, 2))).max() <= 1e-14


def test_projectors_complete_orthogonal_idempotent():
    rng = np.random.default_rng(109)
    for _ in range(100):
        basis = MeasurementBasis(rng.uniform(0, np.pi / 2), rng.uniform(0, 2 * np.pi))
        b0, b1 = measurement_projectors(basis)
        assert np.abs(b0 + b1 - np.eye(2)).max() <= 1e-14
        assert np.abs(b0 @ b1).max() <= 1e-14
        for b in (b0, b1):
            assert np.abs(b @ b - b).max() <= 1e-14
            assert np.linalg.matrix_rank(b, tol=1e-10) == 1


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
    from qcorr.correlations import _GRID_P, _GRID_T, _conditional_entropy_batch

    rng = np.random.default_rng(149)
    rho = random_density_matrix(rng)
    _, value = minimize_conditional_entropy(rho)
    grid_vals = _conditional_entropy_batch(rho.reshape(2, 2, 2, 2), _GRID_T, _GRID_P)
    assert value <= grid_vals.min() + 1e-15


def test_classical_correlation_trivial_states():
    assert classical_correlation(bell_initial_state()) == pytest.approx(1.0, abs=1e-9)
    assert classical_correlation(np.eye(4, dtype=complex) / 4.0) == pytest.approx(0.0, abs=1e-9)
    rng = np.random.default_rng(151)
    rho = product_state(random_density_matrix(rng, 2), random_density_matrix(rng, 2))
    assert classical_correlation(rho) == pytest.approx(0.0, abs=1e-9)


def test_quantum_discord_trivial_states():
    assert quantum_discord(bell_initial_state()) == pytest.approx(1.0, abs=1e-9)
    rng = np.random.default_rng(157)
    rho = product_state(random_density_matrix(rng, 2), random_density_matrix(rng, 2))
    assert quantum_discord(rho) == pytest.approx(0.0, abs=1e-9)


def test_quantum_discord_werner_vs_closed_form():
    exact = bell_diagonal_exact(0.5, 0.5, -0.5)  # Werner p=0.5 correlation vector
    assert quantum_discord(werner_state(0.5)) == pytest.approx(exact["QD"], abs=1e-6)


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
