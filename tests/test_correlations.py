import math

import numpy as np
import pytest

from qcorr.correlations import (
    GRID_THETA,
    MeasurementBasis,
    _GRID,
    _GRID_ANGLES,
    _LUO_TOL,
    _OFF_X,
    _PLANE,
    _bloch_map,
    _bloch_vectors,
    _clipped,
    _concurrence,
    _conditional_entropy,
    _entropy_terms,
    _fold_phi,
    _minimize,
    _search,
    correlation_report,
)
from qcorr.cli import parse_config
from qcorr.linalg import validated_spectrum
from qcorr.model import (
    DecoherenceParams,
    ModelParams,
    ThermalPoint,
    bell_initial_state,
    milburn_evolve,
    thermal_state,
)
from qcorr.sweep import run_sweep

from oracles import (
    SY,
    bell_diagonal_exact,
    bell_diagonal_state,
    dense_grid_min_conditional_entropy,
    eigvalsh_entropy,
    explicit_conditional_entropy,
    gibbs_sudden_change_dz,
    random_bell_diagonal,
    random_density_matrix,
    random_rank2_x_state,
    random_unitary,
    random_x_state,
    reduced_state,
    spin_flip_concurrence,
    werner_state,
    x_state_concurrence,
    x_state_conditional_entropy,
    x_state_min_conditional_entropy,
    x_state_phase,
)


def product_state(rho_a, rho_b):
    return np.kron(rho_a, rho_b)


def state_concurrence(rho):
    """C as correlation_report computes it, without the discord search."""
    return _concurrence(*validated_spectrum(rho)[1:])


def minimize(rho):
    """(MeasurementBasis, S_min) of one state: the one row of the stacked ``_minimize``."""
    theta, phi, smin = _minimize(np.asarray(rho, dtype=complex)[None])
    return MeasurementBasis(float(theta[0]), float(phi[0])), float(smin[0])


def measured_entropy(rho, theta, phi):
    """The production evaluator at the Bloch vector of one basis."""
    return float(_conditional_entropy(_bloch_map(rho), _bloch_vectors(theta, phi)))


def test_spin_flip_matrix_is_sigma_y_squared():
    from qcorr.correlations import _Y4

    assert np.array_equal(_Y4, np.kron(SY, SY))


def test_concurrence_bell():
    assert state_concurrence(bell_initial_state()) == pytest.approx(1.0, abs=1e-12)


def test_concurrence_maximally_mixed():
    assert state_concurrence(np.eye(4, dtype=complex) / 4.0) == 0.0


def test_concurrence_werner_half():
    # Wootters eigenvalues of the Werner state give max(0, (3p-1)/2)
    assert state_concurrence(werner_state(0.5)) == pytest.approx(0.25, abs=1e-10)
    assert state_concurrence(werner_state(1.0 / 3.0)) == pytest.approx(0.0, abs=1e-10)
    assert state_concurrence(werner_state(0.9)) == pytest.approx(0.85, abs=1e-10)


def test_concurrence_local_unitary_invariance():
    rng = np.random.default_rng(101)
    for _ in range(200):
        rho = random_density_matrix(rng)
        u = np.kron(random_unitary(rng), random_unitary(rng))
        rotated = u @ rho @ u.conj().T
        rotated = 0.5 * (rotated + rotated.conj().T)
        assert state_concurrence(rotated) == pytest.approx(state_concurrence(rho), abs=1e-9)


def test_concurrence_x_state_bell():
    assert x_state_concurrence(bell_initial_state()) == pytest.approx(1.0, abs=1e-12)
    assert correlation_report(bell_initial_state()).concurrence == pytest.approx(1.0, abs=1e-12)


def test_concurrence_x_state_diagonal():
    rng = np.random.default_rng(109)
    for d in (np.full(4, 0.25), rng.dirichlet(np.ones(4))):
        rho = np.diag(d).astype(complex)
        assert x_state_concurrence(rho) == 0.0
        assert state_concurrence(rho) == 0.0
        assert correlation_report(rho).concurrence == 0.0


def test_concurrence_x_state_dephased_bell_limit():
    # population 1/2,1/2 with coherence (Jx+Jy)/(2 mu): concurrence (Jx+Jy)/mu
    p = ModelParams(3.0, 0.6, 0.0, 0.1)
    rho = np.zeros((4, 4), dtype=complex)
    rho[1, 1] = rho[2, 2] = 0.5
    rho[1, 2] = p.beta * (p.jx + p.jy) / (2.0 * p.mu**2)
    rho[2, 1] = rho[1, 2].conjugate()
    expected = 3.6 / np.sqrt(13.0)
    assert x_state_concurrence(rho) == pytest.approx(expected, abs=1e-12)
    assert state_concurrence(rho) == pytest.approx(expected, abs=1e-12)
    assert correlation_report(rho).concurrence == pytest.approx(expected, abs=1e-12)


def test_concurrence_x_state_matches_general_route():
    rng = np.random.default_rng(103)
    for _ in range(1000):
        rho = random_x_state(rng)
        assert state_concurrence(rho) == pytest.approx(x_state_concurrence(rho), abs=1e-12)
        assert state_concurrence(rho) == pytest.approx(spin_flip_concurrence(rho), abs=1e-10)


def test_concurrence_exact_on_rotated_rank2_x_states():
    # a local rotation keeps C but spills the X shape; the state's two zero
    # Wootters values are singular values here, never square-rooted round-off
    rng = np.random.default_rng(107)
    for i in range(200):
        rho = random_rank2_x_state(rng)
        u = np.kron(random_unitary(rng), random_unitary(rng))
        rotated = u @ rho @ u.conj().T
        rotated = 0.5 * (rotated + rotated.conj().T)
        expected = x_state_concurrence(rho)
        assert abs(state_concurrence(rotated) - expected) <= 1e-12
        if i % 4 == 0:
            assert abs(correlation_report(rotated).concurrence - expected) <= 1e-12


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
        theta, phi = rng.uniform(0, np.pi / 2), rng.uniform(0, 2 * np.pi)
        expected = eigvalsh_entropy(rho_a)
        assert measured_entropy(rho, theta, phi) == pytest.approx(expected, abs=1e-10)


def test_conditional_entropy_bell_any_basis():
    rng = np.random.default_rng(127)
    bell = bell_initial_state()
    for _ in range(20):
        theta, phi = rng.uniform(0, np.pi / 2), rng.uniform(0, 2 * np.pi)
        assert measured_entropy(bell, theta, phi) <= 1e-10


def test_conditional_entropy_maximally_mixed():
    assert measured_entropy(np.eye(4, dtype=complex) / 4.0, 0.3, 1.2) == pytest.approx(1.0, abs=1e-12)


def test_conditional_entropy_matches_explicit_sandwich():
    rng = np.random.default_rng(131)
    for _ in range(100):
        rho = random_density_matrix(rng)
        theta = rng.uniform(0, np.pi / 2)
        phi = rng.uniform(0, 2 * np.pi)
        fast = measured_entropy(rho, theta, phi)
        slow = explicit_conditional_entropy(rho, theta, phi)
        assert fast == pytest.approx(slow, abs=1e-11)


def test_x_route_ties_resolve_to_the_smallest_theta():
    # S is flat in theta within 2e-16 on this state, so theta = 0 is the tie choice
    assert correlation_report(werner_state(0.9)).argmin_basis == MeasurementBasis(0.0, 0.0)


def test_grid_route_ties_resolve_to_the_smallest_theta():
    # a local rotation of a Werner state is another Werner state, flat over the
    # whole sphere within round-off; a refined point a few ulps lower is no
    # reason to leave the first grid node
    rng, werner = np.random.default_rng(11), werner_state(0.9)
    for _ in range(30):
        u = np.kron(random_unitary(rng), random_unitary(rng))
        rotated = u @ werner @ u.conj().T
        rotated = 0.5 * (rotated + rotated.conj().T)
        assert correlation_report(rotated).argmin_basis == MeasurementBasis(0.0, 0.0)


def test_minimize_bell_flat_landscape():
    basis, value = minimize(bell_initial_state())
    assert value <= 1e-10
    assert basis.theta == 0.0 and basis.phi == 0.0  # tie-break at the first grid node


def test_minimize_product_state():
    rng = np.random.default_rng(137)
    rho_a = random_density_matrix(rng, 2)
    rho_b = random_density_matrix(rng, 2)
    _, value = minimize(product_state(rho_a, rho_b))
    assert value == pytest.approx(eigvalsh_entropy(rho_a), abs=1e-9)


def test_minimize_thermal_state_vs_dense_grid():
    rho = thermal_state(ThermalPoint(ModelParams(0.2, 0.4, 0.8, 1.0), 1.0))
    _, value = minimize(rho)
    dense = dense_grid_min_conditional_entropy(rho)
    assert value <= dense + 1e-5
    assert abs(value - x_state_min_conditional_entropy(rho)) <= 1e-12


def test_minimize_wraps_phi_through_zero():
    # the minimum sits just below phi = 0; a search bounded to [0, 2*pi]
    # stalls on the grid node (theta = pi/4, phi = 0), 3.4e-4 too high
    p = ModelParams(jx=-2.5167188125478512, jy=-0.7730850414054586,
                    jz=-0.577463163587999, dz=0.07816153067105258)
    rho = thermal_state(ThermalPoint(p, 1.0608))
    _, value = minimize(rho)
    assert value <= dense_grid_min_conditional_entropy(rho) + 1e-5
    assert abs(value - x_state_min_conditional_entropy(rho)) <= 1e-12


def test_minimize_dominates_random_bases():
    rng = np.random.default_rng(139)
    for _ in range(5):
        rho = random_density_matrix(rng)
        _, value = minimize(rho)
        for _ in range(100):
            theta, phi = rng.uniform(0, np.pi / 2), rng.uniform(0, 2 * np.pi)
            assert value <= measured_entropy(rho, theta, phi) + 1e-9


def test_minimize_value_below_every_grid_sample():
    # every point of the full 65 x 128 grid over theta in [0, pi/2], of which
    # the search evaluates only the half with theta <= pi/4
    from qcorr.correlations import GRID_PHI

    rng = np.random.default_rng(149)
    rho = random_density_matrix(rng)
    _, value = minimize(rho)
    full_theta = np.linspace(0.0, np.pi / 2.0, 65)
    grid_vals = _conditional_entropy(_bloch_map(rho), _bloch_vectors(full_theta[:, None], GRID_PHI))
    assert grid_vals.shape == (65, 128)
    assert value <= grid_vals.min() + 1e-15


def test_conditional_entropy_invariant_under_outcome_swap():
    # (pi/2 - theta, phi + pi) is the same measurement with its outcomes swapped
    rng = np.random.default_rng(197)
    for _ in range(200):
        rho = random_density_matrix(rng)
        theta, phi = rng.uniform(0.0, np.pi / 2.0), rng.uniform(0.0, 2.0 * np.pi)
        s = measured_entropy(rho, theta, phi)
        assert abs(measured_entropy(rho, np.pi / 2.0 - theta, (phi + np.pi) % (2.0 * np.pi)) - s) <= 1e-14


def test_x_state_reduction_matches_explicit_sandwich():
    rng = np.random.default_rng(181)
    for _ in range(250):
        rho = random_x_state(rng)
        theta = rng.uniform(0.0, np.pi / 2.0)
        reduced = x_state_conditional_entropy(rho, np.array([theta]))[0]
        explicit = explicit_conditional_entropy(rho, theta, x_state_phase(rho))
        assert abs(reduced - explicit) <= 1e-12
        # the production evaluator at phi*, where the theta line lies
        production = measured_entropy(rho, theta, _fold_phi(x_state_phase(rho)))
        assert abs(production - explicit) <= 1e-12


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
    for _ in range(100):
        yield random_rank2_x_state(rng)


def test_x_state_oracle_has_interior_minima():
    for rho, gap in zip(_interior_minimum_states(), (3e-6, 3e-5)):
        ends = x_state_conditional_entropy(rho, np.array([0.0, np.pi / 4.0]))
        assert x_state_min_conditional_entropy(rho) < ends.min() - gap


# a 17-point stencil along e_theta only, for the theta line
_LINE_STENCIL = np.stack((np.linspace(-2.0, 2.0, 17), np.zeros(17)), axis=1)


def line_search(rho):
    """(MeasurementBasis, S_min) of an X state from ``_search`` over the 33-point theta line at phi*.

    phi* is optimal for every theta of an X state (Chen et al., PRA 84,
    042313 (2011)), so the line search is a reference for the grid search
    that production runs.
    """
    phi = _fold_phi(x_state_phase(rho)) if abs(rho[0, 3]) + abs(rho[1, 2]) > 0.0 else 0.0
    line = np.stack(np.broadcast_arrays(GRID_THETA, phi), axis=1)
    return _search(_bloch_map(rho), _bloch_vectors(*line.T), line, _LINE_STENCIL)


def test_minimize_matches_x_state_oracle():
    for rho in _x_states_for_discord():
        basis, value = minimize(rho)
        oracle = x_state_min_conditional_entropy(rho)
        assert oracle - 1e-9 <= value <= oracle + 1e-12
        # the grid search loses nothing to the theta line at phi*
        _, line_value = line_search(rho)
        assert value <= line_value + 1e-14
        # the general evaluator at the returned basis, phi* included, agrees
        assert abs(measured_entropy(rho, basis.theta, basis.phi) - value) <= 1e-12


def test_grid_route_finds_minima_near_the_pole(monkeypatch):
    # Local unitaries leave S_min unchanged, so the X-state oracle of the
    # unrotated state is exact for the rotated, non-X one.  On these states
    # the minimum lies near the pole but several phi spacings from the coarse
    # argmin (state 1852: coarse argmin on theta = 0, minimum at
    # theta = 0.0094, phi = 0.33), which a stencil stepping in (theta, phi)
    # missed by up to 3.6e-6.
    calls = _search_calls(monkeypatch)
    states, rotations = np.random.default_rng(4242), np.random.default_rng(1)
    for i in range(1853):
        rho = random_x_state(states)
        u = np.kron(random_unitary(rotations), random_unitary(rotations))
        if i not in (729, 923, 1267, 1852):
            continue
        rotated = u @ rho @ u.conj().T
        rotated = 0.5 * (rotated + rotated.conj().T)
        searched = len(calls)
        basis, value = minimize(rotated)
        assert len(calls) == searched + 1
        oracle = x_state_min_conditional_entropy(rho)
        assert oracle - 1e-9 <= value <= oracle + 1e-12
        assert abs(measured_entropy(rotated, basis.theta, basis.phi) - value) <= 1e-12


def test_grid_search_equal_wells_resolve_to_the_smallest_theta(monkeypatch):
    # a synthetic landscape with equal wells on two coarse theta nodes, as
    # functions of n_z = cos 2theta, exactly 0 at both: the smaller theta wins,
    # at phi = 0, the first of the grid's tied phi
    import qcorr.correlations as corr

    node = corr.GRID_THETA
    shallow = float(node[8])
    wells = np.cos(2.0 * node[[8, 20]])

    def two_wells(g, n):
        return np.minimum((n[..., 2] - wells[0]) ** 2, (n[..., 2] - wells[1]) ** 2)

    # X-shaped with rho22 != rho33, so the grid search runs
    rho = np.diag([0.0, 0.6, 0.4, 0.0]).astype(complex)
    rho[1, 2] = rho[2, 1] = 0.45
    monkeypatch.setattr(corr, "_conditional_entropy", two_wells)
    basis, value = minimize(rho)
    assert (basis, value) == (MeasurementBasis(shallow, 0.0), 0.0)


def _search_calls(monkeypatch):
    """The list to which each later ``_search`` call appends its coarse set's and stencil's shapes."""
    import qcorr.correlations as corr

    calls = []
    search = corr._search

    def spy(g, vectors, angles, stencil):
        calls.append((vectors.shape, stencil.shape))
        return search(g, vectors, angles, stencil)

    monkeypatch.setattr(corr, "_search", spy)
    return calls


@pytest.mark.parametrize("spill, searched", [(1e-15, False), (1.01e-15, True), (0.99e-10, True)])
def test_luo_tol_gates_the_off_x_entries(monkeypatch, spill, searched):
    # a Bell-diagonal state has rho11 = rho44 and rho22 = rho33 exactly; an
    # entry off the X shape past _LUO_TOL, the exit's one tolerance, sends it
    # to the grid search
    from qcorr.correlations import _LUO_TOL

    rho = bell_diagonal_state(0.7, -0.3, 0.2)
    rho[0, 1] = spill
    rho[1, 0] = spill
    assert (spill > _LUO_TOL) == searched
    calls = _search_calls(monkeypatch)
    _, value = minimize(rho)
    assert calls == ([((4224, 3), (289, 2))] if searched else [])
    report = correlation_report(rho)
    assert value <= dense_grid_min_conditional_entropy(rho) + 1e-5
    assert report.classical_correlation == pytest.approx(
        eigvalsh_entropy(reduced_state(rho, "A")) - value, abs=1e-12)


def test_model_gibbs_states_take_the_luo_exit(monkeypatch):
    # every Gibbs state has rho11 = rho44 and rho22 = rho33 within round-off,
    # so two evaluations at phi* replace the search on every fig1 row
    calls = _search_calls(monkeypatch)
    table = run_sweep(parse_config(["thermal", "--preset", "fig1", "--out", "fig1.csv"]))
    assert len(table) == 6161
    rng = np.random.default_rng(211)
    for _ in range(200):
        p = ModelParams(*rng.uniform(-3.0, 3.0, size=4))
        correlation_report(thermal_state(ThermalPoint(p, float(rng.uniform(0.05, 3.0)))))
    assert calls == []


def test_asymmetric_x_states_reach_the_search(monkeypatch):
    calls = _search_calls(monkeypatch)
    rng = np.random.default_rng(223)
    states = [*_interior_minimum_states(), *(random_x_state(rng) for _ in range(100))]
    dp = DecoherenceParams(ModelParams(0.2, 0.4, 0.8, 1.0), 0.1, 1.0)
    states.append(milburn_evolve(dp, bell_initial_state()))  # rho22 != rho33
    for k in (0, 1):  # a Werner state just past the exit's 1e-15 on either pair
        rho = werner_state(0.5)
        rho[k, k] += 2e-15
        states.append(rho)
    for i, rho in enumerate(states):
        minimize(rho)
        assert len(calls) == i + 1


def _evaluation_calls(monkeypatch):
    """The list to which each later ``_conditional_entropy`` call appends the shape of its vectors."""
    import qcorr.correlations as corr

    calls = []
    evaluate = corr._conditional_entropy

    def spy(g, n):
        calls.append(n.shape)
        return evaluate(g, n)

    monkeypatch.setattr(corr, "_conditional_entropy", spy)
    return calls


def test_search_stops_once_the_minimum_is_zero(monkeypatch):
    # A dephased Bell pair at Dz != 0 and t > 0 has rho22 != rho33, so it is
    # searched; measuring sigma_z on B leaves A pure, so S = 0 at the pole,
    # the global minimum, and no refinement round can go strictly below it.
    # The clip of round-off in _entropy_terms can turn a true S of order
    # 1e-16 into this 0, which is inside every tolerance.
    calls = _evaluation_calls(monkeypatch)
    dp = DecoherenceParams(ModelParams(0.2, 0.4, 0.8, 1.0), 0.1, 1.0)
    assert minimize(milburn_evolve(dp, bell_initial_state())) == (MeasurementBasis(0.0, 0.0), 0.0)
    assert calls == [(4224, 3)]


def test_search_above_zero_runs_every_round(monkeypatch):
    # a rank-2 X state leaves A mixed after sigma_z on B, so S > 0 at the pole
    # and the refinement runs all 13 rounds, dt = pi/128 down to 1e-9
    rho = random_rank2_x_state(np.random.default_rng(229))
    assert measured_entropy(rho, 0.0, 0.0) > 1e-3
    calls = _evaluation_calls(monkeypatch)
    _, value = minimize(rho)
    assert calls == [(4224, 3)] + [(289, 3)] * 13
    oracle = x_state_min_conditional_entropy(rho)
    assert oracle - 1e-9 <= value <= oracle + 1e-12


def _symmetric_x_states(rng, count):
    """X states with rho11 = rho44 and rho22 = rho33 up to the largest asymmetry the exit takes.

    Every fourth one is near-pure: one pair of populations close to 1/2 and
    its coherence close to the largest a state allows.
    """
    from qcorr.correlations import _LUO_TOL

    for i in range(count):
        # rho11 = rho44 = a, and |rho14|, |rho23| as shares r of their largest values
        a, r = 0.5 * rng.random(), rng.random(2)
        if i % 4 == 0:
            a, r[0] = 0.5 - 10.0 ** -rng.uniform(3.0, 12.0), 1.0 - 10.0 ** -rng.uniform(6.0, 14.0)
            if i % 8 == 0:  # near-pure on the other pair
                a, r = 0.5 - a, r[::-1]
        b = 0.5 - a
        rho = np.diag([a, b, b, a]).astype(complex)
        rho[0, 3] = r[0] * a * np.exp(2j * np.pi * rng.random())
        rho[1, 2] = r[1] * b * np.exp(2j * np.pi * rng.random())
        rho[3, 0], rho[2, 1] = rho[0, 3].conjugate(), rho[1, 2].conjugate()
        for k in (0, 1):
            shifted = rho[k, k].real + rng.choice([-1.0, 0.0, 1.0]) * _LUO_TOL
            if abs(shifted - rho[3 - k, 3 - k].real) > _LUO_TOL:  # round-off past the tolerance
                shifted = np.nextafter(shifted, rho[3 - k, 3 - k].real)
            rho[k, k] = shifted
        yield rho


def test_luo_exit_stays_within_round_off_of_the_search(monkeypatch):
    # A diagonal asymmetry of 1e-15 moves every measured conditional entropy by
    # at most about 5e-14 (the Alicki-Fannes-Winter bound), so the exit may
    # exceed the true minimum by about twice that, and never falls below it.
    # The lower bound is the theta line: the grid search reads 1 ulp above
    # the exit on one of these states.
    calls = _search_calls(monkeypatch)
    for rho in _symmetric_x_states(np.random.default_rng(227), 400):
        _, exit_value = minimize(rho)
        assert calls == []
        _, line_value = line_search(rho)
        _, grid_value = _search(_bloch_map(rho), _GRID, _GRID_ANGLES, _PLANE)
        assert line_value <= exit_value <= min(line_value, grid_value) + 1e-13


@pytest.mark.parametrize("largest, searched", [(0.99e-10, True), (1e-15, False)])
def test_off_x_perturbation_of_symmetric_x_states(monkeypatch, largest, searched):
    # The exit's continuity argument covers entries off the X shape only up
    # to _LUO_TOL: with entries of 0.99e-10 the exit exceeded the grid search
    # on these states by up to 2.4e-10, so such states are searched.  At
    # 1e-15 they take the exit, within 8.7e-15 of the grid search.
    calls = _search_calls(monkeypatch)
    rng = np.random.default_rng(239)
    kept = 0
    for rho in _symmetric_x_states(np.random.default_rng(227), 400):
        e = np.where(_OFF_X, rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)), 0.0)
        e = e + e.conj().T
        rho = rho + e * (largest * (1.0 - 1e-12) / np.abs(e).max())  # the largest entry, not past it
        if np.linalg.eigvalsh(rho).min() < 0.0:
            continue
        kept += 1
        _, value = minimize(rho)
        _, grid_value = _search(_bloch_map(rho), _GRID, _GRID_ANGLES, _PLANE)
        assert value <= grid_value + (0.0 if searched else 1e-13)
        assert len(calls) == (kept if searched else 0)
    assert kept >= 350


def _stack_of_every_kind():
    """Seven kinds of state, interleaved, six of each, as one (42, 4, 4) stack.

    Row k is a Gibbs state (k % 7 == 0), the dephased Bell pair at t = 0 (1)
    and at t > 0 (2), a random state (3), a locally rotated X state (4), a
    Werner state (5) and a symmetric X state whose largest off-X entry is
    1.01e-15 (6), just past the Luo gate.
    """
    rng, bell = np.random.default_rng(241), bell_initial_state()
    symmetric = _symmetric_x_states(np.random.default_rng(227), 6)
    states = []
    for _ in range(6):
        p = ModelParams(*rng.uniform(-3.0, 3.0, size=4))
        u = np.kron(random_unitary(rng), random_unitary(rng))
        rotated = u @ random_x_state(rng) @ u.conj().T
        e = np.where(_OFF_X, rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)), 0.0)
        e = e + e.conj().T
        states += [
            thermal_state(ThermalPoint(p, float(rng.uniform(0.05, 3.0)))),
            milburn_evolve(DecoherenceParams(p, 0.1, 0.0), bell),
            milburn_evolve(DecoherenceParams(p, 0.1, float(rng.uniform(0.5, 10.0))), bell),
            random_density_matrix(rng),
            0.5 * (rotated + rotated.conj().T),
            werner_state(float(rng.uniform())),
            next(symmetric) + e * (1.01e-15 / np.abs(e).max()),
        ]
    return np.array(states)


def test_stacked_minimize_matches_one_row_calls_bitwise():
    stack = _stack_of_every_kind()
    stacked = np.stack(_minimize(stack), axis=1)
    for k in range(len(stack)):
        assert np.concatenate(_minimize(stack[k:k + 1])).tobytes() == stacked[k].tobytes()


def test_stacked_minimize_searches_each_other_row_once_in_row_order(monkeypatch):
    import qcorr.correlations as corr

    stack = _stack_of_every_kind()
    # the Luo gate entry by entry, as the module docstring states it
    luo = [abs(r[0, 0] - r[3, 3]) <= _LUO_TOL and abs(r[1, 1] - r[2, 2]) <= _LUO_TOL
           and np.abs(r[_OFF_X]).max() <= _LUO_TOL for r in stack]
    # the stack mixes both routes; only a dephased pair at t > 0 may go either way
    assert [luo[k] for k in range(len(stack)) if k % 7 != 2] == [
        k % 7 in (0, 1, 5) for k in range(len(stack)) if k % 7 != 2]
    maps, searched, search = _bloch_map(stack), [], corr._search

    def spy(g, *args):
        searched.append(next(k for k in range(len(maps)) if np.array_equal(maps[k], g)))
        return search(g, *args)

    monkeypatch.setattr(corr, "_search", spy)
    _minimize(stack)
    assert searched == [k for k in range(len(stack)) if not luo[k]]


def test_luo_exit_reports_the_axis_of_the_largest_correlation():
    # a Werner state is flat over the sphere, and ties within 1e-12 go to (0, 0)
    for p in (0.0, 0.3, 0.5, 0.9, 1.0):
        assert minimize(werner_state(p))[0] == MeasurementBasis(0.0, 0.0)
    # |c1| is largest, so sigma_x is optimal; a z phase alpha on qubit B turns
    # it to phi* = alpha, and one on qubit A changes nothing
    c = (0.7, -0.3, 0.2)
    smin = bell_diagonal_exact(*c)["smin"]
    for alpha in (0.3, 1.0, 2.5, 5.5):
        u = np.kron(np.diag([1.0, np.exp(0.4j)]), np.diag([1.0, np.exp(1j * alpha)]))
        basis, value = minimize(u @ bell_diagonal_state(*c) @ u.conj().T)
        assert basis.theta == np.pi / 4.0
        assert basis.phi == pytest.approx(alpha, abs=1e-12)
        assert value == pytest.approx(smin, abs=1e-12)


def _gibbs_luo_margin(params, temperature):
    """(Gibbs state, S(0) - S(pi/4) at phi*) from the X-state oracle."""
    rho = thermal_state(ThermalPoint(params, temperature))
    s0, s1 = x_state_conditional_entropy(rho, np.array([0.0, np.pi / 4.0]))
    return rho, s0 - s1


def _assert_sudden_change(jx, jy, jz, temperature, margin_floor=None):
    """Production reports sigma_z just below Dz* and sigma_x at phi* just above; False if skipped.

    With margin_floor set, a state whose Luo margin lies within it of 0 on
    either side is skipped, because the tie rule reports it at (0, 0).
    """
    dz_star = gibbs_sudden_change_dz(ModelParams(jx, jy, jz, 0.0))
    below, margin_below = _gibbs_luo_margin(ModelParams(jx, jy, jz, dz_star * (1.0 - 1e-3)), temperature)
    above, margin_above = _gibbs_luo_margin(ModelParams(jx, jy, jz, dz_star * (1.0 + 1e-3)), temperature)
    if margin_floor is not None and min(-margin_below, margin_above) <= margin_floor:
        return False
    assert minimize(below)[0] == MeasurementBasis(0.0, 0.0)
    assert minimize(above)[0] == MeasurementBasis(np.pi / 4.0, _fold_phi(x_state_phase(above)))
    return True


def test_gibbs_basis_switches_at_the_sudden_change_dz():
    # the level crossing max(w1, w2) = w4 puts the switch at one Dz for every T
    assert gibbs_sudden_change_dz(ModelParams(0.2, 0.4, 0.8, 0.0)) == pytest.approx(math.sqrt(0.4), abs=1e-15)
    for temperature in (0.1, 0.3, 0.5, 1.0, 1.5, 2.0):
        assert _assert_sudden_change(0.2, 0.4, 0.8, temperature)
    # random couplings in the regime, wherever the margin clears the tie rule
    rng = np.random.default_rng(233)
    checked = 0
    for _ in range(300):
        jx, jy, jz = rng.uniform(-3.0, 3.0, size=3)
        if 2.0 * jz - abs(jx - jy) > abs(jx + jy):
            checked += _assert_sudden_change(jx, jy, jz, float(rng.choice([0.3, 1.0, 2.0])), 1e-12)
    assert checked >= 50


def test_classical_correlation_trivial_states():
    mixed = np.eye(4, dtype=complex) / 4.0
    assert correlation_report(bell_initial_state()).classical_correlation == pytest.approx(1.0, abs=1e-9)
    assert correlation_report(mixed).classical_correlation == pytest.approx(0.0, abs=1e-9)
    rng = np.random.default_rng(151)
    rho = product_state(random_density_matrix(rng, 2), random_density_matrix(rng, 2))
    assert correlation_report(rho).classical_correlation == pytest.approx(0.0, abs=1e-9)


def test_maximally_mixed_state_has_no_correlation():
    # the landscape is flat; a 1-ulp dip of the search may not make QD negative
    rep = correlation_report(np.eye(4, dtype=complex) / 4.0)
    assert rep.classical_correlation == 0.0
    assert rep.quantum_discord == 0.0


def test_quantum_discord_trivial_states():
    assert correlation_report(bell_initial_state()).quantum_discord == pytest.approx(1.0, abs=1e-9)
    rng = np.random.default_rng(157)
    rho = product_state(random_density_matrix(rng, 2), random_density_matrix(rng, 2))
    assert correlation_report(rho).quantum_discord == pytest.approx(0.0, abs=1e-9)


def test_quantum_discord_werner_vs_closed_form():
    exact = bell_diagonal_exact(0.5, 0.5, -0.5)  # Werner p=0.5 correlation vector
    rep = correlation_report(werner_state(0.5))
    assert rep.quantum_discord == pytest.approx(exact["QD"], abs=1e-12)


def test_quantum_discord_bell_diagonal_closed_form():
    rng = np.random.default_rng(163)
    for _ in range(60):
        rho, exact = random_bell_diagonal(rng)
        rep = correlation_report(rho)
        assert rep.quantum_discord == pytest.approx(exact["QD"], abs=1e-12)
        assert rep.classical_correlation == pytest.approx(exact["CC"], abs=1e-12)


def test_report_bell():
    rep = correlation_report(bell_initial_state())
    assert rep.concurrence == pytest.approx(1.0, abs=1e-9)
    assert rep.mutual_information == pytest.approx(2.0, abs=1e-9)
    assert rep.classical_correlation == pytest.approx(1.0, abs=1e-9)
    assert rep.quantum_discord == pytest.approx(1.0, abs=1e-9)
    for value in (rep.concurrence, rep.mutual_information, rep.classical_correlation, rep.quantum_discord):
        assert type(value) is float
    # the argmin angles are plain floats at a tied coarse node and at a refined point
    for rho in (werner_state(0.9), random_density_matrix(np.random.default_rng(199))):
        b = correlation_report(rho).argmin_basis
        assert type(b.theta) is float and type(b.phi) is float


def test_clipped_floats_with_builtins_match_the_array_form_bitwise():
    # correlation_report clips floats with max and min, correlation_columns arrays with
    # np.maximum and np.minimum: each clip active and inactive, ties and signed zeros
    rng = np.random.default_rng(211)
    cases = [(0.5, 0.5, 1.0 + 2e-16, 0.2), (0.5, 0.5, 0.4, 0.6), (0.5, 0.5, 0.4, 0.3),
             (0.5, 0.5, 0.9, 0.0), (0.3, 0.3, 0.6, 0.3), (0.0, 0.0, 0.0, 0.0), (-0.0, 0.0, 0.0, -0.0),
             (0.0, -0.0, 0.0, 0.0), (1e-17, 0.0, 1e-17, 2e-17)]
    cases += [tuple(rng.uniform(-1e-15, 2.0, 4).tolist()) for _ in range(200)]
    arrays = _clipped(*np.array(cases).T)
    for k, case in enumerate(cases):
        floats = _clipped(*case, max, min)
        assert all(type(x) is float for x in floats)
        assert np.array(floats).tobytes() == np.array([a[k] for a in arrays]).tobytes()


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
        assert rep.quantum_discord >= 0.0
        assert rep.classical_correlation >= 0.0
        assert rep.mutual_information >= 0.0
        assert 0.0 <= rep.concurrence <= 1.0
        assert type(rep.concurrence) is float


def test_report_additivity_on_model_states():
    # every state the model produces has S(rho_A) = S(rho_B)
    rng = np.random.default_rng(179)
    for _ in range(20):
        p = ModelParams(*rng.uniform(-1, 1, size=4))
        rho = thermal_state(ThermalPoint(p, float(rng.uniform(0.05, 2.0))))
        sa = eigvalsh_entropy(reduced_state(rho, "A"))
        sb = eigvalsh_entropy(reduced_state(rho, "B"))
        assert sa == pytest.approx(sb, abs=1e-10)
        rep = correlation_report(rho)
        assert rep.quantum_discord + rep.classical_correlation == pytest.approx(
            rep.mutual_information, abs=1e-9
        )


def test_entropy_terms_count_every_eigenvalue_and_every_outcome():
    # p S(block / p) has no floor: an eigenvalue of 1e-13 p adds its full
    # -l log2(l / p), about 4.3e-12 p, and so does an outcome of probability 1e-12
    for p in (1.0, 0.37):
        small, large = 1e-13 * p, (1.0 - 1e-13) * p
        q = small + large
        exact = -small * math.log2(small / q) - large * math.log1p(-small / q) / math.log(2.0)
        got = float(_entropy_terms(np.array(large), np.array(small), np.array(0.0)))
        assert got == pytest.approx(exact, rel=0.0, abs=1e-14)
    p = 1e-12
    exact = -p * (0.3 * math.log2(0.3) + 0.7 * math.log2(0.7))
    got = float(_entropy_terms(np.array(0.3 * p), np.array(0.7 * p), np.array(0.0)))
    assert got == pytest.approx(exact, rel=1e-9)


def test_report_mutual_information_matches_eigvalsh_entropies():
    # the reduced-state entropies come from the 2x2 kernel, S_AB from the
    # validated spectrum; the oracle takes each one from eigvalsh again
    rng = np.random.default_rng(181)
    for _ in range(1000):
        rho = random_density_matrix(rng)
        sa = eigvalsh_entropy(reduced_state(rho, "A"))
        sb = eigvalsh_entropy(reduced_state(rho, "B"))
        expected = sa + sb - eigvalsh_entropy(rho)
        assert correlation_report(rho).mutual_information == pytest.approx(expected, rel=0.0, abs=1e-12)
