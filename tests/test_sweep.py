import numpy as np
import pytest

from qcorr.errors import ConfigError, OutputError
from qcorr.model import ModelParams
from qcorr.sweep import (
    MAX_GRID_ROWS,
    PRESETS,
    AxisRange,
    SweepConfig,
    SweepRow,
    emit_csv,
    find_zero_runs,
    parse_range,
    run_sweep,
    staged_output,
)


def thermal_config(**overrides):
    base = dict(
        mode="thermal",
        params=ModelParams(0.2, 0.4, 0.8, 0.0),
        temperature_range=AxisRange(0.5, 0.5, 1.0),
        time_range=None,
        dz_range=None,
        gamma=0.0,
        output_path="out.csv",
    )
    base.update(overrides)
    return SweepConfig(**base)


def decoherence_config(**overrides):
    base = dict(
        mode="decoherence",
        params=ModelParams(0.03, 0.06, 0.0, 6.0),
        temperature_range=None,
        time_range=AxisRange(0.0, 0.5, 0.1),
        dz_range=None,
        gamma=0.01,
        output_path="out.csv",
    )
    base.update(overrides)
    return SweepConfig(**base)


def test_range_counts_match_preset_grid():
    assert parse_range("0.01:2:0.02", "t").count == 101
    assert parse_range("0:3:0.05", "dz").count == 61
    assert parse_range("0.1:2:0.1", "t").count == 20
    assert parse_range("1:1:0.5", "t").count == 1


def test_range_values_cover_stop():
    values = parse_range("0:1:0.1", "x").values()
    assert len(values) == 11
    assert values[0] == 0.0
    assert values[-1] == pytest.approx(1.0, abs=1e-12)


def test_range_rejects_empty_and_bad_step():
    with pytest.raises(ConfigError):
        parse_range("2:1:0.1", "t")
    with pytest.raises(ConfigError):
        parse_range("0:1:0", "t")
    with pytest.raises(ConfigError):
        parse_range("0:1", "t")
    with pytest.raises(ConfigError):
        parse_range("a:b:c", "t")


def test_fig1_preset_row_count():
    t = parse_range(PRESETS["fig1"]["t-range"], "t")
    dz = parse_range(PRESETS["fig1"]["dz-range"], "dz")
    assert t.count * dz.count == 6161


def test_config_rejects_unknown_mode():
    # run_sweep treats every mode but "thermal" as decoherence, so the config must gate it
    with pytest.raises(ConfigError, match="mode must be thermal or decoherence"):
        thermal_config(mode="thermal-ish")


def test_thermal_config_enforces_floor():
    with pytest.raises(ConfigError):
        thermal_config(temperature_range=AxisRange(0.001, 1.0, 0.1))


def test_thermal_sweep_ordering_and_invariants():
    cfg = thermal_config(
        temperature_range=AxisRange(0.2, 0.6, 0.2),
        dz_range=AxisRange(0.0, 1.0, 0.5),
    )
    rows = run_sweep(cfg)
    assert len(rows) == 9
    keys = [(r.dz, r.axis) for r in rows]
    assert keys == sorted(keys)
    for r in rows:
        assert r.quantum_discord + r.classical_correlation == pytest.approx(
            r.mutual_information, abs=1e-9
        )
        assert 0.0 <= r.concurrence <= 1.0
        assert r.quantum_discord >= -1e-9 and r.classical_correlation >= -1e-9


def test_thermal_sweep_deterministic():
    cfg = thermal_config(temperature_range=AxisRange(0.3, 0.7, 0.2))
    a = run_sweep(cfg)
    b = run_sweep(cfg)
    assert a == b


def test_thermal_sweep_infinite_temperature_point():
    cfg = thermal_config(temperature_range=AxisRange(1e6, 1e6, 1.0))
    (row,) = run_sweep(cfg)
    for value in (row.concurrence, row.classical_correlation, row.quantum_discord, row.mutual_information):
        assert abs(value) <= 1e-6


def test_thermal_sweep_concurrence_grows_with_dz():
    cfg = thermal_config(
        temperature_range=AxisRange(0.5, 0.5, 1.0),
        dz_range=AxisRange(0.0, 2.0, 1.0),  # dz in {0, 1, 2}
    )
    rows = run_sweep(cfg)
    cs = [r.concurrence for r in rows]
    assert cs[0] < cs[1] < cs[2]


def test_decoherence_sweep_t_zero_row():
    rows = run_sweep(decoherence_config(time_range=AxisRange(0.0, 0.0, 1.0)))
    (row,) = rows
    assert row.concurrence == pytest.approx(1.0, abs=1e-9)
    assert row.classical_correlation == pytest.approx(1.0, abs=1e-9)
    assert row.quantum_discord == pytest.approx(1.0, abs=1e-9)
    assert row.mutual_information == pytest.approx(2.0, abs=1e-9)
    assert row.closed_form_dev <= 1e-12


def test_decoherence_sweep_closed_form_column():
    rows = run_sweep(decoherence_config(time_range=AxisRange(0.0, 1.0, 0.25)))
    assert len(rows) == 5
    for r in rows:
        assert r.closed_form_dev <= 1e-12
        assert r.quantum_discord + r.classical_correlation == pytest.approx(
            r.mutual_information, abs=1e-9
        )


def test_decoherence_trace_dips_and_revives():
    # concurrence dips toward its floor (Jx+Jy)/mu near cos(mu t) = 0, then climbs back
    p = ModelParams(0.03, 0.06, 0.0, 6.0)
    mu = p.mu
    cfg = decoherence_config(params=p, time_range=AxisRange(0.0, 0.6, 0.002))
    rows = run_sweep(cfg)
    cs = np.array([r.concurrence for r in rows])
    floor = (p.jx + p.jy) / mu
    assert floor - 1e-12 <= cs.min() <= floor + 0.01
    assert cs.min() > 0.0  # exact sudden death never happens from the pure Bell pair
    dip = int(cs.argmin())
    assert cs[dip:].max() > 0.5  # revival after the dip


def test_decoherence_concurrence_floor_at_dip_time():
    from qcorr.correlations import concurrence_x_state
    from qcorr.model import DecoherenceParams, bell_initial_state, milburn_evolve

    p = ModelParams(0.03, 0.06, 0.0, 6.0)
    t_dip = float(np.pi / (2.0 * p.mu))  # cos(mu t) = 0 exactly
    rho = milburn_evolve(DecoherenceParams(p, 0.01, t_dip), bell_initial_state())
    floor = (p.jx + p.jy) / p.mu
    assert concurrence_x_state(rho) == pytest.approx(floor, abs=1e-10)


def test_emit_csv_header_only(tmp_path):
    path = tmp_path / "empty.csv"
    emit_csv([], str(path), "thermal")
    assert path.read_text() == "dz,T,C,CC,QD,I\n"


def test_emit_csv_single_row(tmp_path):
    path = tmp_path / "one.csv"
    row = SweepRow(dz=0.5, axis=1.0, concurrence=0.25, classical_correlation=0.1,
                   quantum_discord=0.15, mutual_information=0.25)
    emit_csv([row], str(path), "thermal")
    text = path.read_text()
    assert text == "dz,T,C,CC,QD,I\n0.5,1,0.25,0.1,0.15,0.25\n"


def test_emit_csv_significant_digits(tmp_path):
    path = tmp_path / "digits.csv"
    row = SweepRow(dz=1 / 3, axis=0.30000000000000004, concurrence=0.1234567890123456,
                   classical_correlation=0.0, quantum_discord=1e-15, mutual_information=2.0,
                   closed_form_dev=3.2e-16)
    emit_csv([row], str(path), "decoherence")
    line = path.read_text().splitlines()[1]
    assert line == "0.333333333333,0.3,0.123456789012,0,1e-15,2,3.2e-16"


def test_emit_csv_byte_identical(tmp_path):
    cfg = thermal_config(temperature_range=AxisRange(0.4, 0.8, 0.2))
    rows = run_sweep(cfg)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    emit_csv(rows, str(p1), "thermal")
    emit_csv(run_sweep(cfg), str(p2), "thermal")
    assert p1.read_bytes() == p2.read_bytes()


def test_emit_csv_io_error(tmp_path):
    with pytest.raises(OutputError):
        emit_csv([], str(tmp_path / "missing" / "deep" / "x.csv"), "thermal")


def _row(axis, c):
    return SweepRow(dz=0.0, axis=axis, concurrence=c, classical_correlation=0.0,
                    quantum_discord=0.0, mutual_information=0.0)


def test_find_zero_runs_detects_bounded_runs():
    rows = [_row(0.0, 1.0), _row(0.1, 0.0), _row(0.2, 0.0), _row(0.3, 0.5),
            _row(0.4, 0.0), _row(0.5, 0.2)]
    assert find_zero_runs(rows) == [(0.1, 0.2), (0.4, 0.4)]


def test_find_zero_runs_ignores_unbounded_runs():
    # leading zeros (no positive value before) and trailing zeros (no revival) don't count
    rows = [_row(0.0, 0.0), _row(0.1, 0.3), _row(0.2, 0.0), _row(0.3, 0.0)]
    assert find_zero_runs(rows) == []


def test_config_validation_messages():
    with pytest.raises(ConfigError):
        SweepConfig(mode="other", params=ModelParams(0, 0, 0, 0), temperature_range=None,
                    time_range=None, dz_range=None, gamma=0.0, output_path="x.csv")
    with pytest.raises(ConfigError):
        thermal_config(temperature_range=None)
    with pytest.raises(ConfigError):
        decoherence_config(time_range=AxisRange(-1.0, 1.0, 0.5))
    with pytest.raises(ConfigError):
        decoherence_config(gamma=-0.5)
    with pytest.raises(ConfigError):
        thermal_config(output_path="")


def test_config_rejects_grid_above_row_cap():
    # counted from the ranges alone; no grid array is built
    dz = AxisRange(0.0, 9.0, 1.0)  # 10 points
    at_cap = AxisRange(1.0, MAX_GRID_ROWS // 10, 1.0)
    thermal_config(temperature_range=at_cap, dz_range=dz)
    over = AxisRange(1.0, MAX_GRID_ROWS // 10 + 1, 1.0)
    with pytest.raises(ConfigError, match="exceeds the limit"):
        thermal_config(temperature_range=over, dz_range=dz)
    with pytest.raises(ConfigError, match="exceeds the limit"):
        decoherence_config(time_range=AxisRange(0.0, 1e9, 1e-3))


def test_range_rejects_infinite_point_count():
    with pytest.raises(ConfigError, match="too many points"):
        AxisRange(0.0, 1e300, 1e-300)


def test_staged_output_replaces_target_only_on_success(tmp_path):
    target = tmp_path / "out.csv"
    target.write_text("old\n")
    with pytest.raises(RuntimeError):
        with staged_output(str(target)) as tmp:
            emit_csv([], tmp, "thermal")
            raise RuntimeError("sweep failed")
    assert target.read_text() == "old\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.csv"]
    with staged_output(str(target)) as tmp:
        emit_csv([], tmp, "thermal")
    assert target.read_text() == "dz,T,C,CC,QD,I\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.csv"]


def test_staged_output_fails_before_yielding(tmp_path):
    for bad in (tmp_path / "missing" / "x.csv", tmp_path):
        with pytest.raises(OutputError):
            with staged_output(str(bad)):
                pytest.fail("the body must not run for an unwritable target")
