from dataclasses import replace

import numpy as np
import pytest

import qcorr.sweep
from qcorr.correlations import correlation_columns, correlation_report
from qcorr.errors import ConfigError, OutputError
from qcorr.cli import parse_config
from qcorr.model import (
    DecoherenceParams,
    ModelParams,
    ThermalPoint,
    bell_initial_state,
    milburn_closed_form,
    milburn_evolve,
    thermal_state,
)
from qcorr.sweep import (
    MAX_GRID_ROWS,
    PRESETS,
    AxisRange,
    SweepConfig,
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
        axis=AxisRange(0.5, 0.5, 1.0),
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
        axis=AxisRange(0.0, 0.5, 0.1),
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
        thermal_config(axis=AxisRange(0.001, 1.0, 0.1))


def test_thermal_sweep_ordering_and_invariants():
    cfg = thermal_config(
        axis=AxisRange(0.2, 0.6, 0.2),
        dz_range=AxisRange(0.0, 1.0, 0.5),
    )
    rows = run_sweep(cfg)
    assert len(rows) == 9
    keys = rows[:, :2].tolist()
    assert keys == sorted(keys)
    for _, _, c, cc, qd, info in rows:
        assert qd + cc == pytest.approx(info, abs=1e-9)
        assert 0.0 <= c <= 1.0
        assert qd >= -1e-9 and cc >= -1e-9


def test_thermal_sweep_deterministic():
    cfg = thermal_config(axis=AxisRange(0.3, 0.7, 0.2))
    a = run_sweep(cfg)
    b = run_sweep(cfg)
    assert np.array_equal(a, b)


def test_thermal_sweep_infinite_temperature_point():
    cfg = thermal_config(axis=AxisRange(1e6, 1e6, 1.0))
    (row,) = run_sweep(cfg)
    for value in row[2:6]:
        assert abs(value) <= 1e-6


def test_thermal_sweep_concurrence_grows_with_dz():
    cfg = thermal_config(
        axis=AxisRange(0.5, 0.5, 1.0),
        dz_range=AxisRange(0.0, 2.0, 1.0),  # dz in {0, 1, 2}
    )
    rows = run_sweep(cfg)
    cs = rows[:, 2]
    assert cs[0] < cs[1] < cs[2]


def test_decoherence_sweep_t_zero_row():
    rows = run_sweep(decoherence_config(axis=AxisRange(0.0, 0.0, 1.0)))
    (row,) = rows
    _, _, c, cc, qd, info, closed_form_dev = row
    assert c == pytest.approx(1.0, abs=1e-9)
    assert cc == pytest.approx(1.0, abs=1e-9)
    assert qd == pytest.approx(1.0, abs=1e-9)
    assert info == pytest.approx(2.0, abs=1e-9)
    assert closed_form_dev <= 1e-12


def test_decoherence_sweep_closed_form_column():
    rows = run_sweep(decoherence_config(axis=AxisRange(0.0, 1.0, 0.25)))
    assert len(rows) == 5
    for _, _, _, cc, qd, info, closed_form_dev in rows:
        assert closed_form_dev <= 1e-12
        assert qd + cc == pytest.approx(info, abs=1e-9)


def test_decoherence_trace_dips_and_revives():
    # concurrence dips toward its floor (Jx+Jy)/mu near cos(mu t) = 0, then climbs back
    p = ModelParams(0.03, 0.06, 0.0, 6.0)
    mu = p.mu
    cfg = decoherence_config(params=p, axis=AxisRange(0.0, 0.6, 0.002))
    rows = run_sweep(cfg)
    cs = rows[:, 2]
    floor = (p.jx + p.jy) / mu
    assert floor - 1e-12 <= cs.min() <= floor + 0.01
    assert cs.min() > 0.0  # exact sudden death never happens from the pure Bell pair
    dip = int(cs.argmin())
    assert cs[dip:].max() > 0.5  # revival after the dip


def test_decoherence_concurrence_floor_at_dip_time():
    from qcorr.model import DecoherenceParams, bell_initial_state, milburn_evolve

    p = ModelParams(0.03, 0.06, 0.0, 6.0)
    t_dip = float(np.pi / (2.0 * p.mu))  # cos(mu t) = 0 exactly
    rho = milburn_evolve(DecoherenceParams(p, 0.01, t_dip), bell_initial_state())
    floor = (p.jx + p.jy) / p.mu
    assert correlation_report(rho).concurrence == pytest.approx(floor, abs=1e-10)


@pytest.mark.parametrize("field, value, text", [
    ("concurrence", float("nan"), "non-finite sweep row"),
    ("quantum_discord", -1e-6, "negative correlation value in sweep row"),
], ids=["nan", "negative"])
def test_run_sweep_names_the_first_bad_row(monkeypatch, field, value, text):
    monkeypatch.setattr(qcorr.sweep, "correlation_columns",
                        lambda states: correlation_columns(states)._replace(**{field: np.full(len(states), value)}))
    cfg = thermal_config(axis=AxisRange(0.5, 1.0, 0.5))  # both rows are bad
    rep = replace(correlation_report(thermal_state(ThermalPoint(cfg.params, 0.5))), **{field: value})
    first = (0.0, 0.5, rep.concurrence, rep.classical_correlation, rep.quantum_discord,
             rep.mutual_information)
    with pytest.raises(ValueError) as info:
        run_sweep(cfg)
    assert str(info.value) == f"{text}: {first}"


def _report_rows(cfg):
    """The rows of ``run_sweep(cfg)`` built point by point, each from its own ``correlation_report``."""
    rows = []
    for dz in cfg.dz_range.values() if cfg.dz_range is not None else [cfg.params.dz]:
        params = replace(cfg.params, dz=float(dz))
        for x in cfg.axis.values():
            if cfg.mode == "thermal":
                rho, dev = thermal_state(ThermalPoint(params, float(x))), ()
            else:
                dp = DecoherenceParams(params, cfg.gamma, float(x))
                rho = milburn_evolve(dp, bell_initial_state())
                dev = (np.abs(rho - milburn_closed_form(dp)).max(),)
            rep = correlation_report(rho)
            rows.append((dz, x, rep.concurrence, rep.classical_correlation, rep.quantum_discord,
                         rep.mutual_information, *dev))
    return np.array(rows)


def test_thermal_sweep_rows_equal_the_library_route():
    # one discord call per Dz block gives what one call per point gives: fig1's
    # full T axis at Dz = 0, 0.60, 0.65 and 3, two of them either side of the
    # sudden change at Dz* = sqrt(0.4)
    cfg = parse_config(["thermal", "--preset", "fig1", "--out", "fig1.csv"])
    dzs = cfg.dz_range.values()[[0, 12, 13, 60]]
    assert dzs[1] < np.sqrt(0.4) < dzs[2]
    for dz in dzs:
        block = replace(cfg, dz_range=AxisRange(dz, dz, 1.0))
        table = run_sweep(block)
        assert table.shape == (101, 6)
        assert np.array_equal(table, _report_rows(block))


@pytest.mark.parametrize("preset", ["fig2-lower", "fig2-upper"])
def test_decoherence_sweep_rows_equal_the_library_route(preset):
    # the first 50 rows hold t = 0, where the Bell pair takes the Luo exit,
    # and rows that are searched, so the block mixes both routes
    cfg = parse_config(["decohere", "--preset", preset, "--out", "fig2.csv"])
    ts = cfg.axis.values()
    for first, last in ((0, 49), (-50, -1)):
        block = replace(cfg, axis=AxisRange(ts[first], ts[last], cfg.axis.step))
        table = run_sweep(block)
        assert table.shape == (50, 7)
        assert np.array_equal(table, _report_rows(block))


def test_emit_csv_header_only(tmp_path):
    path = tmp_path / "empty.csv"
    emit_csv([], str(path), "thermal")
    assert path.read_text() == "dz,T,C,CC,QD,I\n"


def test_emit_csv_single_row(tmp_path):
    path = tmp_path / "one.csv"
    row = [0.5, 1.0, 0.25, 0.1, 0.15, 0.25]  # dz, T, C, CC, QD, I
    emit_csv(np.array([row]), str(path), "thermal")
    text = path.read_text()
    assert text == "dz,T,C,CC,QD,I\n0.5,1,0.25,0.1,0.15,0.25\n"


def test_emit_csv_significant_digits(tmp_path):
    path = tmp_path / "digits.csv"
    row = [1 / 3, 0.30000000000000004, 0.1234567890123456, 0.0, 1e-15, 2.0, 3.2e-16]
    emit_csv(np.array([row]), str(path), "decoherence")
    line = path.read_text().splitlines()[1]
    assert line == "0.333333333333,0.3,0.123456789012,0,1e-15,2,3.2e-16"


def test_emit_csv_byte_identical(tmp_path):
    cfg = thermal_config(axis=AxisRange(0.4, 0.8, 0.2))
    rows = run_sweep(cfg)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    emit_csv(rows, str(p1), "thermal")
    emit_csv(run_sweep(cfg), str(p2), "thermal")
    assert p1.read_bytes() == p2.read_bytes()


def test_emit_csv_row_template_gives_the_format_join_text(tmp_path):
    # emit_csv formats each row with one "%.12g,..." template; its text must
    # be that of ",".join(format(x, ".12g") ...) on preset tables and on the
    # edge values, each value in every column
    edge = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, 1e16, 1e-300])
    cases = []
    for name in ("fig1", "fig2-upper"):
        mode = PRESETS[name]["mode"]
        cfg = parse_config(["thermal" if mode == "thermal" else "decohere", "--preset", name, "--out", "x.csv"])
        table = run_sweep(cfg)
        width = table.shape[1]
        cases += [(mode, table), (mode, np.array([np.roll(edge, k)[:width] for k in range(len(edge))]))]
    for mode, table in cases:
        path = tmp_path / "t.csv"
        emit_csv(table, str(path), mode)
        header = qcorr.sweep.THERMAL_HEADER if mode == "thermal" else qcorr.sweep.DECOHERENCE_HEADER
        lines = [header] + [",".join(format(x, ".12g") for x in row) for row in table.tolist()]
        assert path.read_bytes() == ("\n".join(lines) + "\n").encode()


def test_emit_csv_io_error(tmp_path):
    with pytest.raises(OutputError):
        emit_csv([], str(tmp_path / "missing" / "deep" / "x.csv"), "thermal")


def _rows(*points, dz=0.0):
    # (axis, C) pairs -> table rows with the other measures 0
    return np.array([[dz, axis, c, 0.0, 0.0, 0.0] for axis, c in points])


def test_find_zero_runs_detects_bounded_runs():
    rows = _rows((0.0, 1.0), (0.1, 0.0), (0.2, 0.0), (0.3, 0.5), (0.4, 0.0), (0.5, 0.2))
    assert find_zero_runs(rows) == [(0.1, 0.2), (0.4, 0.4)]


def test_find_zero_runs_ignores_unbounded_runs():
    # leading zeros (no positive value before) and trailing zeros (no revival) don't count
    rows = _rows((0.0, 0.0), (0.1, 0.3), (0.2, 0.0), (0.3, 0.0))
    assert find_zero_runs(rows) == []


def test_find_zero_runs_scans_each_dz_block_on_its_own():
    # a run that ends one Dz block is not revived by the next block's first row,
    # and a run that starts a block is not preceded by the last block's values
    first = _rows((0.0, 1.0), (0.1, 0.0), (0.2, 0.0), dz=1.0)
    second = _rows((0.0, 1.0), (0.1, 0.0), (0.2, 0.5), dz=2.0)
    third = _rows((0.0, 0.0), (0.1, 0.5), dz=3.0)
    assert find_zero_runs(np.vstack([first, second, third])) == [(0.1, 0.1)]


def test_config_validation_messages():
    with pytest.raises(ConfigError):
        SweepConfig(mode="other", params=ModelParams(0, 0, 0, 0), axis=None,
                    dz_range=None, gamma=0.0, output_path="x.csv")
    with pytest.raises(ConfigError):
        thermal_config(axis=None)
    with pytest.raises(ConfigError):
        decoherence_config(axis=AxisRange(-1.0, 1.0, 0.5))
    with pytest.raises(ConfigError):
        decoherence_config(gamma=-0.5)
    for gamma in (float("inf"), float("nan")):  # the states are built with no further check
        with pytest.raises(ConfigError, match="^--gamma must be finite"):
            decoherence_config(gamma=gamma)
    with pytest.raises(ConfigError):
        thermal_config(output_path="")


def test_config_rejects_grid_above_row_cap():
    # counted from the ranges alone; no grid array is built
    dz = AxisRange(0.0, 9.0, 1.0)  # 10 points
    at_cap = AxisRange(1.0, MAX_GRID_ROWS // 10, 1.0)
    thermal_config(axis=at_cap, dz_range=dz)
    over = AxisRange(1.0, MAX_GRID_ROWS // 10 + 1, 1.0)
    with pytest.raises(ConfigError, match="exceeds the limit"):
        thermal_config(axis=over, dz_range=dz)
    with pytest.raises(ConfigError, match="exceeds the limit"):
        decoherence_config(axis=AxisRange(0.0, 1e9, 1e-3))
    # counts of 1e9 and more print short, also past the float range
    with pytest.raises(ConfigError, match=r"^grid of 5e\+299 rows exceeds the limit of 10000000$"):
        thermal_config(axis=AxisRange(0.5, 1.0, 1e-300))
    with pytest.raises(ConfigError, match=r"^grid of 1e\+608 rows exceeds the limit of 10000000$"):
        thermal_config(dz_range=AxisRange(0.0, 1e300, 1.0), axis=AxisRange(0.01, 1e300, 1e-8))
    with pytest.raises(ConfigError, match=r"^grid of 10000001 rows exceeds"):
        thermal_config(axis=AxisRange(1.0, MAX_GRID_ROWS + 1, 1.0))


def test_config_rejects_repeated_grid_points():
    # a step below the float spacing of the values rounds onto points already
    # there; repeated Dz values would also merge two blocks for find_zero_runs
    with pytest.raises(ConfigError, match="^--dz-range: range .* repeats grid points"):
        thermal_config(dz_range=AxisRange(1e16, 1.0000000000000004e16, 1.0))
    with pytest.raises(ConfigError, match="^--t-range: range .* repeats grid points"):
        thermal_config(axis=AxisRange(0.01, 0.010000000000000005, 1e-18))
    with pytest.raises(ConfigError, match="^--time-range: range .* repeats grid points"):
        decoherence_config(axis=AxisRange(1e16, 1.0000000000000004e16, 1.0))


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
