import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qcorr.cli
import qcorr.sweep
from qcorr.cli import main, parse_config
from qcorr.errors import ConfigError, NumericFailure


def test_parse_preset_fig1_populates_parameters():
    cfg = parse_config(["thermal", "--preset", "fig1", "--out", "x.csv"])
    assert cfg.params.jx == 0.2 and cfg.params.jy == 0.4 and cfg.params.jz == 0.8
    assert cfg.axis.count == 101
    assert cfg.dz_range.count == 61
    assert cfg.mode == "thermal"


def test_parse_explicit_flags():
    cfg = parse_config(
        ["thermal", "--jx", "1", "--jy", "1", "--jz", "1", "--dz", "0",
         "--t-range", "0.1:2:0.1", "--out", "x.csv"]
    )
    assert cfg.params.jx == 1.0 and cfg.params.jy == 1.0 and cfg.params.jz == 1.0
    assert cfg.params.dz == 0.0
    assert cfg.axis.count == 20


def test_parse_flags_override_preset():
    cfg = parse_config(
        ["thermal", "--preset", "fig1", "--jx", "0.9", "--t-range", "0.5:1:0.5", "--out", "x.csv"]
    )
    assert cfg.params.jx == 0.9
    assert cfg.params.jy == 0.4  # untouched preset value
    assert cfg.axis.count == 2


def test_parse_rejects_empty_range():
    with pytest.raises(ConfigError):
        parse_config(["thermal", "--t-range", "2:1:0.1", "--out", "x.csv"])


def test_parse_rejects_missing_out():
    with pytest.raises(ConfigError):
        parse_config(["thermal", "--t-range", "0.1:1:0.1"])


def test_parse_rejects_mode_mismatched_preset():
    with pytest.raises(ConfigError):
        parse_config(["thermal", "--preset", "fig2-lower", "--out", "x.csv"])


def test_parse_rejects_wrong_axis_flag(tmp_path):
    # each subcommand takes only its own axis flag, on the command line and in a file
    with pytest.raises(ConfigError, match="unrecognized arguments: --time-range 0:1:0.1"):
        parse_config(["thermal", "--time-range", "0:1:0.1", "--t-range", "0.1:1:0.1", "--out", "x.csv"])
    with pytest.raises(ConfigError, match="unrecognized arguments: --t-range 1:1:1"):
        parse_config(["decohere", "--preset", "fig2-upper", "--t-range", "1:1:1", "--out", "x.csv"])
    path = tmp_path / "run.ini"
    path.write_text("time_range = 0:1:1\n")
    with pytest.raises(ConfigError, match="--time-range is not valid in thermal mode"):
        parse_config(["thermal", "--config", str(path), "--t-range", "1:1:1", "--out", "x.csv"])


def test_parse_decohere_preset():
    cfg = parse_config(["decohere", "--preset", "fig2-lower", "--out", "x.csv"])
    assert cfg.mode == "decoherence"
    assert cfg.params.dz == 6.0 and cfg.gamma == 0.01
    assert cfg.axis.count == 1201


def test_parse_config_file(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text(
        "# comment\n[sweep]\nmode = thermal\njx = 0.3\njy = 0.1\nt_range = 0.5:1:0.25\nout = from_file.csv\n"
    )
    cfg = parse_config(["thermal", "--config", str(path)])
    assert cfg.params.jx == 0.3
    assert cfg.axis.count == 3
    assert cfg.output_path == "from_file.csv"


def test_parse_config_file_unknown_key(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text("bogus = 1\n")
    with pytest.raises(ConfigError):
        parse_config(["thermal", "--config", str(path)])


def test_parse_rejects_gamma_in_thermal_mode(tmp_path):
    with pytest.raises(ConfigError, match="unrecognized arguments: --gamma=-5"):
        parse_config(["thermal", "--preset", "fig1", "--gamma", "-5", "--out", "x.csv"])
    path = tmp_path / "run.ini"
    path.write_text("gamma = 0.1\n")
    with pytest.raises(ConfigError, match="--gamma is not valid in thermal mode"):
        parse_config(["thermal", "--preset", "fig1", "--config", str(path), "--out", "x.csv"])


def test_precedence_is_preset_then_file_then_flags(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text("jx = 0.5\nt-range = 1:2:0.5\nout = file.csv\n")
    preset = ["thermal", "--preset", "fig1"]
    flags = ["--jx", "0.7", "--t-range", "1:1:1", "--out", "flag.csv"]
    layered = [
        (preset + ["--out", "x.csv"], 0.2, 101, "x.csv"),
        (preset + ["--config", str(path)], 0.5, 3, "file.csv"),
        (preset + ["--config", str(path)] + flags, 0.7, 1, "flag.csv"),
    ]
    for argv, jx, count, out in layered:
        cfg = parse_config(argv)
        assert (cfg.params.jx, cfg.axis.count, cfg.output_path) == (jx, count, out)
        assert cfg.params.jy == 0.4 and cfg.dz_range.count == 61  # from the preset throughout
    # the file may name the preset itself; the flag still wins over it
    path.write_text("preset = fig1\njx = 0.5\n")
    cfg = parse_config(["thermal", "--config", str(path), "--jx", "0.7", "--out", "x.csv"])
    assert (cfg.params.jx, cfg.params.jz, cfg.axis.count) == (0.7, 0.8, 101)


def test_malformed_config_file_values_exit_2(tmp_path, capsys):
    path = tmp_path / "run.ini"
    for text, message in (("jx = nan\n", "--jx: expected a finite number, got 'nan'"),
                          ("t_range = 1:2\n", "--t-range: expected start:stop:step, got '1:2'"),
                          ("t-range = 1:1:1\n", "--t-range is not valid in decoherence mode")):
        path.write_text(text)
        command = "decohere" if "decoherence" in message else "thermal"
        assert main([command, "--config", str(path), "--out", str(tmp_path / "x.csv")]) == 2
        assert capsys.readouterr().err == f"qcorr: config error: {message}\n"
    assert not (tmp_path / "x.csv").exists()


def test_dz_and_dz_range_are_one_setting(tmp_path):
    # the highest layer that gives either one decides; none may give both
    fig1 = ["thermal", "--preset", "fig1", "--t-range", "1:1:1", "--out", "x.csv"]
    cfg = parse_config(fig1 + ["--dz", "1.5"])
    assert (cfg.params.dz, cfg.dz_range) == (1.5, None)
    path = tmp_path / "run.ini"
    path.write_text("dz = 0.3\n")
    cfg = parse_config(fig1 + ["--config", str(path)])
    assert (cfg.params.dz, cfg.dz_range) == (0.3, None)
    cfg = parse_config(fig1 + ["--config", str(path), "--dz-range", "0:1:0.5"])
    assert cfg.dz_range.count == 3
    with pytest.raises(ConfigError, match="--dz and --dz-range spell one setting; the command line"):
        parse_config(fig1 + ["--dz", "1", "--dz-range", "0:1:0.5"])
    path.write_text("dz = 0.3\ndz-range = 0:1:0.5\n")
    with pytest.raises(ConfigError, match=f"--dz and --dz-range spell one setting; config file {path}"):
        parse_config(fig1 + ["--config", str(path)])

    out = tmp_path / "one.csv"
    assert main(fig1[:-1] + [str(out), "--dz", "1.5"]) == 0
    rows = out.read_text().splitlines()[1:]
    assert len(rows) == 1 and rows[0].split(",")[0] == "1.5"


def test_main_thermal_end_to_end(tmp_path, capsys):
    out = tmp_path / "thermal.csv"
    code = main(
        ["thermal", "--jx", "0.2", "--jy", "0.4", "--jz", "0.8", "--dz", "1",
         "--t-range", "0.5:1:0.25", "--out", str(out)]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "dz,T,C,CC,QD,I"
    assert len(lines) == 4
    assert "wrote 3 rows" in capsys.readouterr().out


def test_main_negative_range_in_spaced_form(tmp_path):
    out = tmp_path / "negative.csv"
    code = main(
        ["thermal", "--jx", "0.2", "--jy", "0.4", "--jz", "0.8",
         "--dz-range", "-1:1:0.5", "--t-range", "1:1:1", "--out", str(out)]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 6
    assert [float(line.split(",")[0]) for line in lines[1:]] == [-1.0, -0.5, 0.0, 0.5, 1.0]
    # the other range flags hand a negative start to range validation, not to argparse
    with pytest.raises(ConfigError, match="time must start at >= 0"):
        parse_config(["decohere", "--time-range", "-1:1:1", "--out", "x.csv"])
    with pytest.raises(ConfigError, match="below the floor"):
        parse_config(["thermal", "--t-range", "-.5:1:1", "--out", "x.csv"])


def test_main_negative_exponent_flags_in_spaced_form(tmp_path):
    # argparse reads '-1e-1' as an option, so every value flag rejoins its value
    base = ["decohere", "--preset", "fig2-upper", "--time-range", "0:0.02:0.01"]
    for spaced, joined in ((["--jy", "-1e-1"], ["--jy=-1e-1"]), (["--dz", "-2e0"], ["--dz=-2e0"])):
        a, b = tmp_path / "spaced.csv", tmp_path / "joined.csv"
        assert main(base + spaced + ["--out", str(a)]) == 0
        assert main(base + joined + ["--out", str(b)]) == 0
        assert a.read_text() == b.read_text()
        assert len(a.read_text().splitlines()) == 4


def test_main_decohere_end_to_end(tmp_path, capsys):
    out = tmp_path / "deco.csv"
    code = main(
        ["decohere", "--preset", "fig2-upper", "--time-range", "0:0.2:0.1", "--out", str(out)]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "dz,t,C,CC,QD,I,closed_form_dev"
    assert len(lines) == 4
    first = lines[1].split(",")
    assert float(first[2]) == pytest.approx(1.0, abs=1e-9)  # C at t=0
    err = capsys.readouterr().err
    assert "death/revival intervals: none" in err


def test_main_config_error_exit_code(tmp_path, capsys):
    assert main(["thermal", "--t-range", "2:1:0.1", "--out", "x.csv"]) == 2
    assert "config error" in capsys.readouterr().err
    # a config file that does not decode as UTF-8 is a config error, not a numeric failure
    bad = tmp_path / "bad.ini"
    bad.write_bytes(b"\xff=1\n")
    code = main(["thermal", "--preset", "fig1", "--config", str(bad), "--dz-range", "0:0:1",
                 "--t-range", "1:1:1", "--out", str(tmp_path / "x.csv")])
    assert code == 2
    err = capsys.readouterr().err
    assert "config error" in err and str(bad) in err
    assert not (tmp_path / "x.csv").exists()


def test_main_non_finite_number_is_config_error(capsys):
    assert main(["thermal", "--jx", "nan", "--t-range", "0.5:0.5:1", "--out", "x.csv"]) == 2
    assert "config error" in capsys.readouterr().err
    assert main(["decohere", "--preset", "fig2-upper", "--gamma", "inf", "--out", "x.csv"]) == 2
    assert "config error" in capsys.readouterr().err


def test_main_io_error_exit_code(tmp_path, capsys):
    missing = tmp_path / "no" / "such" / "dir" / "x.csv"
    code = main(["thermal", "--t-range", "0.5:0.5:1", "--out", str(missing)])
    assert code == 4
    assert "io error" in capsys.readouterr().err


def test_main_unknown_flag_exit_code(capsys):
    assert main(["thermal", "--bogus", "1", "--out", "x.csv"]) == 2


def test_main_missing_command(capsys):
    assert main([]) == 2


def test_cli_csv_deterministic(tmp_path):
    args = ["thermal", "--jx", "0.2", "--jy", "0.4", "--jz", "0.8", "--dz", "0.5",
            "--t-range", "0.4:0.8:0.2", "--out"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + [str(a)]) == 0
    assert main(args + [str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_main_bad_out_fails_before_the_sweep(tmp_path, monkeypatch, capsys):
    def no_sweep(cfg):
        pytest.fail("run_sweep ran although --out is unwritable")

    monkeypatch.setattr(qcorr.cli, "run_sweep", no_sweep)
    missing = tmp_path / "no" / "such" / "dir" / "x.csv"
    assert main(["decohere", "--preset", "fig2-lower", "--out", str(missing)]) == 4
    assert "io error" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_main_failed_sweep_leaves_no_temp_file(tmp_path, monkeypatch, capsys):
    def failing_sweep(cfg):
        raise NumericFailure("injected")

    monkeypatch.setattr(qcorr.cli, "run_sweep", failing_sweep)
    assert main(["thermal", "--t-range", "0.5:0.5:1", "--out", str(tmp_path / "x.csv")]) == 3
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("field, value, text", [
    ("concurrence", float("nan"), "non-finite sweep row"),
    ("quantum_discord", -1e-6, "negative correlation value in sweep row"),
], ids=["nan", "negative"])
def test_main_bad_sweep_row_exits_3_without_output(tmp_path, monkeypatch, capsys, field, value, text):
    real = qcorr.sweep.correlation_columns
    monkeypatch.setattr(qcorr.sweep, "correlation_columns",
                        lambda states: real(states)._replace(**{field: np.full(len(states), value)}))
    assert main(["thermal", "--t-range", "0.5:0.5:1", "--out", str(tmp_path / "x.csv")]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"qcorr: numeric failure: {text}: (0.0, 0.5, ") and err.count("\n") == 1
    assert "Traceback" not in err
    assert list(tmp_path.iterdir()) == []  # neither the target nor its .x.csv.<pid>.tmp


def test_main_death_revival_scan_stays_in_each_dz_block(tmp_path, capsys):
    # at gamma = 100 the concurrence of the Bell pair dies by t = 1 and stays 0 in
    # each Dz block; the next block's t = 0 row is no revival
    args = ["decohere", "--jx", "0", "--jy", "0", "--jz", "0", "--gamma", "100",
            "--time-range", "0:10:1", "--out", str(tmp_path / "x.csv")]
    for dz in (["--dz-range", "1:2:1"], ["--dz", "1"]):
        assert main(args + dz) == 0
        assert capsys.readouterr().err == "concurrence death/revival intervals: none\n"


def test_main_abbreviated_flags_are_unrecognized(tmp_path, capsys):
    # one spelling per flag, so every spaced negative value is rejoined with its flag
    for flag in (["--dz-r", "-1:1:1"], ["--dz-r=-1:1:1"]):
        assert main(["thermal", "--t-range", "1:1:1", *flag, "--out", str(tmp_path / "x.csv")]) == 2
        assert "unrecognized arguments" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, file_text, message", [
    (["thermal", "--jx", "abc", "--t-range", "1:1:1"], None,
     "--jx: expected a number, got 'abc'"),
    (["thermal", "--t-range", "1:1:1"], "jx\n", "{path}:1: expected key=value, got 'jx'"),
    (["thermal", "--t-range", "1:1:1"], "preset = nope\n", "unknown preset 'nope'"),
    (["thermal", "--t-range", "1:1:1"], "mode = decoherence\n",
     "config file mode 'decoherence' conflicts with command thermal"),
    (["thermal", "--dz-range", "nan:1:1", "--t-range", "1:1:1"], None,
     "--dz-range: range start must be finite, got nan"),
    # a step below the float spacing of the values would repeat grid points
    (["thermal", "--jx", "0.2", "--jy", "0.4", "--jz", "0.8",
      "--dz-range", "1e16:1.0000000000000004e16:1", "--t-range", "1:1:1"], None,
     "--dz-range: range 1e+16:1.0000000000000004e+16:1.0 repeats grid points "
     "(step below the float spacing of its values)"),
    (["thermal", "--preset", "fig1", "--dz-range", "0:0:1",
      "--t-range", "0.01:0.010000000000000005:1e-18"], None,
     "--t-range: range 0.01:0.010000000000000005:1e-18 repeats grid points "
     "(step below the float spacing of its values)"),
    # a last grid point past the float range, which numpy's arange would make inf
    (["thermal", "--jx", "1", "--jy", "1", "--jz", "1", "--dz", "0",
      "--t-range", "1e308:1.7e308:1e308"], None,
     "--t-range: range 1e+308:1.7e+308:1e+308 overflows at its last point"),
    (["decohere", "--jx", "1", "--jy", "1", "--dz", "0", "--gamma", "0.1",
      "--time-range", "1e308:1.7e308:1e308"], None,
     "--time-range: range 1e+308:1.7e+308:1e+308 overflows at its last point"),
    (["thermal", "--dz-range", "1e308:1.7e308:1e308", "--t-range", "1:1:1"], None,
     "--dz-range: range 1e+308:1.7e+308:1e+308 overflows at its last point"),
], ids=["not-a-number", "no-equals", "unknown-preset", "mode-conflict", "nan-range",
        "repeated-dz", "repeated-t", "overflowing-t", "overflowing-time", "overflowing-dz"])
def test_main_config_error_exits_2_without_output(tmp_path, capsys, argv, file_text, message):
    path = tmp_path / "run.ini"
    config = []
    if file_text is not None:
        path.write_text(file_text)
        config = ["--config", str(path)]
    assert main(argv + config + ["--out", str(tmp_path / "x.csv")]) == 2
    assert capsys.readouterr().err == f"qcorr: config error: {message.format(path=path)}\n"
    assert [p.name for p in tmp_path.iterdir()] == (["run.ini"] if config else [])


def test_main_failed_replace_exits_4_without_output(tmp_path, monkeypatch, capsys):
    def failing_replace(src, dst):
        raise OSError("injected")

    monkeypatch.setattr(qcorr.sweep.os, "replace", failing_replace)
    out = tmp_path / "x.csv"
    assert main(["thermal", "--t-range", "0.5:0.5:1", "--out", str(out)]) == 4
    assert capsys.readouterr().err == f"qcorr: io error: cannot write {out}: injected\n"
    assert list(tmp_path.iterdir()) == []


def test_main_prints_death_revival_intervals(tmp_path, monkeypatch, capsys):
    # the CLI's Bell pair has only round-off intervals, so the scan's result is injected
    monkeypatch.setattr(qcorr.cli, "find_zero_runs", lambda table: [(1.0, 2.0), (3.5, 4.0)])
    args = ["decohere", "--preset", "fig2-upper", "--time-range", "0:0.1:0.1",
            "--out", str(tmp_path / "x.csv")]
    assert main(args) == 0
    assert capsys.readouterr().err == "concurrence death/revival intervals: [1, 2], [3.5, 4]\n"


def test_main_oversized_grid_is_config_error(capsys):
    code = main(["thermal", "--preset", "fig1", "--t-range", "0.01:1e9:0.01", "--out", "x.csv"])
    assert code == 2
    err = capsys.readouterr().err
    assert "config error" in err and "exceeds the limit" in err
    assert "Traceback" not in err


def test_main_rescaled_point_prints_the_unit_scale_row(tmp_path):
    # couplings and T scaled by 1e6: the same Gibbs state as the fig1 point at T = 1
    big, unit = tmp_path / "big.csv", tmp_path / "unit.csv"
    assert main(["thermal", "--jx", "2e5", "--jy", "4e5", "--jz", "8e5", "--dz", "1e6",
                 "--t-range", "1e6:1e6:1", "--out", str(big)]) == 0
    assert main(["thermal", "--jx", "0.2", "--jy", "0.4", "--jz", "0.8", "--dz", "1",
                 "--t-range", "1:1:1", "--out", str(unit)]) == 0
    big_row = big.read_text().splitlines()[1].split(",")
    unit_row = unit.read_text().splitlines()[1].split(",")
    assert big_row[:2] == ["1000000", "1000000"]
    assert big_row[2:] == unit_row[2:]


def _run_cli(args, cwd, warnings="default"):
    # a child process, so any numpy RuntimeWarning reaches its real stderr
    env = dict(os.environ, PYTHONPATH=str(Path(qcorr.cli.__file__).parents[1]))
    return subprocess.run([sys.executable, "-W", warnings, "-m", "qcorr.cli", *args],
                          cwd=cwd, env=env, capture_output=True, text=True, timeout=120)


def test_main_decohere_at_huge_couplings(tmp_path):
    # energy gaps near 3e200 overflow gap**2; at t = 0 nothing has decayed and
    # at t = 1 every coherence between levels has, which leaves the steady state
    huge = ["decohere", "--jx", "1e200", "--jy", "1e200", "--dz", "1e200", "--gamma", "0.1"]
    done = _run_cli(huge + ["--time-range", "0:1:1", "--out", "huge.csv"], tmp_path)
    assert done.returncode == 0, done.stderr
    assert "RuntimeWarning" not in done.stderr
    rows = [line.split(",")[:6] for line in (tmp_path / "huge.csv").read_text().splitlines()[1:]]
    assert rows[0] == ["1e+200", "0", "1", "1", "1", "2"]
    assert rows[1] == ["1e+200", "1", "0.707106781187", "1", "0.399123963307", "1.39912396331"]

    overflow = _run_cli(huge + ["--time-range", "1e200:1e200:1", "--out", "x.csv"], tmp_path)
    assert overflow.returncode == 3
    assert overflow.stderr == "qcorr: numeric failure: energy gap times t overflows at t = 1e+200\n"

    # gamma t / 2 overflows at gamma = 1e308, t = 1e10: the same steady state
    args = ["decohere", "--jx", "1e200", "--jy", "1e200", "--dz", "1e200", "--gamma", "1e308",
            "--time-range", "1e10:1e10:1", "--out", "x.csv"]
    done = _run_cli(args, tmp_path)
    assert done.returncode == 0, done.stderr
    assert "Warning" not in done.stderr
    rows = [line.split(",") for line in (tmp_path / "x.csv").read_text().splitlines()[1:]]
    assert [row[:6] for row in rows] == [
        ["1e+200", "10000000000", "0.707106781187", "1", "0.399123963307", "1.39912396331"]]
    assert float(rows[0][6]) <= 1e-15


def test_main_thermal_when_gap_over_t_overflows(tmp_path):
    # (Jz + mu) / 2T overflows at Dz = 1e307, T = 0.01: the excited levels get
    # weight 0, and the state is the ground Bell state
    args = ["thermal", "--jx", "1", "--jy", "1", "--jz", "1", "--dz", "1e307",
            "--t-range", "0.01:0.01:1", "--out", "x.csv"]
    done = _run_cli(args, tmp_path)
    assert done.returncode == 0, done.stderr
    assert "Warning" not in done.stderr
    assert (tmp_path / "x.csv").read_text().splitlines() == ["dz,T,C,CC,QD,I", "1e+307,0.01,1,1,1,2"]


def test_main_thermal_block_mixing_overflow_and_huge_temperature_warns_nothing(tmp_path):
    # One Dz block of three rows goes through one stacked discord call, whose
    # np.where evaluates both branches on every row: the overflowing gap/T
    # row at T = 0.01, T = 5e307 and T = 1e308.  Any RuntimeWarning is an
    # error in the child, and each row must read as its single-row run does.
    args = ["thermal", "--jx", "1", "--jy", "1", "--jz", "1", "--dz", "1e307"]
    done = _run_cli(args + ["--t-range", "0.01:1e308:5e307", "--out", "x.csv"], tmp_path,
                    "error::RuntimeWarning")
    assert done.returncode == 0, done.stderr
    rows = (tmp_path / "x.csv").read_text().splitlines()[1:]
    assert rows[0] == "1e+307,0.01,1,1,1,2"
    assert [row.split(",")[1] for row in rows] == ["0.01", "5e+307", "1e+308"]
    for row in rows:
        t = row.split(",")[1]
        single = _run_cli(args + ["--t-range", f"{t}:{t}:1", "--out", "one.csv"], tmp_path,
                          "error::RuntimeWarning")
        assert single.returncode == 0, single.stderr
        assert (tmp_path / "one.csv").read_text().splitlines()[1:] == [row]


def test_main_thermal_at_huge_temperature(tmp_path):
    # at T = 1e308 the state is I/4 up to round-off, and no measure dips below 0
    args = ["thermal", "--preset", "fig1", "--dz-range", "0:0:1", "--t-range", "1e308:1e308:1",
            "--out", "x.csv"]
    done = _run_cli(args, tmp_path)
    assert done.returncode == 0, done.stderr
    assert "Warning" not in done.stderr
    assert (tmp_path / "x.csv").read_text().splitlines()[1:] == ["0,1e+308,0,0,0,0"]


def test_main_decohere_when_gamma_t_underflows(tmp_path):
    # gamma * t / 2 underflows to 0 while the gaps squared overflow; the true
    # damping (about 4e70) leaves the same steady state as at t = 1 above.
    # At gamma = 5e-324 even 0.5 * gamma is 0, and the damping is about 2e77.
    for gamma, t in (("1e-300", "1e-30"), ("5e-324", "1")):
        args = ["decohere", "--jx", "1e200", "--jy", "1e200", "--dz", "1e200", "--gamma", gamma,
                "--time-range", f"{t}:{t}:1", "--out", "x.csv"]
        done = _run_cli(args, tmp_path)
        assert done.returncode == 0, done.stderr
        assert "Warning" not in done.stderr
        rows = [line.split(",") for line in (tmp_path / "x.csv").read_text().splitlines()[1:]]
        assert [row[:6] for row in rows] == [
            ["1e+200", t, "0.707106781187", "1", "0.399123963307", "1.39912396331"]]
        assert float(rows[0][6]) <= 1e-15


def test_main_overflowing_energy_scale_is_a_numeric_failure(tmp_path):
    # mu = hypot(Jx+Jy, 2Dz) is inf at Dz = 1e308
    for args in (["thermal", "--jx", "1", "--jy", "1", "--jz", "1", "--dz", "1e308",
                  "--t-range", "1:1:1", "--out", "x.csv"],
                 ["decohere", "--jx", "1", "--jy", "1", "--dz", "1e308", "--gamma", "0.1",
                  "--time-range", "0:1:1", "--out", "x.csv"]):
        done = _run_cli(args, tmp_path)
        assert done.returncode == 3
        assert done.stderr == "qcorr: numeric failure: energy scale mu = hypot(Jx+Jy, 2Dz) overflows\n"
        assert not (tmp_path / "x.csv").exists()
