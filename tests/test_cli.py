import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qcorr.cli
from qcorr.cli import main, parse_config
from qcorr.errors import ConfigError, NumericFailure


def test_parse_preset_fig1_populates_parameters():
    cfg = parse_config(["thermal", "--preset", "fig1", "--out", "x.csv"])
    assert cfg.params.jx == 0.2 and cfg.params.jy == 0.4 and cfg.params.jz == 0.8
    assert cfg.temperature_range.count == 101
    assert cfg.dz_range.count == 61
    assert cfg.mode == "thermal"


def test_parse_explicit_flags():
    cfg = parse_config(
        ["thermal", "--jx", "1", "--jy", "1", "--jz", "1", "--dz", "0",
         "--t-range", "0.1:2:0.1", "--out", "x.csv"]
    )
    assert cfg.params.jx == 1.0 and cfg.params.jy == 1.0 and cfg.params.jz == 1.0
    assert cfg.params.dz == 0.0
    assert cfg.temperature_range.count == 20


def test_parse_flags_override_preset():
    cfg = parse_config(
        ["thermal", "--preset", "fig1", "--jx", "0.9", "--t-range", "0.5:1:0.5", "--out", "x.csv"]
    )
    assert cfg.params.jx == 0.9
    assert cfg.params.jy == 0.4  # untouched preset value
    assert cfg.temperature_range.count == 2


def test_parse_rejects_empty_range():
    with pytest.raises(ConfigError):
        parse_config(["thermal", "--t-range", "2:1:0.1", "--out", "x.csv"])


def test_parse_rejects_missing_out():
    with pytest.raises(ConfigError):
        parse_config(["thermal", "--t-range", "0.1:1:0.1"])


def test_parse_rejects_mode_mismatched_preset():
    with pytest.raises(ConfigError):
        parse_config(["thermal", "--preset", "fig2-lower", "--out", "x.csv"])


def test_parse_rejects_wrong_axis_flag():
    with pytest.raises(ConfigError):
        parse_config(["thermal", "--time-range", "0:1:0.1", "--t-range", "0.1:1:0.1", "--out", "x.csv"])


def test_parse_decohere_preset():
    cfg = parse_config(["decohere", "--preset", "fig2-lower", "--out", "x.csv"])
    assert cfg.mode == "decoherence"
    assert cfg.params.dz == 6.0 and cfg.gamma == 0.01
    assert cfg.time_range is not None


def test_parse_config_file(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text(
        "# comment\n[sweep]\nmode = thermal\njx = 0.3\njy = 0.1\nt_range = 0.5:1:0.25\nout = from_file.csv\n"
    )
    cfg = parse_config(["thermal", "--config", str(path)])
    assert cfg.params.jx == 0.3
    assert cfg.temperature_range.count == 3
    assert cfg.output_path == "from_file.csv"


def test_parse_config_file_unknown_key(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text("bogus = 1\n")
    with pytest.raises(ConfigError):
        parse_config(["thermal", "--config", str(path)])


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


def test_main_config_error_exit_code(capsys):
    assert main(["thermal", "--t-range", "2:1:0.1", "--out", "x.csv"]) == 2
    assert "config error" in capsys.readouterr().err


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


def _run_cli(args, cwd):
    # a child process, so any numpy RuntimeWarning reaches its real stderr
    env = dict(os.environ, PYTHONPATH=str(Path(qcorr.cli.__file__).parents[1]))
    return subprocess.run([sys.executable, "-W", "default", "-m", "qcorr.cli", *args],
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
