import numpy as np
import pytest

from qcorr.cli import main, parse_config
from qcorr.errors import ConfigError


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
