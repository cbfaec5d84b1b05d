import csv
import json

import numpy as np
import pytest

from tidaldisk.cli import main

BASE_CFG = """
case = B
profile = rigid:1.0
a0 = 2.0
N = 16
"""


def _write_cfg(tmp_path, text, name="run.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def _read_json(path):
    with open(path) as fh:
        return json.load(fh)


def _read_csv(path):
    with open(path) as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def test_base_outputs(tmp_path):
    cfg = _write_cfg(tmp_path, BASE_CFG)
    out = tmp_path / "out"
    assert main(["base", "--config", cfg, "--out", str(out)]) == 0
    base = _read_json(out / "base.json")
    assert base["case"] == "B"
    assert abs(base["omega0"] - np.sqrt(np.pi) / 2.0) < 1e-12
    header, rows = _read_csv(out / "phi0.csv")
    assert header == ["r", "phi0"]
    assert float(rows[0][0]) == 0.0 and float(rows[-1][1]) == 0.0


def test_base_deterministic(tmp_path):
    cfg = _write_cfg(tmp_path, BASE_CFG)
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    main(["base", "--config", cfg, "--out", str(out1)])
    main(["base", "--config", cfg, "--out", str(out2)])
    assert (out1 / "base.json").read_bytes() == (out2 / "base.json").read_bytes()
    assert (out1 / "phi0.csv").read_bytes() == (out2 / "phi0.csv").read_bytes()


def test_omega0_route_matches_a0_route(tmp_path):
    cfg_a = _write_cfg(tmp_path, BASE_CFG, "a.cfg")
    om = float(np.sqrt(np.pi) / 2.0)
    cfg_o = _write_cfg(
        tmp_path,
        f"case = B\nprofile = rigid:1.0\nomega0 = {om!r}\nN = 16\n",
        "o.cfg")
    out_a, out_o = tmp_path / "oa", tmp_path / "oo"
    main(["base", "--config", cfg_a, "--out", str(out_a)])
    main(["base", "--config", cfg_o, "--out", str(out_o)])
    ba, bo = _read_json(out_a / "base.json"), _read_json(out_o / "base.json")
    assert abs(ba["a0"] - bo["a0"]) < 1e-9


def test_scan_outputs(tmp_path):
    cfg = _write_cfg(tmp_path, BASE_CFG)
    out = tmp_path / "out"
    assert main(["scan", "--config", cfg, "--out", str(out)]) == 0
    header, rows = _read_csv(out / "modes.csv")
    assert header == ["n", "a_deriv", "c", "omega"]
    assert len(rows) == 17
    report = _read_json(out / "scan.json")
    assert report["resonances"] == []
    assert report["argmin_n"] == 2


def test_scan_exit_on_resonance(tmp_path, capsys):
    # the rotation speed matched to rigid rotation at a0 = 2 makes the
    # n = 2 multiplier vanish identically
    w = float(np.sqrt(np.pi) / 2.0)  # G = -2 omega0 with omega0 = sqrt(pi)/2
    cfg = _write_cfg(
        tmp_path, f"case = B\nprofile = rigid:{w!r}\na0 = 2.0\nN = 16\n")
    out = tmp_path / "out"
    code = main(["scan", "--config", cfg, "--out", str(out)])
    assert code == 3
    assert "resonan" in capsys.readouterr().err.lower()
    # the report is still written for diagnosis
    report = _read_json(out / "scan.json")
    assert 2 in report["resonances"]


def test_perturb_outputs(tmp_path):
    cfg = _write_cfg(tmp_path, BASE_CFG + "m = 1e-5\n")
    out = tmp_path / "out"
    assert main(["perturb", "--config", cfg, "--out", str(out)]) == 0
    pj = _read_json(out / "perturb_1e-05.json")
    assert pj["m"] == 1e-5
    assert pj["a_offset"] != 0.0
    header, rows = _read_csv(out / "boundary_perturb_1e-05.csv")
    assert header == ["phi", "x1", "x2"]
    assert len(rows) >= 512


def test_solve_sweep_and_linearity(tmp_path):
    cfg = _write_cfg(tmp_path, BASE_CFG + "m = 2e-5, 4e-5\n")
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    s1 = _read_json(out / "solution_2e-05.json")
    s2 = _read_json(out / "solution_4e-05.json")
    assert s1["residual_norm"] < 1e-10 and s2["residual_norm"] < 1e-10
    a0 = 2.0
    ratio = (s2["a"] - a0) / (s1["a"] - a0)
    assert abs(ratio - 2.0) < 0.05
    header, rows = _read_csv(out / "history_2e-05.csv")
    assert header == ["iteration", "residual_norm"]
    assert int(rows[0][0]) == 1
    assert (out / "boundary_4e-05.csv").exists()


def test_verify_writes_report(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["verify", "--out", str(out)]) == 0
    report = _read_json(out / "verify.json")
    assert report["passed"] is True
    assert len(report["criteria"]) == 10
    assert "[PASS]" in capsys.readouterr().out


def test_config_error_exit_code(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, BASE_CFG + "bogus = 1\n")
    assert main(["base", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "unknown key" in capsys.readouterr().err


def test_iterate_inside_admissible_set_exit_code(tmp_path, capsys):
    # at the a0 minimum the first-order step moves the particle inside it
    cfg = _write_cfg(tmp_path, "case = B\nprofile = linear:1,-2\na0 = 1.5\n"
                     "N = 32\nn_radial = 32\nn_angular = 128\nm = 1e-4\n")
    code = main(["solve", "--config", cfg, "--out", str(tmp_path / "o")])
    assert code == 4
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "Traceback" not in err


def test_omega0_out_of_range_exit_code(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, "case = B\nprofile = rigid:1.0\nomega0 = 5\n")
    code = main(["base", "--config", cfg, "--out", str(tmp_path / "o")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "admissible interval" in err
    assert "Traceback" not in err


def test_missing_config_file(tmp_path, capsys):
    code = main(["base", "--config", str(tmp_path / "nope.cfg"),
                 "--out", str(tmp_path / "o")])
    assert code == 2


def test_degenerate_profile_exit(tmp_path, capsys):
    cfg = _write_cfg(tmp_path,
                     "case = B\nprofile = zero\na0 = 2.0\nN = 16\n")
    code = main(["base", "--config", cfg, "--out", str(tmp_path / "o")])
    assert code == 1
    assert "error" in capsys.readouterr().err
