import contextlib
import csv
import io
import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tidaldisk import cli
from tidaldisk.chebyshev import DEFAULT_RADIAL, _radial_basis
from tidaldisk.cli import main
from tidaldisk.coeffs import build_mode_table

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
    # both carry r = 0, then the solver grid's radii, ascending
    nodes = [0.0, *_radial_basis(DEFAULT_RADIAL)[0].r[::-1]]
    assert base["phi0_nodes"] == nodes
    assert len(base["phi0_values"]) == DEFAULT_RADIAL + 1
    assert base["phi0_values"][-1] == 0.0
    assert [float(r) for r, _ in rows] == nodes
    assert [float(v) for _, v in rows] == base["phi0_values"]


def test_base_deterministic(tmp_path):
    cfg = _write_cfg(tmp_path, BASE_CFG)
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    main(["base", "--config", cfg, "--out", str(out1)])
    main(["base", "--config", cfg, "--out", str(out2)])
    assert (out1 / "base.json").read_bytes() == (out2 / "base.json").read_bytes()
    assert (out1 / "phi0.csv").read_bytes() == (out2 / "phi0.csv").read_bytes()


def test_base_strong_rigid_rotation(tmp_path):
    # the shooting range scales with |G(0)| = 1e5
    cfg = _write_cfg(tmp_path, "case = B\nprofile = rigid:50000\na0 = 2.0\n")
    out = tmp_path / "out"
    assert main(["base", "--config", cfg, "--out", str(out)]) == 0
    assert abs(_read_json(out / "base.json")["dphi0_at_1"] + 5e4) < 1e-7


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


def test_omega0_route_matches_a0_route_power_kernel(tmp_path):
    from tidaldisk.potential import case_a, omega_from_a0
    head = "case = A\nnu = 0.5\nprofile = rigid:1.0\nN = 16\n"
    cfg_a = _write_cfg(tmp_path, head + "a0 = 2.0\n", "a.cfg")
    om = omega_from_a0(case_a(0.5), 2.0)
    cfg_o = _write_cfg(tmp_path, head + f"omega0 = {om!r}\n", "o.cfg")
    out_a, out_o = tmp_path / "oa", tmp_path / "oo"
    assert main(["base", "--config", cfg_a, "--out", str(out_a)]) == 0
    assert main(["base", "--config", cfg_o, "--out", str(out_o)]) == 0
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


def test_error_report_on_config_error(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, BASE_CFG + "bogus = 1\n")
    out = tmp_path / "out"
    assert main(["scan", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    report = _read_json(out / "error.json")
    assert report == {"schema_version": 1, "error": "ConfigError",
                      "exit_code": 2,
                      "message": err.removeprefix("error: ").rstrip("\n")}
    # a later successful run in the same directory removes the stale report
    cfg = _write_cfg(tmp_path, BASE_CFG)
    assert main(["base", "--config", cfg, "--out", str(out)]) == 0
    assert not (out / "error.json").exists()


def test_error_report_on_resonant_scan(tmp_path):
    w = float(np.sqrt(np.pi) / 2.0)  # on the n = 2 resonance, as above
    cfg = _write_cfg(
        tmp_path, f"case = B\nprofile = rigid:{w!r}\na0 = 2.0\nN = 16\n")
    out = tmp_path / "out"
    assert main(["scan", "--config", cfg, "--out", str(out)]) == 3
    report = _read_json(out / "error.json")
    assert report["error"] == "ResonanceError" and report["exit_code"] == 3
    assert "n=2" in report["message"] and "history" not in report


def test_error_report_unwritable(tmp_path, capsys):
    # --out names a file, so no report can be written: the exit code and
    # the stderr line are those of the error itself
    out = tmp_path / "out"
    out.write_text("")
    cfg = _write_cfg(tmp_path, BASE_CFG + "bogus = 1\n")
    assert main(["base", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


def test_solve_zero_mass_above_tol(tmp_path, capsys):
    # the 41-knot PCHIP table: the disk misses the discrete system by about
    # 5e-9, so solve at m = 0 and tol 1e-10 diverges with that one residual
    u = np.linspace(-1.5, 0.5, 41)
    table = tmp_path / "g.csv"
    table.write_text("".join(f"{x!r},{-2.0 + x + 4.0 * x**3!r}\n"
                             for x in u.tolist()))
    cfg = _write_cfg(tmp_path, f"case = B\nprofile = csv:{table}\na0 = 2.0\n"
                     "N = 16\nm = 0\ntol = 1e-10\n")
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 4
    assert "unperturbed disk" in capsys.readouterr().err
    report = _read_json(out / "error.json")
    assert report["error"] == "DivergenceError" and report["exit_code"] == 4
    assert len(report["history"]) == 1 and report["history"][0] > 1e-10
    assert not (out / "solution_0.0.json").exists()


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


def test_close_masses_keep_their_own_outputs(tmp_path):
    # both masses read 2.2e-06 in six significant digits; each output file
    # is tagged with the shortest text that reads back as its mass
    cfg = _write_cfg(tmp_path, BASE_CFG + "m = 2.2e-6, 2.2000001e-6\n")
    out = tmp_path / "out"
    assert main(["perturb", "--config", cfg, "--out", str(out)]) == 0
    for m in (2.2e-6, 2.2000001e-6):
        assert _read_json(out / f"perturb_{m!r}.json")["m"] == m
        assert (out / f"boundary_perturb_{m!r}.csv").exists()


def test_repeated_mass_exit_code(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, BASE_CFG + "m = 1e-5, 0.00001\n")
    out = tmp_path / "out"
    assert main(["perturb", "--config", cfg, "--out", str(out)]) == 2
    assert "repeated mass" in capsys.readouterr().err
    assert _read_json(out / "error.json")["error"] == "ConfigError"
    assert not list(out.glob("perturb_*"))


def test_operator_on_configured_radial_grid(tmp_path, monkeypatch):
    # the frozen linearization's mode table sits on the n_radial grid that
    # the residual uses, not on the default 64 radii
    ops = []
    make_operator = cli.make_operator

    def spy(*args, **kwargs):
        ops.append(make_operator(*args, **kwargs))
        return ops[-1]

    monkeypatch.setattr(cli, "make_operator", spy)
    cfg = _write_cfg(tmp_path, BASE_CFG + "n_radial = 48\nm = 1e-5\n")
    assert main(["perturb", "--config", cfg, "--out", str(tmp_path)]) == 0
    base = ops[0].base
    want = build_mode_table(base, N=16, n_nodes=48).a_deriv
    assert np.array_equal(ops[0].table.a_deriv, want)
    assert not np.array_equal(build_mode_table(base, N=16).a_deriv, want)


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


@pytest.mark.parametrize("command, csv_name", [
    ("solve", "boundary_1e-06.csv"), ("perturb", "boundary_perturb_1e-06.csv"),
])
def test_boundary_csv_at_n256(tmp_path, command, csv_name):
    # at N = 256 a fixed 512-point boundary CSV is below the 2N + 2 = 514
    # floor; the rows follow boundary_points(N) = 1024
    cfg = _write_cfg(tmp_path, BASE_CFG.replace("N = 16", "N = 256")
                     + "m = 1e-6\n")
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == 0
    header, rows = _read_csv(out / csv_name)
    assert header == ["phi", "x1", "x2"]
    assert len(rows) == 1024


def test_verify_writes_report(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["verify", "--out", str(out)]) == 0
    report = _read_json(out / "verify.json")
    assert report["passed"] is True
    assert [r["criterion"] for r in report["criteria"]] == list(range(1, 13))
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


@pytest.mark.parametrize("spec", ["linear:nan,-2", "linear:1,nan",
                                  "linear:inf,-2", "rigid:inf"])
def test_non_finite_profile_exit_code(tmp_path, capsys, spec):
    cfg = _write_cfg(tmp_path, f"case = B\nprofile = {spec}\na0 = 2.0\n")
    code = main(["base", "--config", cfg, "--out", str(tmp_path / "o")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
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


def test_write_csv_bytes(tmp_path):
    from tidaldisk.cli import _write_csv
    path = tmp_path / "sub" / "t.csv"
    _write_csv(str(path), ("n", "x"),
               [(0, 0.1), (1, np.float64(1.0) / 3.0), (2, "a,b")])
    assert path.read_bytes() == (
        b'n,x\r\n0,0.1\r\n1,0.3333333333333333\r\n2,"a,b"\r\n')
    assert [p.name for p in path.parent.iterdir()] == ["t.csv"]


# --------------------------------------------------------------------------
# property: every generated config leaves with a documented exit code
# --------------------------------------------------------------------------

_EXIT_CODES = {0, 1, 2, 3, 4, 5}  # as documented in the cli docstring
_BAD_REALS = [float("nan"), float("inf"), float("-inf"), 0.0, -1.0, 1e6]


@st.composite
def _run_configs(draw):
    """A small-N config of either kernel, a0 often near its minimum 1.5;
    half of them with one value made non-finite or out of range."""
    N = draw(st.integers(8, 16))
    cfg = {"case": draw(st.sampled_from(["A", "B"]))}
    if cfg["case"] == "A":
        cfg["nu"] = draw(st.floats(0.05, 1.0))
    if draw(st.integers(0, 3)):
        cfg["a0"] = draw(st.one_of(st.floats(1.5, 1.6), st.floats(1.5, 6.0)))
    else:
        cfg["omega0"] = draw(st.floats(0.05, 1.5))
    kind = draw(st.sampled_from(["rigid", "linear"]))
    params = ([draw(st.floats(0.1, 3.0))] if kind == "rigid" else
              [draw(st.floats(0.0, 20.0)), draw(st.floats(-4.0, 1.0))])
    cfg.update(N=N, n_radial=draw(st.integers(8, 24)),
               n_angular=draw(st.integers(2 * N + 2, 64)),
               m=draw(st.floats(-1e-4, 1e-4)))
    if draw(st.booleans()):
        cfg["tol"] = draw(st.floats(1e-13, 1e-6))
    if draw(st.booleans()):
        cfg["m_cap"] = draw(st.floats(1e-6, 1.0))
    if draw(st.booleans()):
        key = draw(st.sampled_from(sorted(cfg) + ["profile"]))
        if key == "profile":
            # no huge slopes: the shooting for the base state overflows
            params[draw(st.integers(0, len(params) - 1))] = draw(
                st.sampled_from(_BAD_REALS[:-1]))
        elif key == "case":
            cfg[key] = "C"
        elif key in ("N", "n_radial", "n_angular"):
            cfg[key] = draw(st.integers(-2, 2 * N + 1))
        else:
            cfg[key] = draw(st.sampled_from(_BAD_REALS))
    cfg["profile"] = kind + ":" + ",".join(map(repr, params))
    return "".join(f"{key} = {value!r}\n" if isinstance(value, float)
                   else f"{key} = {value}\n" for key, value in cfg.items())


@pytest.mark.parametrize("command", ["base", "scan", "perturb", "solve"])
@settings(max_examples=15, deadline=None, database=None, derandomize=True)
@given(text=_run_configs())
def test_cli_exits_with_documented_code(command, text):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "run.cfg")
        with open(path, "w") as fh:
            fh.write(text)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main([command, "--config", path,
                         "--out", os.path.join(tmp, "out")])
    assert code in _EXIT_CODES
    assert "Traceback" not in err.getvalue()
    if code:
        assert err.getvalue().startswith("error:")
