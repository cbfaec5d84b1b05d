import contextlib
import csv
import io
import json
import os
import pathlib
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tidaldisk import cli, radial_ode
from tidaldisk.chebyshev import DEFAULT_RADIAL, _radial_basis
from tidaldisk.cli import main
from tidaldisk.coeffs import build_mode_table
from tidaldisk.verify import _linear_closed_forms

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
    nodes = [0.0, *_radial_basis(DEFAULT_RADIAL).r[::-1]]
    assert base["phi0_nodes"] == nodes
    assert len(base["phi0_values"]) == DEFAULT_RADIAL + 1
    assert base["phi0_values"][-1] == 0.0
    assert [float(r) for r, _ in rows] == nodes
    assert [float(v) for _, v in rows] == base["phi0_values"]


@pytest.mark.parametrize("profile, solver", [("rigid:1.0", "closed_form"),
                                              ("linear:1,-2", "shooting")])
def test_base_json_names_phi0_solver(tmp_path, profile, solver):
    # a constant G takes phi0 = (G0/4)(r^2 - 1) exactly, with no boundary
    # mismatch; a rising G is shot and records the shot's |phi(1)|
    cfg = _write_cfg(tmp_path, BASE_CFG.replace("rigid:1.0", profile))
    out = tmp_path / "out"
    assert main(["base", "--config", cfg, "--out", str(out)]) == 0
    base = _read_json(out / "base.json")
    assert base["phi0_solver"] == solver
    if solver == "closed_form":
        assert base["phi0_mismatch"] == 0.0 and base["dphi0_at_1"] == -1.0
    else:
        assert 0.0 <= base["phi0_mismatch"] < 1e-12


@pytest.mark.parametrize("profile, solver", [("rigid:1.0", "closed_form"),
                                              ("linear:1,-2", "collocation")])
def test_scan_json_names_mode_table_solver(tmp_path, profile, solver):
    # a constant G takes A_n'(1) = G0/(2(n+1)) exactly; a rising G is
    # collocated
    cfg = _write_cfg(tmp_path, BASE_CFG.replace("rigid:1.0", profile))
    out = tmp_path / "out"
    assert main(["scan", "--config", cfg, "--out", str(out)]) == 0
    assert _read_json(out / "scan.json")["mode_table_solver"] == solver
    if solver == "closed_form":
        _, rows = _read_csv(out / "modes.csv")
        assert [float(r[1]) for r in rows] == [-1.0 / (n + 1)
                                               for n in range(len(rows))]


def test_base_deterministic(tmp_path):
    cfg = _write_cfg(tmp_path, BASE_CFG)
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    main(["base", "--config", cfg, "--out", str(out1)])
    main(["base", "--config", cfg, "--out", str(out2)])
    assert (out1 / "base.json").read_bytes() == (out2 / "base.json").read_bytes()
    assert (out1 / "phi0.csv").read_bytes() == (out2 / "phi0.csv").read_bytes()


def test_base_strong_rigid_rotation(tmp_path):
    # nearly rigid, G = 1e-6 u - 1e5: G rises, so phi0 is shot, in a range
    # that scales with |G(0)| = 1e5; phi0'(1) is 5e4 times that of
    # G = 1e-6 u - 2
    cfg = _write_cfg(tmp_path,
                     "case = B\nprofile = linear:1e-6,-1e5\na0 = 2.0\n")
    out = tmp_path / "out"
    assert main(["base", "--config", cfg, "--out", str(out)]) == 0
    base = _read_json(out / "base.json")
    assert base["phi0_solver"] == "shooting"
    dphi0 = 5e4 * _linear_closed_forms(1e-6, np.ones(1), 0)[1]
    assert abs(base["dphi0_at_1"] - dphi0) < 1e-7


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
    # 5e-9, and solve at m = 0 and tol 1e-10 corrects it in one step
    u = np.linspace(-1.5, 0.5, 41)
    table = tmp_path / "g.csv"
    table.write_text("".join(f"{x!r},{-2.0 + x + 4.0 * x**3!r}\n"
                             for x in u.tolist()))
    cfg = _write_cfg(tmp_path, f"case = B\nprofile = csv:{table}\na0 = 2.0\n"
                     "N = 16\nm = 0\ntol = 1e-10\n")
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    assert not (out / "error.json").exists()
    sol = _read_json(out / "solution_0.0.json")
    assert sol["iterations"] == 2 and sol["residual_norm"] < 1e-10
    assert 1e-10 < sol["history"][0] < 1e-7


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
    # the residual uses, not on the default 64 radii; on a linear G, which
    # is collocated (a constant G's closed-form table has no grid)
    ops = []
    make_operator = cli.make_operator

    def spy(*args, **kwargs):
        ops.append(make_operator(*args, **kwargs))
        return ops[-1]

    monkeypatch.setattr(cli, "make_operator", spy)
    text = BASE_CFG.replace("rigid:1.0", "linear:1,-2")
    cfg = _write_cfg(tmp_path, text + "n_radial = 48\nm = 1e-5\n")
    assert main(["perturb", "--config", cfg, "--out", str(tmp_path)]) == 0
    base = ops[0].base
    assert base.constant_g is None
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


@pytest.mark.parametrize("command", ["base", "scan", "perturb", "solve"])
@pytest.mark.parametrize("spec", ["rigid:1e155", "linear:0,1e300"])
def test_overflowing_base_state_exit_code(tmp_path, capsys, spec, command):
    # phi0'(1) is finite, but lambda0 = phi0'(1)^2 / 2 + ... overflows
    cfg = _write_cfg(tmp_path, f"case = B\nprofile = {spec}\na0 = 2.0\n"
                               "N = 16\nm = 1e-6\n")
    out = tmp_path / "o"
    assert main([command, "--config", cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "overflows" in err
    assert _read_json(out / "error.json")["exit_code"] == 1
    for path in out.glob("*.json"):
        text = path.read_text()
        assert "NaN" not in text and "Infinity" not in text, path.name


@pytest.mark.parametrize("command", ["base", "scan", "perturb", "solve"])
@pytest.mark.parametrize("spec", ["linear:1000,-2", "linear:2000,-2"])
def test_steep_profile_shooting_mismatch_exit_code(tmp_path, capsys, spec,
                                                   command):
    # the shot misses phi0(1) = 0 by 6e-3 and 1.0 of max|phi0|, and its
    # phi0'(1) is as far off (-924 against -0.044 at slope 2000)
    cfg = _write_cfg(tmp_path, f"case = B\nprofile = {spec}\na0 = 2.0\n"
                               "N = 16\nm = 1e-6\n")
    out = tmp_path / "o"
    assert main([command, "--config", cfg, "--out", str(out)]) == 1
    assert "misses phi0(1) = 0" in capsys.readouterr().err
    assert sorted(p.name for p in out.iterdir()) == ["error.json"]
    assert _read_json(out / "error.json")["exit_code"] == 1


def test_brent_failure_exit_code(tmp_path, capsys, monkeypatch):
    # a Brent step that hits its iteration cap (as on some steep tables)
    # leaves as a package error with error.json, not a traceback; the G
    # rises, since a constant G takes phi0 in closed form and shoots nothing
    def capped(*args, **kwargs):
        raise RuntimeError("Failed to converge after 100 iterations")

    monkeypatch.setattr(radial_ode, "brentq", capped)
    out = tmp_path / "o"
    cfg = _write_cfg(tmp_path, BASE_CFG.replace("rigid:1.0", "linear:1,-2"))
    assert main(["base", "--config", cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Failed to converge" in err
    assert "Traceback" not in err
    assert _read_json(out / "error.json")["exit_code"] == 1


def test_huge_base_state_history_is_finite(tmp_path, capsys):
    # lambda0 = 5e199: the residuals near 1e187 square past the float
    # range, but their norms do not, and the stop rule scales with
    # phi0'(1)^2 = 1e200, so the solve converges and its history stays
    # valid JSON
    cfg = _write_cfg(tmp_path, "case = B\nprofile = rigid:1e100\na0 = 2.0\n"
                               "N = 16\nm = 1e-6\n")
    out = tmp_path / "o"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    text = (out / "solution_1e-06.json").read_text()
    assert "NaN" not in text and "Infinity" not in text
    history = json.loads(text)["history"]
    assert history and np.all(np.isfinite(history))


def test_large_base_state_converges(tmp_path, capsys):
    # lambda0 = 1.25e9: an absolute tol of 1e-10 lies below the rounding
    # of the Bernoulli terms, tol * phi0'(1)^2 does not
    cfg = _write_cfg(tmp_path, "case = B\nprofile = rigid:50000\na0 = 2.0\n"
                               "N = 16\nm = 1e-9\n")
    out = tmp_path / "o"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    sol = _read_json(out / "solution_1e-09.json")
    assert sol["residual_norm"] < 1e-10 * 2.5e9


def test_solve_exit_on_resonance(tmp_path, capsys):
    # on the n = 2 resonance, as for scan: a nonzero mass reaches the
    # linear solve and exits 3, as scan and perturb do
    w = float(np.sqrt(np.pi) / 2.0)
    cfg = _write_cfg(tmp_path, f"case = B\nprofile = rigid:{w!r}\na0 = 2.0\n"
                               "N = 16\nm = 1e-5\n")
    out = tmp_path / "o"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 3
    report = _read_json(out / "error.json")
    assert report["error"] == "ResonanceError" and "n=2" in report["message"]


# Multiples of the former default cap 1e-3 min|omega_n| (2.481e-5 on the
# case B config, 1.450e-4 on the case A one), which refused them all: the
# loop's own checks admit what converges and stop what folds.
_CASE_B_LINEAR = "case = B\nprofile = linear:1,-2\na0 = 2.0\nN = 128\n"
_CASE_A_RIGID = "case = A\nnu = 0.5\nprofile = rigid:1\na0 = 2.0\nN = 64\n"


@pytest.mark.parametrize("config, m, iterations", [
    (_CASE_B_LINEAR, 7.44e-3, 13),   # 300 x the former cap
    (_CASE_A_RIGID, 0.145, 31),      # 1000 x
], ids=["B-300x", "A-1000x"])
def test_solve_beyond_former_mass_cap(tmp_path, capsys, config, m, iterations):
    cfg = _write_cfg(tmp_path, config + f"m = {m!r}\n")
    out = tmp_path / "o"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    sol = _read_json(out / f"solution_{m!r}.json")
    assert sol["residual_norm"] < 1e-10
    assert sol["iterations"] <= iterations + 2


@pytest.mark.parametrize("config, m", [
    (_CASE_B_LINEAR, 0.0993),  # 4000 x the former cap
    (_CASE_A_RIGID, 0.58),     # 4000 x
], ids=["B-4000x", "A-4000x"])
def test_solve_folding_mass_diverges(tmp_path, capsys, config, m):
    cfg = _write_cfg(tmp_path, config + f"m = {m!r}\n")
    out = tmp_path / "o"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 4
    report = _read_json(out / "error.json")
    assert report["error"] == "DivergenceError"
    assert "injectivity" in report["message"]


@pytest.mark.parametrize("command", ["scan", "perturb", "solve"])
def test_overflowing_multipliers_exit_code(tmp_path, capsys, command):
    # lambda0 = 5e307 is finite, but -(1/2) phi0'(1)^2 (n+1) overflows
    cfg = _write_cfg(tmp_path, "case = B\nprofile = rigid:1e154\na0 = 2.0\n"
                               "N = 16\nm = 1e-6\n")
    out = tmp_path / "o"
    assert main([command, "--config", cfg, "--out", str(out)]) == 1
    assert "omega_n overflow" in capsys.readouterr().err
    assert sorted(p.name for p in out.iterdir()) == ["error.json"]


@pytest.mark.parametrize("command", ["base", "scan", "perturb", "solve"])
def test_overflowing_profile_exit_code(tmp_path, capsys, command):
    # G = 1e300 u + 1e300 overflows on [-G(0)/4, 0] = [-2.5e299, 0]
    cfg = _write_cfg(tmp_path, "case = B\nprofile = linear:1e300,1e300\n"
                               "a0 = 2.0\nN = 16\nm = 1e-6\n")
    out = tmp_path / "o"
    assert main([command, "--config", cfg, "--out", str(out)]) == 1
    assert "G overflows" in capsys.readouterr().err
    assert sorted(p.name for p in out.iterdir()) == ["error.json"]
    assert _read_json(out / "error.json")["exit_code"] == 1


@pytest.mark.parametrize("command", ["scan", "solve"])
@pytest.mark.parametrize("case, a0", [("A\nnu = 1.0", 600.0),
                                      ("A\nnu = 0.5", 1500.0),
                                      ("B", 13000.0)],
                         ids=["A1", "A0.5", "B"])
def test_far_particle_translation_mode(tmp_path, capsys, command, case, a0):
    # omega_1 = -omega0^2/2 falls below the 1e-8 resonance test at these
    # distances; mode 1 is the translation and never resonates
    cfg = _write_cfg(tmp_path, f"case = {case}\nprofile = linear:1,-2\n"
                               f"a0 = {a0}\nN = 16\nm = 1e-12\n")
    out = tmp_path / "o"
    assert main([command, "--config", cfg, "--out", str(out)]) == 0
    if command == "scan":
        report = _read_json(out / "scan.json")
        assert report["resonances"] == [] and report["argmin_n"] >= 2
    else:
        assert _read_json(out / "solution_1e-12.json")["iterations"] == 1


def _assert_outputs_finite(out):
    """Every JSON in out parses with NaN and Infinity refused, and every
    CSV field is a finite number."""
    def refuse(name):
        raise ValueError(f"non-finite {name}")

    for path in out.glob("*.json"):
        json.loads(path.read_text(), parse_constant=refuse)
    for path in out.glob("*.csv"):
        _, rows = _read_csv(path)
        assert all(np.isfinite(float(v)) for row in rows for v in row), path


@pytest.mark.parametrize("m", [1.7e308, -1.7e308])
@pytest.mark.parametrize("command, profile, a0, code", [
    ("solve", "rigid:1", 1.5, 4), ("solve", "linear:1,-2", 1000.0, 4),
    ("perturb", "rigid:1", 1.5, 0), ("perturb", "rigid:1", 4.0, 1)])
def test_mass_near_float_maximum(tmp_path, capsys, command, profile, a0,
                                 code, m):
    # the first-order shape m h1, its derivative or the field m psi
    # overflows: solve refuses the start, and perturb writes its outputs
    # only where they are finite (warnings are errors under the test
    # settings)
    cfg = _write_cfg(tmp_path, f"case = B\nprofile = {profile}\n"
                               f"a0 = {a0}\nN = 16\nm = {m!r}\n")
    out = tmp_path / "o"
    assert main([command, "--config", cfg, "--out", str(out)]) == code
    _assert_outputs_finite(out)
    if code:
        assert _read_json(out / "error.json")["exit_code"] == code


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
    """A small-N config of either kernel, a0 often near its minimum 1.5 and
    sometimes far out; masses small or near the float maximum; half of
    them with one value made non-finite or out of range."""
    N = draw(st.integers(8, 16))
    cfg = {"case": draw(st.sampled_from(["A", "B"]))}
    if cfg["case"] == "A":
        cfg["nu"] = draw(st.floats(0.05, 1.0))
    if draw(st.integers(0, 3)):
        cfg["a0"] = draw(st.one_of(st.floats(1.5, 1.6), st.floats(1.5, 6.0),
                                   st.floats(1e3, 1e6)))
    else:
        cfg["omega0"] = draw(st.floats(0.05, 1.5))
    kind = draw(st.sampled_from(["rigid", "linear"]))
    # huge values overflow the shooting or the base state
    huge = st.sampled_from([1e6, 1e155, 1e300])
    params = ([draw(st.one_of(st.floats(0.1, 3.0), huge))] if kind == "rigid"
              else [draw(st.one_of(st.floats(0.0, 20.0), huge)),
                    draw(st.one_of(st.floats(-4.0, 1.0), huge))])
    cfg.update(N=N, n_radial=draw(st.integers(8, 24)),
               n_angular=draw(st.integers(2 * N + 2, 64)),
               m=draw(st.one_of(st.floats(-1e-4, 1e-4), st.sampled_from(
                   [1e300, -1e300, 1.7e308, -1.7e308]))))
    if draw(st.booleans()):
        cfg["tol"] = draw(st.floats(1e-13, 1e-6))
    if draw(st.booleans()):
        cfg["m_cap"] = draw(st.floats(1e-6, 1.0))
    if draw(st.booleans()):
        key = draw(st.sampled_from(sorted(cfg) + ["profile"]))
        if key == "profile":
            params[draw(st.integers(0, len(params) - 1))] = draw(
                st.sampled_from(_BAD_REALS))
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
@settings(max_examples=20, deadline=None, database=None, derandomize=True)
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
        _assert_outputs_finite(pathlib.Path(tmp, "out"))
    assert code in _EXIT_CODES
    assert "Traceback" not in err.getvalue()
    if code:
        assert err.getvalue().startswith("error:")
