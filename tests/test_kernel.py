import numpy as np
import pytest

from tidaldisk.kernel import (VorticityProfile, linear_preset,
                              profile_from_csv, profile_from_table,
                              rigid_preset)


def test_rigid_preset_constant_value():
    p = rigid_preset(1.0)
    assert p.eval(0.37) == -2.0
    assert p.d1(5.0) == 0.0
    assert rigid_preset(0.5).eval(-1.0) == -1.0


def test_rigid_preset_rejects_nonpositive():
    with pytest.raises(ValueError):
        rigid_preset(0.0)
    with pytest.raises(ValueError):
        rigid_preset(-1.0)


def test_linear_preset_rejects_negative_slope():
    with pytest.raises(ValueError):
        linear_preset(-0.5, -2.0)


def _fd_error(p, u, h):
    approx = (p.eval(u + h) - p.eval(u - h)) / (2 * h)
    return abs(approx - p.d1(u))


def test_derivative_consistency_second_order():
    p = VorticityProfile(lambda u: np.tanh(u) + u,
                         lambda u: 1.0 / np.cosh(u) ** 2 + 1.0)
    rng = np.random.default_rng(3)
    for u in rng.uniform(-2, 2, size=12):
        e1 = _fd_error(p, u, 1e-3)
        e2 = _fd_error(p, u, 5e-4)
        # second-order quotient: error drops by about 4 when h halves
        assert e1 < 1e-5
        assert e2 < e1


def test_table_profile_monotone_and_extrapolates():
    u = np.linspace(-2, 2, 21)
    g = np.tanh(u)
    p = profile_from_table(u, g)
    # PCHIP keeps the table's monotonicity
    x = np.linspace(-5.0, 5.0, 1001)
    assert np.all(np.diff(p.eval(x)) >= 0.0) and np.all(p.d1(x) >= 0.0)
    x = np.linspace(-1.8, 1.8, 50)
    assert np.max(np.abs(p.eval(x) - np.tanh(x))) < 1e-3
    # linear extrapolation keeps it non-decreasing
    assert p.eval(5.0) >= p.eval(2.0)
    assert p.d1(5.0) >= 0.0


def test_table_profile_rejects_decreasing():
    u = np.linspace(0, 1, 5)
    with pytest.raises(ValueError):
        profile_from_table(u, np.array([0.0, 0.5, 0.4, 0.8, 1.0]))


def test_profile_from_csv(tmp_path):
    path = tmp_path / "g.csv"
    u = np.linspace(-1, 1, 9)
    rows = "\n".join(f"{ui},{np.tanh(ui)}" for ui in u)
    path.write_text("# u, G\n" + rows + "\n")
    p = profile_from_csv(str(path))
    assert abs(p.eval(0.3) - np.tanh(0.3)) < 1e-3


def test_profile_from_csv_bad_row(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("0,0\n1,not_a_number\n")
    with pytest.raises(ValueError):
        profile_from_csv(str(path))
