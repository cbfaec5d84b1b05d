import pytest

from tidaldisk.config import parse_config_text
from tidaldisk.errors import ConfigError

GOOD = """
# sample run
case = B
profile = rigid:1.0
a0 = 2.0
N = 16
m = 1e-5, 2e-5
"""


def test_parse_good():
    cfg = parse_config_text(GOOD)
    assert cfg.case.is_log
    assert cfg.a0 == 2.0 and cfg.omega0 is None
    assert cfg.N == 16
    assert cfg.m_list == [1e-5, 2e-5]
    assert cfg.tol == 1e-10 and cfg.workers == 1


@pytest.mark.parametrize("N, M", [(16, 256), (64, 256), (128, 512)])
def test_default_angular_grid(N, M):
    # every grid the code chooses is boundary_points(N) = max(256, 4N)
    cfg = parse_config_text(f"case=B\nprofile=rigid:1\na0=2\nN={N}\n")
    assert cfg.n_angular == M


def test_parse_case_a_defaults():
    cfg = parse_config_text("case=A\nnu=0.5\nprofile=rigid:2\nomega0=0.3\n")
    assert cfg.case.nu == 0.5
    assert cfg.omega0 == 0.3 and cfg.a0 is None


@pytest.mark.parametrize("text, frag", [
    ("profile=rigid:1\na0=2\n", "case"),
    ("case=B\na0=2\n", "profile"),
    ("case=B\nprofile=rigid:1\n", "a0 / omega0"),
    ("case=B\nprofile=rigid:1\na0=2\nomega0=1\n", "a0 / omega0"),
    ("case=C\nprofile=rigid:1\na0=2\n", "case"),
    ("case=B\nnu=0.5\nprofile=rigid:1\na0=2\n", "nu"),
    ("case=B\nprofile=rigid:1\na0=2\nbogus=1\n", "unknown key"),
    ("case=B\nprofile=rigid:1\na0=2\na0=3\n", "duplicate"),
    ("case=B\nprofile=rigid:1\na0=2\nN=4\n", "N"),
    ("case=B\nprofile=rigid:1\na0=2\ntol=-1\n", "tol"),
    ("case=B\nprofile=rigid:1\na0=2\nN=64\nn_angular=32\n", "grid"),
    ("case=B\nprofile=rigid:1\na0=2\nm=\n", "m"),
    ("case=B\nprofile=rigid:1\na0=2\nm=x\n", "m"),
    ("case=B\nprofile=wat:1\na0=2\n", "profile kind"),
    ("case=B\nprofile=rigid:nope\na0=2\n", "profile"),
    ("garbage line\n", "key = value"),
    ("case=B\nprofile=rigid:1\na0=not_a_number\n", "number"),
    ("case=B\nprofile=rigid:1\na0=1.2\n", "a0 must be at least 1.5"),
    ("case=B\nprofile=rigid:1\na0=nan\n", "'a0': must be finite"),
    ("case=B\nprofile=rigid:1\nomega0=inf\n", "'omega0': must be finite"),
    ("case=B\nprofile=rigid:1\nomega0=5\n", "admissible interval"),
    ("case=B\nprofile=rigid:1\na0=2\ntol=nan\n", "'tol': must be finite"),
    ("case=B\nprofile=rigid:1\na0=2\nm=1e-5, nan\n", "'m': must be finite"),
    ("case=B\nprofile=rigid:1\na0=2\nm_cap=nan\n", "'m_cap': must be finite"),
    ("case=B\nprofile=rigid:1\na0=2\nm_cap=0\n", "'m_cap': must be positive"),
    ("case=B\nprofile=rigid:1\na0=2\nm_cap=-1\n", "'m_cap': must be positive"),
    ("case=B\nprofile=rigid:1\na0=2\nseed=-1\n", "seed must be non-negative"),
    # |phi0'(1)| <= |offset| / 2; at 1.44e-173 the shooting underflowed
    ("case=B\nprofile=linear:1\na0=2\n", "degenerate"),
    ("case=B\nprofile=linear:1,1.44e-173\na0=2\n", "degenerate"),
])
def test_parse_errors(text, frag):
    with pytest.raises(ConfigError, match=frag):
        parse_config_text(text)


def test_linear_profile_and_comments():
    cfg = parse_config_text(
        "case=B  # log kernel\nprofile = linear:0.5,-1.0\na0 = 3\n")
    assert cfg.profile.eval(0.0) == -1.0
    assert cfg.profile.eval(2.0) == 0.0
