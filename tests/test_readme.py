"""The README's configuration reference is held to the parser."""

import pathlib
import re

import pytest

from tidaldisk.cli import main
from tidaldisk.config import _KNOWN_KEYS, _PROFILE_KINDS

README = (pathlib.Path(__file__).resolve().parent.parent
          / "README.md").read_text()


def _key_rows():
    """The first two cells of each row of the "Recognized keys" table; a
    pipe inside a cell is escaped, as GitHub's tables need."""
    table = README.split("Recognized keys:", 1)[1].split("\n\n", 2)[1]
    rows = [re.split(r"(?<!\\)\|", line)[1:3]
            for line in table.splitlines()[2:]]
    return [(key.strip(), meaning.strip()) for key, meaning in rows]


def test_readme_lists_every_config_key():
    keys = [k for cell, _ in _key_rows() for k in re.findall(r"`(\w+)`", cell)]
    assert len(keys) == len(set(keys))
    assert set(keys) == _KNOWN_KEYS


def test_readme_lists_every_profile_kind():
    (meaning,) = [m for key, m in _key_rows() if key == "`profile`"]
    kinds = re.findall(r"`([a-z]+)(?::[^`]*)?`", meaning)
    assert sorted(kinds) == sorted(_PROFILE_KINDS)


@pytest.mark.parametrize("command", ["base", "scan", "perturb", "solve"])
def test_readme_example_config_runs(tmp_path, command):
    (example,) = re.findall(r"Example config:\n\n```ini\n(.*?)```", README,
                            re.S)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(example)
    assert main([command, "--config", str(cfg),
                 "--out", str(tmp_path / "out")]) == 0
