"""The package version has one source of truth: pyproject.toml."""

import pathlib
import re

import fedosov_lab


def test_version_matches_pyproject():
    text = (pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml").read_text(
        encoding="utf-8")
    project = text.split("[project]", 1)[1].split("\n[", 1)[0]
    m = re.search(r'^version\s*=\s*"([^"]+)"', project, re.MULTILINE)
    assert m is not None
    assert fedosov_lab.__version__ == m.group(1)
