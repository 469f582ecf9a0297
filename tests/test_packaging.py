"""``pyproject.toml`` declares an installable package with a working CLI."""

from __future__ import annotations

import pkgutil
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_console_script_resolves_and_runs():
    project = tomllib.loads(PYPROJECT.read_text())["project"]
    assert {"numpy", "scipy"} <= set(project["dependencies"])
    main = pkgutil.resolve_name(project["scripts"]["repro"])
    assert main(["list"]) == 0
