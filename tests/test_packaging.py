"""The package carries one version number: ``repro.__version__``."""

import warnings
from pathlib import Path

import pytest

import repro

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_pyproject_version_is_read_from_the_package():
    tomllib = pytest.importorskip("tomllib")
    data = tomllib.loads(PYPROJECT.read_text())
    assert "version" not in data["project"]
    assert "version" in data["project"]["dynamic"]
    assert data["tool"]["setuptools"]["dynamic"]["version"] == {"attr": "repro.__version__"}


def test_build_metadata_resolves_to_package_version():
    pyprojecttoml = pytest.importorskip("setuptools.config.pyprojecttoml")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        config = pyprojecttoml.read_configuration(PYPROJECT, expand=True)
    assert config["project"]["version"] == repro.__version__
