"""Packaging: one version number (``repro.__version__``) and a runtime
that needs none of the dev-only dependencies."""

import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import repro

ROOT = Path(__file__).resolve().parents[1]
PYPROJECT = ROOT / "pyproject.toml"


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


def test_scipy_is_a_dev_dependency_only():
    tomllib = pytest.importorskip("tomllib")
    data = tomllib.loads(PYPROJECT.read_text())
    assert not any(dep.startswith("scipy") for dep in data["project"]["dependencies"])
    assert any(dep.startswith("scipy") for dep in data["project"]["optional-dependencies"]["dev"])


FIGURES_WITHOUT_SCIPY = """
import sys
from repro.dataset import generate_dataset
from repro.figures.registry import all_figures, run_figure
from repro.workload.generator import WorkloadConfig

dataset = generate_dataset(WorkloadConfig(scale=0.01, seed=101))
for figure_id in all_figures():
    run_figure(figure_id, dataset)
loaded = sorted(name for name in sys.modules if name.split(".")[0] == "scipy")
assert not loaded, loaded
print("figures", len(all_figures()))
"""


def test_figure_registry_runs_without_importing_scipy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH", "")) if p
    )
    done = subprocess.run(
        [sys.executable, "-c", FIGURES_WITHOUT_SCIPY],
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    assert done.stdout.startswith("figures ")
