"""Run the doctest examples embedded in module docstrings."""

import doctest

import pytest

import repro
import repro.frame
import repro.plot
import repro.slurm.interchange


@pytest.mark.parametrize(
    "module",
    [repro.frame, repro.plot, repro.slurm.interchange],
    ids=lambda m: m.__name__,
)
def test_module_doctests(module):
    results = doctest.testmod(module, verbose=False)
    assert results.failed == 0
    assert results.attempted > 0


def test_package_quickstart_doctest():
    # the top-level example generates a tiny dataset (~2 s)
    results = doctest.testmod(repro, verbose=False)
    assert results.failed == 0
    assert results.attempted >= 2
