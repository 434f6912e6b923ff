"""Fixtures shared across test modules."""

import pytest

from pwlregions.acceptance import run_all


@pytest.fixture(scope="session")
def acceptance_seed0():
    """The acceptance suite's results at seed 0, computed once per session."""
    return run_all(seed=0)
