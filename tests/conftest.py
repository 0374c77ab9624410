"""Fixtures and hypothesis profiles shared by the test modules.

A plain run loads the "derandomized" profile, so every property test draws
the same examples on every run.  `--hypothesis-profile=random` draws fresh
ones, reproducible with `--hypothesis-seed=N`, and keeps no example
database."""

import pytest
from hypothesis import settings

from evoctl.models import _wave_dual_map, _wave_operators

settings.register_profile("derandomized", derandomize=True)
settings.register_profile("random", derandomize=False, database=None)
settings.load_profile("derandomized")


@pytest.fixture
def calls_to(monkeypatch):
    """calls_to(module, name) replaces module.name, for the test, by a wrapper
    that appends the positional arguments of every call to the returned list."""
    def install(module, name):
        calls, original = [], getattr(module, name)

        def wrapper(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)
        return calls

    return install


@pytest.fixture
def dual_map():
    """dual_map(sys) is the physical dual map of a wave's boundary observation,
    rebuilt from the grid its geometry keeps as the boundary equation check
    rebuilds it."""
    return lambda sys: _wave_dual_map(*_wave_operators(sys.geometry["grid"])[:3])
