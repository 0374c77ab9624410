"""Fixtures and hypothesis profiles shared by the test modules.

A plain run loads the "derandomized" profile, so every property test draws
the same examples on every run.  `--hypothesis-profile=random` draws fresh
ones, reproducible with `--hypothesis-seed=N`, and keeps no example
database."""

import numpy as np
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
    """dual_map(grid) is the physical dual map of the boundary observation of
    a wave built on grid, rebuilt as the boundary equation check rebuilds it."""
    return lambda grid: _wave_dual_map(*_wave_operators(grid)[:3])


@pytest.fixture(scope="session")
def graph_map():
    """graph_map(pair, side) is the dense matrix S = (sqrt(W); sqrt(W_out) O)
    of the graph inner product <u|v>_W + <Ou|Ov>_W_out = (Su)^H (Sv) of a
    boundary data space: W0, G and W1 on the node side 'G', W1, D and W0 on
    the cell side 'D'.  S^H S is the dense graph form; products with S keep
    the accuracy that forming S^H S loses on short grids."""
    def stack(pair, side):
        W, O, W_out = (pair.W0, pair.G, pair.W1) if side == "G" else (pair.W1, pair.D, pair.W0)
        return np.vstack([np.diag(np.sqrt(W)), np.sqrt(W_out)[:, None] * O])
    return stack
