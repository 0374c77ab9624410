"""Fixtures shared by the test modules."""

import pytest


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
