"""Shared fixtures of the experiment tests."""

import pytest

from repro.runtime import executor as executor_module


@pytest.fixture
def pricings(monkeypatch):
    """Spec names of the executor's ``compute_effective_stages`` calls."""
    calls = []
    real = executor_module.compute_effective_stages

    def counted(*args, **kwargs):
        calls.append(args[0].name)
        return real(*args, **kwargs)

    monkeypatch.setattr(executor_module, "compute_effective_stages", counted)
    return calls
