"""Shared fixtures for the repro test suite.

Also registers the hypothesis settings profiles for the fuzz suites
(``test_differential.py``, ``test_properties.py``): the ``ci`` profile --
selected with ``HYPOTHESIS_PROFILE=ci``, as the CI workflow does -- pins
``derandomize=True`` and ``deadline=None`` so fuzz runs are deterministic
and never flake on shared-runner timing; the default ``dev`` profile
keeps random exploration for local runs.

An autouse fixture clears ``REPRO_ENGINE``, so the suite's results do
not depend on the engine a developer's shell selects.
"""

from __future__ import annotations

import os

import pytest

from repro.network.topology import GridNetwork, LineNetwork

try:
    from hypothesis import settings as _hyp_settings
except ImportError:  # hypothesis is optional outside CI
    pass
else:
    _hyp_settings.register_profile("dev", deadline=None)
    _hyp_settings.register_profile(
        "ci", deadline=None, derandomize=True, print_blob=True)
    _hyp_settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "dev"))


@pytest.fixture(autouse=True)
def _default_engine(monkeypatch):
    """Run every test on the default engine whatever ``REPRO_ENGINE`` the
    shell exports; a test that needs the variable sets it itself."""
    monkeypatch.delenv("REPRO_ENGINE", raising=False)


@pytest.fixture
def line8():
    """Small unit-capacity line."""
    return LineNetwork(8, buffer_size=1, capacity=1)


@pytest.fixture
def line16_b3c3():
    """Line satisfying the deterministic algorithm's B, c >= 3."""
    return LineNetwork(16, buffer_size=3, capacity=3)


@pytest.fixture
def line32_b3c3():
    return LineNetwork(32, buffer_size=3, capacity=3)


@pytest.fixture
def grid4x4():
    return GridNetwork((4, 4), buffer_size=3, capacity=3)


@pytest.fixture
def bufferless8():
    return LineNetwork(8, buffer_size=0, capacity=1)
