import os

import pytest

from veronese import bundles, verify


@pytest.fixture
def fresh_orbit_memo():
    """Empties `bundles._orbit_type` before and after the test, so that a
    type cached before it never hides a fault it injects into the
    restriction path (or a scan it counts), and a type cached under the
    fault never reaches a later test."""
    bundles._orbit_type.cache_clear()
    yield
    bundles._orbit_type.cache_clear()


@pytest.fixture(params=["forked", "serial"])
def verify_runner(request, monkeypatch):
    """Runs the test once with `verify`'s two-process runner forking, on any
    CPU count, and once with it running both halves in order, by fixing
    the answer of its one probe, `verify._can_fork`."""
    if request.param == "forked" and not hasattr(os, "fork"):
        pytest.skip("no os.fork on this platform")
    monkeypatch.setattr(verify, "_can_fork", lambda: request.param == "forked")
    return request.param
