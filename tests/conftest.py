import pytest

from veronese import bundles


@pytest.fixture
def fresh_orbit_memo():
    """Empties `bundles._orbit_type` before and after the test, so that a
    type cached before it never hides a fault it injects into the
    restriction path (or a scan it counts), and a type cached under the
    fault never reaches a later test."""
    bundles._orbit_type.cache_clear()
    yield
    bundles._orbit_type.cache_clear()
