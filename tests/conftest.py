import pytest

from sigma_convolve import eta
from sigma_convolve.modforms import Basis28

GENERATOR_OF = {eta.cusp_spec(j): j for j in eta.CUSP_GENERATORS}


@pytest.fixture(scope="session")
def basis300() -> Basis28:
    """Fifteen-element basis at order 300 for decomposition checks."""
    return Basis28.at_order(300)


@pytest.fixture
def fresh_cusp_store(monkeypatch) -> list:
    """An empty cusp store for one test, and the test's ``eta.expand``
    calls as (generator index, or the spec of any other quotient, order)."""
    monkeypatch.setattr(eta, "_cusp_cache", {})
    monkeypatch.setattr(eta, "_cusp_view", None)
    calls = []
    expand = eta.expand

    def recording_expand(spec, order):
        calls.append((GENERATOR_OF.get(spec, spec), order))
        return expand(spec, order)

    monkeypatch.setattr(eta, "expand", recording_expand)
    return calls
