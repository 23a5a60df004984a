import pytest

from sigma_convolve.modforms import Basis28


@pytest.fixture(scope="session")
def basis300() -> Basis28:
    """Fifteen-element basis at order 300 for decomposition checks."""
    return Basis28.at_order(300)
