import pytest

from candyfix.engine import compute_tables


@pytest.fixture(scope="session")
def tables_k4():
    """The k=4 tables (about a second), computed once for every test that reads them."""
    return compute_tables(4)
