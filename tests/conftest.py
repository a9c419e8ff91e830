import pytest

from candyfix.engine import certify, compute_tables


@pytest.fixture(scope="session")
def tables_k4():
    """The k=4 tables (about 60 ms), computed once for every test that reads them."""
    return compute_tables(4)


@pytest.fixture(scope="session")
def certificate_k4():
    """The k=4 certificate, from the tables certify computes itself, made once."""
    return certify(4)


@pytest.fixture(scope="session")
def tables_k5():
    """The k=5 tables (about 0.5 s), computed once for every test that reads them."""
    return compute_tables(5)


@pytest.fixture(scope="session")
def certificate_k5():
    """The k=5 certificate, from the tables certify computes itself, made once."""
    return certify(5)
