import pytest

from bimoment import quadrature


@pytest.fixture(autouse=True)
def _empty_moment_memo():
    """Every test starts and ends with an empty memo of one-sided runs, so
    no test is answered by another test's integration and the suite does
    not depend on test order."""
    quadrature._moment_memo.clear()
    yield
    quadrature._moment_memo.clear()
