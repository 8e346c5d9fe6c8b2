import pytest

import helpers


@pytest.fixture
def fresh_tables():
    """Both pillars' tables emptied before and after the test (see
    :func:`helpers.clear_tables`), for a test that plants or swaps one."""
    helpers.clear_tables()
    yield
    helpers.clear_tables()
