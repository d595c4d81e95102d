import sys

import pytest


@pytest.fixture
def digit_limit():
    """Python's default limit on int/str conversion, whatever the environment sets."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield 4300
    sys.set_int_max_str_digits(old)
