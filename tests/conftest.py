import hypothesis
import pytest

from qcrit import digits

hypothesis.settings.register_profile(
    "qcrit", max_examples=60, deadline=None, derandomize=True)
hypothesis.settings.load_profile("qcrit")


@pytest.fixture
def fresh_digit_tables():
    """Digit tables built while the test runs, so that a fault patched
    into qcrit.digits reaches them, and none of them outlives the test."""
    digits.digit_tables.cache_clear()
    yield
    digits.digit_tables.cache_clear()
