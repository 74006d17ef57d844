"""Fixtures shared by the test modules."""

import warnings

import pytest


@pytest.fixture
def raises_quietly():
    """``raises_quietly(error, fn, *args)``: ``fn(*args)`` raises ``error``
    and gives no warning on the way."""
    def check(error, fn, *args):
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            with pytest.raises(error):
                fn(*args)
        assert not seen, [str(w.message) for w in seen]
    return check
