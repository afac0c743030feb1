"""Shared test helpers."""

import tracemalloc

import pytest

from opgrowth.errors import CapExceededError


@pytest.fixture
def trips_before_allocating():
    """Check that ``fn()`` raises ``error`` (CapExceededError unless given) while
    allocating under 1 MB in total."""

    def check(fn, error=CapExceededError):
        tracemalloc.start()
        try:
            with pytest.raises(error):
                fn()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20, f"peak {peak} bytes before the guard tripped"

    return check
