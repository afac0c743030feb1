"""Shared test helpers."""

import tracemalloc

import pytest

from opgrowth.errors import CapExceededError


@pytest.fixture
def trips_before_allocating():
    """Check that ``fn()`` raises CapExceededError while allocating under 1 MB in total."""

    def check(fn):
        tracemalloc.start()
        try:
            with pytest.raises(CapExceededError):
                fn()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20, f"peak {peak} bytes before the guard tripped"

    return check
