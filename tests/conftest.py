"""Fixtures shared by the test modules."""

import pytest

from indefstring import propagation
from indefstring.coefficients import coefficient_view


@pytest.fixture
def walks(monkeypatch):
    """The string of every sweep plan (_Walk) built, from an empty view cache
    on (plans are keyed by the view, so fresh views have none), and whether
    it plans a row sweep."""
    built = []

    class Counted(propagation._Walk):
        def __init__(self, view, xs):
            super().__init__(view, xs)
            built.append((view.spec, self.row is not None))

    monkeypatch.setattr(propagation, "_Walk", Counted)
    coefficient_view.cache_clear()
    yield built
    coefficient_view.cache_clear()
