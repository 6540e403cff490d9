"""Shared fixtures: Python ints that record the largest intermediate they produce."""

import numpy as np
import pytest


class Tracked(int):
    """A Python int whose arithmetic results record the largest magnitude."""

    peak = 0


def _tracked(value):
    if value is NotImplemented:   # the other operand is an array
        return value
    Tracked.peak = max(Tracked.peak, abs(int(value)))
    return Tracked(value)


for _name in ("add", "sub", "mul", "floordiv", "mod"):
    for _dunder in (f"__{_name}__", f"__r{_name}__"):
        setattr(Tracked, _dunder,
                lambda self, other, _op=getattr(int, _dunder): _tracked(_op(self, other)))
Tracked.__neg__ = lambda self: _tracked(-int(self))
Tracked.__abs__ = lambda self: _tracked(abs(int(self)))
# an int, or an integer array as an object array, as Tracked values
Tracked.wrap = staticmethod(np.frompyfunc(lambda v: Tracked(int(v)), 1, 1))


@pytest.fixture
def tracked():
    """The Tracked class with its recorded peak reset to zero."""
    Tracked.peak = 0
    return Tracked
