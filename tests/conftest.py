"""Fixtures shared by the test modules."""

import numpy as np
import pytest

import stftuniq.entire as entire
import stftuniq.sampling as sampling


class SliceChecks:
    """The strict-increase slice checks made during a test, as (array, k, n)."""

    def __init__(self):
        self.seen = []

    def sweeps_over(self, arr: np.ndarray) -> int:
        """How many passes the recorded slices make over arr; each pass must tile it once."""
        base = arr.__array_interface__["data"][0]
        spans = sorted(((values.__array_interface__["data"][0] - base) // arr.itemsize + k, n)
                       for values, k, n in self.seen if np.shares_memory(values, arr))
        starts, ends = [start for start, _ in spans], sorted(start + n for start, n in spans)
        passes = starts.count(0)
        # slices of positive length form p tilings exactly when they start at p zeros and
        # at every end but p, and those p ends are arr.size
        assert passes > 0 and starts == sorted([0] * passes + ends[:-passes])
        assert ends[-passes:] == [arr.size] * passes
        return passes


@pytest.fixture
def slice_checks(monkeypatch):
    """Record every slice check, both the standalone passes and those inside the product sweep."""
    record = SliceChecks()
    check = sampling._check_slice

    def recording(values, k, n, what):
        record.seen.append((values, k, n))
        check(values, k, n, what)

    monkeypatch.setattr(sampling, "_check_slice", recording)
    monkeypatch.setattr(entire, "_check_slice", recording)
    return record
