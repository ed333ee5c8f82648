"""Fixtures shared by the test modules."""
import pytest

from shiftlab import MatchingAssignment

PER_B_COLUMNS = ("b_indices", "a_indices", "rounds")


@pytest.fixture
def no_per_b_columns(monkeypatch):
    """Make every per-b column of a matching raise when it is read, so a
    test can show that a path deals from the runs alone."""
    def refuse(self):
        raise AssertionError("a per-b column was built")

    for name in PER_B_COLUMNS:
        monkeypatch.setattr(MatchingAssignment, name, property(refuse))
