"""The Hypothesis profile that ``conftest.py`` loads for tier-1: every run
of a commit draws the same examples."""

from hypothesis import given, settings
from hypothesis import strategies as st


def _draws():
    drawn = []

    @settings(max_examples=20, deadline=None)
    @given(st.floats(-1e300, 1e300))
    def record(x):
        drawn.append(x)

    record()
    return drawn


def test_two_runs_draw_the_same_examples():
    assert settings.get_current_profile_name() == "tier1"
    assert settings.default.derandomize and settings.default.database is None
    assert _draws() == _draws()
