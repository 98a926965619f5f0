"""Property tests for the bounded duplicate-suppression cache.

The seen-cache guards every flooding protocol's relay decision; its
bound invariants must hold for *any* mark sequence, not just the ones
the protocol tests happen to produce — exactly the job for hypothesis.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.routing.seen import SeenCache

# Small key space forces duplicates; small caps force evictions.
_KEYS = st.integers(min_value=0, max_value=50)


class TestSeenCacheProperties:
    @given(
        marks=st.lists(
            st.tuples(_KEYS, st.floats(0.0, 1000.0)), min_size=1, max_size=200
        ),
        cap=st.integers(1, 16),
        horizon=st.floats(0.1, 100.0),
    )
    @settings(max_examples=200)
    def test_prune_invariant(self, marks, cap, horizon):
        # After every *inserting* mark at time `now`: either the cache
        # is within its capacity, or every surviving entry is younger
        # than the aging horizon (the prune keeps t >= now - horizon).
        # Duplicate marks don't insert, so they don't trigger a prune.
        c = SeenCache(horizon=horizon, cap=cap)
        marks.sort(key=lambda kv: kv[1])  # sim time is monotone
        for k, now in marks:
            inserted = c.mark(k, now)
            if inserted and len(c) > cap:
                assert all(t >= now - horizon for t in c._seen.values())

    @given(
        marks=st.lists(
            st.tuples(_KEYS, st.floats(0.0, 1000.0)), min_size=1, max_size=200
        ),
        cap=st.integers(1, 16),
    )
    def test_mark_is_duplicate_detection(self, marks, cap):
        c = SeenCache(horizon=10.0, cap=cap)
        marks.sort(key=lambda kv: kv[1])
        for k, now in marks:
            held = k in c
            assert c.mark(k, now) == (not held)

    @given(keys=st.sets(_KEYS, min_size=1, max_size=20))
    def test_insert_is_unconditional(self, keys):
        c = SeenCache(horizon=10.0, cap=4)
        for k in keys:
            c.insert(k, 0.0)
            assert k in c
        # insert never prunes; all keys coexist regardless of cap.
        assert len(c) == len(keys)

    def test_old_entries_age_out_under_pressure(self):
        c = SeenCache(horizon=5.0, cap=2)
        c.mark("old", 0.0)
        c.mark("mid", 8.0)
        c.mark("new", 10.0)  # overflow triggers prune at cutoff 5.0
        assert "old" not in c
        assert "mid" in c and "new" in c
