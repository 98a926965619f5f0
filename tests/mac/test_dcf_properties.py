"""Property-based MAC tests: conservation and backoff sanity."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.drops import DropReason
from tests.mac.conftest import Testbed


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(0, 1000),
    n_nodes=st.integers(2, 6),
    n_packets=st.integers(1, 25),
)
def test_unicast_conservation(seed, n_nodes, n_packets):
    """Every submitted unicast is exactly one of: delivered, dropped at
    the IFQ, dropped at the retry limit, or still queued/in service."""
    rng = np.random.default_rng(seed)
    # Clustered positions so most (not all) pairs are in range.
    positions = [(float(rng.uniform(0, 400)), float(rng.uniform(0, 400)))
                 for _ in range(n_nodes)]
    tb = Testbed(positions, seed=seed)
    submitted = 0
    for _ in range(n_packets):
        src = int(rng.integers(0, n_nodes))
        dst = int(rng.integers(0, n_nodes))
        if src == dst:
            continue
        tb.macs[src].send(tb.packet(src, dst), dst)
        submitted += 1
    tb.sim.run(until=60.0)

    delivered = sum(len(u.delivered) for u in tb.uppers)
    ifq_drops = tb.sim.drops.counts[DropReason.IFQ_FULL]
    retry_drops = sum(m.stats.drops_retry_limit for m in tb.macs)
    leftovers = sum(len(m.ifq) for m in tb.macs) + sum(
        1 for m in tb.macs if m._current is not None
    )
    assert delivered + ifq_drops + retry_drops + leftovers == submitted


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 500), senders=st.integers(2, 5))
def test_saturated_clique_no_livelock(seed, senders):
    """A fully-connected clique under burst load must drain: everyone's
    queue empties and the medium returns to idle."""
    positions = [(i * 30.0, 0.0) for i in range(senders + 1)]
    tb = Testbed(positions, seed=seed)
    for i in range(1, senders + 1):
        for _ in range(5):
            tb.macs[i].send(tb.packet(i, 0), 0)
    tb.sim.run(until=120.0)
    assert all(m.ifq.is_empty for m in tb.macs)
    assert all(m._current is None for m in tb.macs)
    assert not any(r.carrier_busy() for r in tb.radios)
    # Under CSMA a clique cannot deadlock: the hub received everything.
    assert len(tb.uppers[0].delivered) == senders * 5


def test_backoff_freeze_preserves_slots():
    """Frozen backoff resumes with the remaining slots, not a redraw."""
    from repro.mac.dcf import _BACKOFF, _WAIT_MEDIUM

    tb = Testbed([(0, 0), (100, 0), (200, 0)], seed=7)
    mac = tb.macs[0]
    # Force deterministic state: put the MAC in backoff manually.
    mac._current = (tb.packet(0, 1), 1)
    mac._backoff_slots = 10
    mac._state = _BACKOFF
    mac._backoff_start = tb.sim.now
    from repro.mac.frames import Dot11

    # Simulate 4 slots elapsing, then the medium turning busy.
    tb.sim.schedule(4 * Dot11.SLOT, lambda: None)
    tb.sim.run()
    mac._timer = tb.sim.schedule(6 * Dot11.SLOT, lambda: None)  # placeholder
    tb.radios[0]._led.counts[0] = 1  # fake detectable energy
    mac.medium_changed()
    assert mac._state == _WAIT_MEDIUM
    assert mac._backoff_slots == 6  # 10 - 4 consumed
    tb.radios[0]._led.counts[0] = 0
