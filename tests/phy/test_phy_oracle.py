"""PHY resolver oracle: both arrival engines against a brute-force model.

The model follows the split of LoRaMesh's ``checkcollision``: a timing
part (which frames are on the air at a receiver when a new one starts)
and a power part (does the frame being decoded capture the newcomer by
the 10 dB capture ratio, or do both die). It re-derives every verdict
from pairwise comparisons over the whole schedule, with no ledger and
no arrival objects, and must predict the per-pair ``Radio`` path and
the batched ``ArrivalLedger`` path counter for counter.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import Simulator
from repro.mac.frames import Frame, FrameType
from repro.mobility import MobilityManager, StaticPosition
from repro.net.packet import BROADCAST
from repro.phy import Channel, PropagationModel, Radio, RadioParams

#: The ns-2 capture threshold, 10 dB, held here independently of the
#: engines so a shifted threshold anywhere below is caught.
CAPTURE = 10.0
#: Decode iff d² <= 64 and detect iff d² <= 200 on integer coordinates;
#: the capture ratio is the RadioParams default.
PARAMS = RadioParams(tx_power=1.0, rx_threshold=1 / 64.5, cs_threshold=1 / 200.5)
FIELDS = ("frames_received", "collisions", "capture_ignored",
          "halfduplex_drops", "down_rx_drops")
SLOT = 50e-6


class InverseSquare(PropagationModel):
    """``Pr = Pt / d²``: exact powers from integer coordinates."""

    def rx_power(self, tx_power, distance):
        return self.rx_power_d2(tx_power, distance * distance)

    def rx_power_d2(self, tx_power, d2):
        return tx_power / d2 if d2 > 0.0 else tx_power

    def rx_power_d2_vec(self, tx_power, d2):
        return np.array([self.rx_power_d2(tx_power, float(v)) for v in d2])


class QuietMac:
    """A MAC that only listens (the counters under test live below it)."""

    batch_safe = batch_overhear = True
    promiscuous = False

    def on_frame_received(self, frame, power):
        pass

    def on_transmit_done(self, frame):
        pass

    def medium_changed(self):
        pass

    def overhear_nav(self, until):
        pass


def airtime(size):
    return Frame(FrameType.RTS, 0, BROADCAST, size).airtime(PARAMS.bitrate)


def keyed(actions):
    """``(key, end_key, kind, node)`` in processing order.

    Every action is launched through a zero-delay event, so at one
    instant the frame ends queued earlier fire first and actions follow
    in list order: a frame is on the air over the half-open key range
    ``(key, end_key)``.
    """
    out = []
    for i, (t, kind, node, size) in enumerate(sorted(actions, key=lambda a: a[0])):
        key = (t, 1, i)
        out.append((key, (t + airtime(size), 0, key) if kind == "tx" else None, kind, node))
    return out


def oracle(coords, actions):
    """Per-radio counters predicted from pairwise timing and power."""
    n = len(coords)
    power = [[PARAMS.tx_power / ((xs - xr) ** 2 + (ys - yr) ** 2) if s != r else 0.0
              for r, (xr, yr) in enumerate(coords)] for s, (xs, ys) in enumerate(coords)]
    acts = keyed(actions)
    txs = [a for a in acts if a[2] == "tx"]

    def down(r, k):  # one off/on pair at most per radio
        return sum(a[0] < k for a in acts if a[3] == r and a[2] != "tx") == 1

    def on_air(a, k):  # the timing part
        return a[0] < k < a[1]

    out = []
    for r in range(n):
        c = dict.fromkeys(FIELDS, 0)
        own = [a for a in txs if a[3] == r]
        # A decode ends early when its radio transmits or powers off.
        cuts = [a[0] for a in acts if a[3] == r and a[2] != "on"]

        def cut(d, k):
            return any(d[0] < x < k for x in cuts)

        heard, decodes = [], []
        for key, end, _, src in txs:
            p = power[src][r]
            if src == r or down(src, key) or p < PARAMS.cs_threshold:
                continue
            if down(r, key):
                c["down_rx_drops"] += 1
                continue
            rx = [d for d in decodes if on_air(d, key) and not cut(d, key)]
            if any(on_air(y, key) for y in own):
                c["halfduplex_drops"] += 1
            elif rx:  # power part: capture, or both frames die
                if rx[0][2] >= CAPTURE * p:
                    c["capture_ignored"] += 1
                else:
                    c["collisions"] += 1
                    rx[0][3] = True
            elif p >= PARAMS.rx_threshold:
                strongest = max([h[2] for h in heard if on_air(h, key)], default=0.0)
                if p >= CAPTURE * strongest:
                    decodes.append([key, end, p, False])
                else:
                    c["collisions"] += 1
            heard.append((key, end, p))
        c["halfduplex_drops"] += sum(
            any(on_air(d, y[0]) and not cut(d, y[0]) for d in decodes) for y in own
        )
        c["frames_received"] = sum(not d[3] and not cut(d, d[1]) for d in decodes)
        out.append(c)
    return out


def engine(coords, actions, batched):
    """Per-radio counters from one engine running *actions*."""
    sim = Simulator(seed=1)
    mob = MobilityManager([StaticPosition(x, y) for x, y in coords])
    chan = Channel(sim, mob, InverseSquare(), PARAMS)
    radios = []
    for i in range(len(coords)):
        radio = Radio(sim, i, PARAMS)
        radio.mac = QuietMac()
        chan.attach(radio)
        radios.append(radio)
    assert chan.enable_batched() if batched else True
    for t, kind, node, size in sorted(actions, key=lambda a: a[0]):
        radio = radios[node]
        if kind == "tx":
            fn, args = radio.transmit, (Frame(FrameType.RTS, node, BROADCAST, size),)
        else:
            fn, args = (radio.power_off if kind == "off" else radio.power_on), ()
        sim.schedule_at(t, sim.schedule, 0.0, fn, *args)
    sim.run()
    chan.flush_phy_stats()
    return [{f: getattr(r.stats, f) for f in FIELDS} for r in radios]


def check(coords, actions):
    want = oracle(coords, actions)
    assert engine(coords, actions, batched=False) == want, "per-pair Radio path"
    assert engine(coords, actions, batched=True) == want, "batched ArrivalLedger path"
    return want


@st.composite
def schedules(draw):
    n = draw(st.integers(3, 6))
    coords = draw(st.lists(st.tuples(st.integers(0, 12), st.integers(0, 12)),
                           min_size=n, max_size=n, unique=True))
    actions, busy = [], [0.0] * n
    for src, slot, size in sorted(draw(st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, 40), st.integers(10, 200)),
            min_size=1, max_size=12)), key=lambda x: x[1]):
        t = slot * SLOT
        if t >= busy[src]:  # a radio never transmits over itself
            actions.append((t, "tx", src, size))
            busy[src] = t + airtime(size)
    for node, slot, length in draw(st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, 40), st.integers(1, 20)),
            max_size=2, unique_by=lambda d: d[0])):
        actions += [((slot + 0.5) * SLOT, "off", node, 0),
                    ((slot + 0.5 + length) * SLOT, "on", node, 0)]
    return coords, actions


@settings(max_examples=300, deadline=None)
@given(schedules())
def test_engines_match_oracle_on_random_schedules(case):
    check(*case)


# Receiver 0 at the origin; transmitters at d² = 1 (power 1.0), 9 (1/9)
# and 10 (0.1): 1.0 over 0.1 is exactly the 10 dB threshold, 1.0 over
# 1/9 is 0.46 dB short of it.
EDGE = [(0, 0), (1, 0), (3, 0), (3, 1)]


def test_capture_ratio_exactly_at_threshold_captures():
    assert 1.0 == CAPTURE * (PARAMS.tx_power / 10)
    got = check(EDGE, [(0.0, "tx", 1, 100), (SLOT, "tx", 3, 20)])
    assert got[0]["capture_ignored"] == 1 and got[0]["frames_received"] == 1


@pytest.mark.parametrize("strong_first", [True, False])
def test_capture_ratio_below_threshold_collides(strong_first):
    first, second = (1, 2) if strong_first else (2, 1)
    got = check(EDGE, [(0.0, "tx", first, 100), (SLOT, "tx", second, 20)])
    assert got[0]["collisions"] == 1 and got[0]["frames_received"] == 0


def test_arrival_starting_as_another_ends_is_clean():
    got = check(EDGE, [(0.0, "tx", 3, 100), (airtime(100), "tx", 1, 100)])
    assert got[0] == dict(frames_received=2, collisions=0, capture_ignored=0,
                          halfduplex_drops=0, down_rx_drops=0)


def test_receiver_going_down_mid_frame():
    d = airtime(100)
    got = check(EDGE, [(0.0, "tx", 1, 100), (0.25 * d, "off", 0, 0),
                       (0.4 * d, "tx", 2, 20), (0.5 * d, "on", 0, 0),
                       (0.6 * d, "tx", 3, 20)])
    # The decode dies with the radio, the frame sent while it was down
    # is never heard, and the first frame still interferes on recovery.
    assert got[0] == dict(frames_received=0, collisions=1, capture_ignored=0,
                          halfduplex_drops=0, down_rx_drops=1)
