"""DSDV's column-array table against the per-entry reference.

Random sequences of adverts, link failures and dumps are applied to the
production agent and to ``ReferenceDsdv``; after every step the two
must hold the same table, the same own sequence number, have made the
same trigger decision, and have emitted the same dump (as a set: dump
order is not part of the protocol, entry count and so packet size is).

The inputs reach the edges of the packed row key: sequence numbers near
2**30 as well as near 0, hop counts up to the id range (a network's
diameter is below its node count), odd sequence numbers about the
receiver itself, and adverts that mix ∞ and finite entries about
destinations the receiver has never heard of.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Simulator
from repro.routing.dsdv import ENTRY_SIZE, HEADER_SIZE, Dsdv, _Advert
from tests.routing.dsdv_reference import ReferenceDsdv

ADDR = 3
#: Small id, sequence and metric ranges so that stale, equal-and-better,
#: equal-and-worse, newer, broken and unknown-and-broken entries all
#: occur by collision; the receiver's own id is inside the id range.
NEIGHBOURS = st.integers(0, 11).filter(lambda n: n != ADDR)
FINITE = st.sampled_from([0.0, 1.0, 2.0, 3.0, 4.0]) | st.integers(5, 200).map(float)
METRICS = FINITE | st.just(math.inf)
SEQS = st.integers(0, 9)
#: Added to every advertised sequence number of one example.
SEQ_BASES = st.sampled_from([0, 2**30 - 5])


def adverts(max_dst, min_size, max_size):
    return st.tuples(
        st.just("advert"),
        NEIGHBOURS,
        st.lists(
            st.tuples(st.integers(0, max_dst), METRICS, SEQS),
            min_size=min_size, max_size=max_size, unique_by=lambda e: e[0],
        ),
    )


def about_me():
    """An entry about the receiver, odd (broken) or even."""
    return st.tuples(
        st.just("advert"), NEIGHBOURS, st.tuples(st.tuples(st.just(ADDR), METRICS, SEQS)),
    )


def mixed_about_unknowns():
    """∞ and finite entries side by side, about ids no other step names."""
    return st.lists(st.integers(201, 240), min_size=2, max_size=8, unique=True).flatmap(
        lambda dsts: st.tuples(
            st.just("advert"),
            NEIGHBOURS,
            st.tuples(*(
                st.tuples(st.just(d), metric, SEQS)
                for d, metric in zip(dsts, [st.just(math.inf), FINITE] + [METRICS] * 6)
            )),
        )
    )


STEPS = st.lists(
    st.one_of(
        adverts(11, 0, 3),       # triggered-update sized
        adverts(11, 4, 12),
        adverts(200, 65, 120),   # full dump of a large table; regrows columns
        about_me(),
        mixed_about_unknowns(),
        st.tuples(st.just("link_failed"), NEIGHBOURS),
        st.tuples(st.just("dump"), st.booleans()),
        st.tuples(st.just("advance")),
    ),
    max_size=25,
)


class _SinkMac:
    upper = None

    def purge_next_hop(self, next_hop):
        return []


def table_of(agent):
    return {r.dst: [r.next_hop, r.metric, r.seq, r.changed] for r in agent.table.values()}


@settings(max_examples=200, deadline=None)
@given(STEPS, SEQ_BASES)
def test_agent_matches_reference_step_by_step(steps, seq_base):
    sim = Simulator(seed=1)
    agent = Dsdv(sim, ADDR, _SinkMac(), sim.rng.stream("dsdv"))
    ref = ReferenceDsdv(ADDR)
    triggers, sent = [], []
    agent._schedule_trigger = lambda: triggers.append(True)
    agent.send_control = lambda packet, next_hop: sent.append(packet)

    for step in steps:
        del triggers[:], sent[:]
        if step[0] == "advert":
            _, prev_hop, entries = step
            entries = [(dst, metric, seq + seq_base) for dst, metric, seq in entries]
            packet = agent.make_control(_Advert(entries), HEADER_SIZE)
            agent.on_control(packet, prev_hop, 1e-9)
            assert bool(triggers) == ref.receive(entries, prev_hop)
        elif step[0] == "link_failed":
            agent.link_failed(None, step[1])
            assert bool(triggers) == ref.link_failed(step[1])
        elif step[0] == "dump":
            agent._broadcast_update(full=step[1])
            expected = ref.dump(step[1], sim.now)
            if expected is None:
                assert not sent
            else:
                (packet,) = sent
                advert = packet.payload
                got = list(zip(advert.dst.tolist(), advert.metric.tolist(),
                               advert.seq.tolist()))
                assert len(got) == len(expected)
                assert set(got) == set(expected)
                assert packet.size == HEADER_SIZE + ENTRY_SIZE * len(expected)
        else:
            sim.run(until=sim.now + 1.0)
        assert agent.seq == ref.seq
        assert table_of(agent) == ref.table
        assert len(agent.table) == len(ref.table)
