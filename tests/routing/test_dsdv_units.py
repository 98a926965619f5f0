"""DSDV advertisement mechanics."""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core import Simulator
from repro.core.errors import ConfigurationError, ProtocolError
from repro.routing.dsdv import (
    ENTRY_SIZE, HEADER_SIZE, LOW, MAX_IDS, MAX_METRIC, MAX_SEQ, Dsdv, DsdvRoute, _Advert,
)
from repro.scenario import ScenarioConfig
from repro.scenario.build import build_scenario
from tests.routing.conftest import make_static_network


#: Id space of ``make_agent``'s 2-node network: tests write rows up to 9.
N_IDS = 10


def make_agent(seed=1):
    sim, net = make_static_network(
        [(0, 0), (150, 0)],
        lambda s, n, m, r: Dsdv(s, n, m, r, n_ids=N_IDS),
        mac="ideal",
        seed=seed,
    )
    return sim, net.nodes[0].routing


class TestAdvertisements:
    def test_full_dump_contains_self_and_table(self):
        sim, agent = make_agent()
        agent.table[5] = DsdvRoute(5, 1, 2, 10)
        agent.table[6] = DsdvRoute(6, 1, 3, 12)
        before = agent.stats.control_bytes
        agent._broadcast_update(full=True)
        sent = agent.stats.control_bytes - before
        assert sent == HEADER_SIZE + 3 * ENTRY_SIZE  # self + 2 routes

    def test_own_seq_even_and_increasing(self):
        sim, agent = make_agent()
        s0 = agent.seq
        agent._broadcast_update(full=True)
        agent._broadcast_update(full=True)
        assert agent.seq == s0 + 4
        assert agent.seq % 2 == 0

    def test_incremental_dump_only_changed(self):
        sim, agent = make_agent()
        agent.table[5] = DsdvRoute(5, 1, 2, 10, changed=True)
        agent.table[6] = DsdvRoute(6, 1, 3, 12, changed=False)
        before = agent.stats.control_bytes
        agent._broadcast_update(full=False)
        sent = agent.stats.control_bytes - before
        assert sent == HEADER_SIZE + 2 * ENTRY_SIZE  # self + the changed one

    def test_changed_flags_cleared_after_dump(self):
        sim, agent = make_agent()
        agent.table[5] = DsdvRoute(5, 1, 2, 10, changed=True)
        agent._broadcast_update(full=False)
        assert not agent.table[5].changed

    def test_empty_trigger_suppressed(self):
        sim, agent = make_agent()
        # Advance past t=0 (periodic updates run forever, so bound the run).
        sim.run(until=1.0)
        before = agent.stats.control_packets
        agent._broadcast_update(full=False)  # nothing changed
        assert agent.stats.control_packets == before

    def test_trigger_coalescing(self):
        sim, agent = make_agent()
        agent._schedule_trigger()
        agent._schedule_trigger()
        agent._schedule_trigger()
        assert agent._trigger_pending
        pending_before = sim.pending()
        agent._schedule_trigger()
        assert sim.pending() == pending_before  # no extra event


class TestInvalidationDetails:
    def test_link_failed_purges_mac_queue(self):
        sim, agent = make_agent()
        agent.table[5] = DsdvRoute(5, 1, 2, 10)
        from repro.net import Packet, PacketKind

        stuck = Packet(PacketKind.DATA, "cbr", 0, 5, 64, created=0.0)
        agent.mac.ifq.push(stuck, 1)
        agent.link_failed(None, next_hop=1)
        assert agent.mac.ifq.is_empty

    def test_broken_routes_advertised_with_infinity(self):
        sim, agent = make_agent()
        agent.table[5] = DsdvRoute(5, 1, 2, 10)
        agent.link_failed(None, next_hop=1)
        route = agent.table[5]
        assert math.isinf(route.metric)
        assert route.changed  # queued for the next triggered update

    def test_unknown_destination_infinite_advert_ignored(self):
        sim, agent = make_agent()
        pkt = agent.make_control(_Advert([(9, math.inf, 11)]), 20)
        agent.on_control(pkt, prev_hop=1, rx_power=1.0)
        assert 9 not in agent.table


class TestNarrowLayout:
    """The table is 11 bytes a row: int16 next hop, int64 key, bool."""

    COLUMNS = ("_next_hop", "_key", "_changed")
    DTYPES = (np.int16, np.int64, np.bool_)

    def column_dtypes(self, agent):
        return tuple(getattr(agent, name).dtype for name in self.COLUMNS)

    def test_dtypes_after_init_and_adverts(self):
        sim, agent = make_agent()
        assert self.column_dtypes(agent) == self.DTYPES
        assert len(agent._key) == N_IDS
        assert agent._key[agent.addr] == LOW  # own row: seq 0, metric 0
        assert agent._next_hop[2:].tolist() == [-1] * (N_IDS - 2)
        assert agent._key[2:].tolist() == [-1] * (N_IDS - 2)
        assert not agent._changed.any()
        agent.on_control(
            agent.make_control(_Advert([(9, 3.0, 8), (4, math.inf, 5)]), 20),
            prev_hop=1, rx_power=1.0,
        )
        assert self.column_dtypes(agent) == self.DTYPES
        assert len(agent._key) == N_IDS
        assert agent.table[9] == DsdvRoute(9, 1, 4.0, 8, changed=True)
        assert agent._key[9] == 8 << 32 | (LOW - 4)
        assert 4 not in agent.table  # not learned from a break

    def test_advert_dtypes_match_across_constructors(self):
        sim, agent = make_agent()
        agent.table[5] = DsdvRoute(5, 1, 2, 10)
        agent.table[7] = DsdvRoute(7, 1, math.inf, 11)
        sent = []
        agent.send_control = lambda packet, next_hop: sent.append(packet.payload)
        agent._broadcast_update(full=True)
        (dumped,) = sent
        listed = _Advert([(0, 0.0, 2), (5, 2.0, 10), (7, math.inf, 11)])
        for advert in (dumped, listed):
            assert (advert.dst.dtype, advert.key1.dtype) == (np.intp, np.int64)
            assert advert.finite.tolist() == [True, True, False]
        assert dumped.dst.tolist() == listed.dst.tolist()
        assert dumped.key1.tolist() == listed.key1.tolist()
        assert dumped.metric.tolist() == [0.0, 2.0, math.inf]
        assert dumped.seq.tolist() == [2, 10, 11]

    def test_columns_cost_11_bytes_a_row_in_a_300_node_run(self):
        scenario = build_scenario(ScenarioConfig(
            protocol="dsdv", n_nodes=300, field_size=(3000.0, 1000.0),
            duration=1.0, n_connections=10, traffic_start_window=(0.0, 0.5),
            seed=1,
        ))
        agents = [node.routing for node in scenario.network.nodes]
        before = [[getattr(a, name) for name in self.COLUMNS] for a in agents]
        scenario.run()
        assert sum(len(a.table) for a in agents) > 300  # the run learned routes
        for agent, columns in zip(agents, before):
            nbytes = sum(getattr(agent, name).nbytes for name in self.COLUMNS)
            assert nbytes == 11 * 300
            assert self.column_dtypes(agent) == self.DTYPES
            # Allocated once: the same arrays before and after the run.
            assert all(
                getattr(agent, name) is column
                for name, column in zip(self.COLUMNS, columns)
            )


class TestIdSpace:
    """The table has one row per id of the network's id space, no more."""

    @pytest.mark.parametrize("dst", [-1, N_IDS, 2000])
    def test_write_outside_the_id_space_is_refused(self, dst):
        sim, agent = make_agent()
        with pytest.raises(ProtocolError, match="not in"):
            agent.table[dst] = DsdvRoute(dst, 1, 2, 10)
        assert len(agent._key) == N_IDS
        assert len(agent.table) == 0

    @pytest.mark.parametrize("node_id,n_ids", [(0, 2**15), (3, 3), (3, 2), (0, 0)])
    def test_id_space_that_cannot_hold_the_node_is_refused(self, node_id, n_ids):
        sim = Simulator(seed=1)
        with pytest.raises(ConfigurationError, match="id space"):
            Dsdv(sim, node_id, None, sim.rng.stream("dsdv"), n_ids=n_ids)

    def test_largest_id_space_is_accepted(self):
        sim = Simulator(seed=1)
        mac = SimpleNamespace(upper=None)
        agent = Dsdv(sim, MAX_IDS - 1, mac, sim.rng.stream("dsdv"), n_ids=MAX_IDS)
        assert agent._next_hop[MAX_IDS - 1] == MAX_IDS - 1
        assert agent.table.get(0) is None


class TestRowEncoding:
    """``Dsdv.table`` accepts only rows the packed key can hold."""

    @pytest.mark.parametrize("metric", [2.5, -1, math.nan, MAX_METRIC + 1])
    def test_metric_that_is_not_a_hop_count_is_refused(self, metric):
        sim, agent = make_agent()
        with pytest.raises(ProtocolError, match="hop count"):
            agent.table[5] = DsdvRoute(5, 1, metric, 10)
        assert 5 not in agent.table

    @pytest.mark.parametrize("seq", [-2, MAX_SEQ + 1, 3.5])
    def test_sequence_outside_the_key_is_refused(self, seq):
        sim, agent = make_agent()
        with pytest.raises(ProtocolError, match="sequence"):
            agent.table[5] = DsdvRoute(5, 1, 2, seq)
        with pytest.raises(ProtocolError):
            _Advert([(5, 2.0, seq)])

    @pytest.mark.parametrize("metric", [0, 1, 7, MAX_METRIC, math.inf])
    @pytest.mark.parametrize("seq", [0, 1, 2**30, MAX_SEQ])
    def test_rows_round_trip(self, metric, seq):
        sim, agent = make_agent()
        agent.table[5] = DsdvRoute(5, 1, metric, seq, changed=True)
        assert agent.table[5] == DsdvRoute(5, 1, float(metric), seq, changed=True)
        assert agent.table[5].valid == (metric != math.inf)

    def test_link_failure_makes_metric_infinite_and_seq_odd(self):
        sim, agent = make_agent()
        agent.table[5] = DsdvRoute(5, 1, 3, 2**30)
        agent.table[6] = DsdvRoute(6, 2, 3, 12)
        agent.table[7] = DsdvRoute(7, 1, math.inf, 13)  # already broken
        agent.link_failed(None, next_hop=1)
        assert agent.table[5] == DsdvRoute(5, 1, math.inf, 2**30 + 1, changed=True)
        assert agent.table[6] == DsdvRoute(6, 2, 3.0, 12)
        assert agent.table[7] == DsdvRoute(7, 1, math.inf, 13)
