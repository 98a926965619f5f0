"""DSDV advertisement mechanics."""

import math

import numpy as np

from repro.routing.dsdv import ENTRY_SIZE, HEADER_SIZE, Dsdv, DsdvRoute, _Advert
from repro.scenario import ScenarioConfig
from repro.scenario.build import build_scenario
from tests.routing.conftest import make_static_network


def make_agent(seed=1):
    sim, net = make_static_network(
        [(0, 0), (150, 0)],
        lambda s, n, m, r: Dsdv(s, n, m, r),
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
    """The table is 13 bytes a row: int32, float32, int32, bool."""

    COLUMNS = ("_next_hop", "_metric", "_seq", "_changed")
    DTYPES = (np.int32, np.float32, np.int32, np.bool_)

    def column_dtypes(self, agent):
        return tuple(getattr(agent, name).dtype for name in self.COLUMNS)

    def test_dtypes_after_init_and_grow(self):
        sim, agent = make_agent()
        assert self.column_dtypes(agent) == self.DTYPES
        agent._grow(500)
        assert len(agent._seq) == 500
        assert self.column_dtypes(agent) == self.DTYPES
        agent.on_control(
            agent.make_control(_Advert([(2000, 3.0, 8)]), 20), prev_hop=1, rx_power=1.0
        )
        assert self.column_dtypes(agent) == self.DTYPES
        assert agent.table[2000] == DsdvRoute(2000, 1, 4.0, 8, changed=True)

    def test_advert_dtypes_match_across_constructors(self):
        sim, agent = make_agent()
        agent.table[5] = DsdvRoute(5, 1, 2, 10)
        sent = []
        agent.send_control = lambda packet, next_hop: sent.append(packet.payload)
        agent._broadcast_update(full=True)
        (dumped,) = sent
        listed = _Advert([(0, 0.0, 2), (5, 2.0, 10)])
        for advert in (dumped, listed):
            assert (advert.dst.dtype, advert.metric.dtype, advert.seq.dtype) == (
                np.intp, np.float32, np.int32,
            )
            assert advert.metric1.dtype == np.float32
        assert dumped.dst.tolist() == listed.dst.tolist()
        assert dumped.metric.tolist() == listed.metric.tolist()
        assert dumped.seq.tolist() == listed.seq.tolist()

    def test_columns_cost_13_bytes_a_row_in_a_300_node_run(self):
        scenario = build_scenario(ScenarioConfig(
            protocol="dsdv", n_nodes=300, field_size=(3000.0, 1000.0),
            duration=1.0, n_connections=10, traffic_start_window=(0.0, 0.5),
            seed=1,
        ))
        scenario.run()
        agents = [node.routing for node in scenario.network.nodes]
        assert sum(len(a._seq) > a.addr + 1 for a in agents) > 100  # regrown
        for agent in agents:
            nbytes = sum(getattr(agent, name).nbytes for name in self.COLUMNS)
            assert nbytes == 13 * len(agent._seq)
            assert self.column_dtypes(agent) == self.DTYPES
