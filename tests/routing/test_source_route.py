"""The source-routing core DSR and CBRP share: discovery, errors."""

import pytest

from repro.obs.flight import FlightRecorder
from repro.routing.cbrp import Cbrp
from repro.routing.dsr import Dsr
from repro.routing.source_route import RouteError, RouteRequest
from tests.routing.conftest import make_static_network

CHAIN4 = [(0, 0), (200, 0), (400, 0), (600, 0)]
AGENTS = {"dsr": Dsr, "cbrp": Cbrp}

#: Per protocol: (ttl, send time) of every RREQ for an unreachable
#: destination asked for at t=0, then the time the buffer is given up.
SCHEDULES = {
    "dsr": ([(1, 0.0), (32, 0.03), (32, 0.53), (32, 1.53)], 3.53),
    "cbrp": ([(32, 0.0), (32, 0.5), (32, 1.5), (32, 3.5)], 7.5),
}


def make_net(protocol, positions):
    cls = AGENTS[protocol]
    return make_static_network(positions, lambda s, n, m, r: cls(s, n, m, r))


@pytest.mark.parametrize("protocol", sorted(SCHEDULES))
def test_discovery_schedule_then_give_up(protocol):
    sim, net = make_net(protocol, [(0, 0), (5000, 0)])
    agent = net.nodes[0].routing
    agent._flight = flight = FlightRecorder(sim, trace=True)
    rreqs = []
    send_control = agent.send_control

    def spy(pkt, next_hop, jitter=None):
        if isinstance(pkt.payload, RouteRequest):
            rreqs.append((pkt.ttl, sim.now))
        send_control(pkt, next_hop, jitter)

    agent.send_control = spy
    data = net.nodes[0].send(1, 64)
    sim.run(until=20.0)

    expected, give_up = SCHEDULES[protocol]
    assert [ttl for ttl, _t in rreqs] == [ttl for ttl, _t in expected]
    assert [t for _ttl, t in rreqs] == pytest.approx([t for _ttl, t in expected])
    drops = [e for e in flight.events if e["ev"] == "drop"]
    assert [(e["origin"], e["reason"]) for e in drops] == [
        (data.origin_uid, "send_buffer_giveup")
    ]
    assert drops[0]["t"] == pytest.approx(give_up)
    assert agent.stats.drops_buffer == 1
    assert agent.stats.discoveries == 1
    assert not agent._pending and len(agent.buffer) == 0


@pytest.mark.parametrize("protocol", sorted(AGENTS))
def test_rerr_removes_link_at_receiver(protocol):
    sim, net = make_net(protocol, CHAIN4)
    agent0 = net.nodes[0].routing
    agent0.cache.add((0, 1, 2, 3), now=0.0)
    rerr = agent0.make_control(RouteError(2, 3, 0), 16, dst=0)
    agent0._on_rerr(rerr, rerr.payload)
    assert agent0.cache.get(3, sim.now) is None
    assert agent0.cache.get(2, sim.now) == (0, 1, 2)


@pytest.mark.parametrize("protocol", sorted(AGENTS))
def test_rerr_relayed_toward_source(protocol):
    sim, net = make_net(protocol, CHAIN4)
    agent1 = net.nodes[1].routing
    agent1.cache.add((1, 2, 3), now=0.0)
    # RERR in transit 2 -> 1 -> 0: node 1 must strip the link and relay.
    rerr = agent1.make_control(RouteError(2, 3, 0), 16, dst=0)
    rerr.route = [2, 1, 0]
    before = agent1.stats.control_packets
    agent1._on_rerr(rerr, rerr.payload)
    assert agent1.cache.get(3, sim.now) is None
    assert agent1.stats.control_packets == before + 1
