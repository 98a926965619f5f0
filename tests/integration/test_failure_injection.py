"""Failure injection: dead nodes, lost control packets, partitions."""

import pytest

from repro.core import Simulator
from repro.mac import DcfMac
from repro.mobility import Leg, LegBasedModel, StaticPosition
from repro.net.stack import build_network
from repro.phy import RadioParams, UnitDisk
from repro.routing import Aodv, Dsdv, Dsr


def build(positions_or_models, proto_cls, seed=1, promiscuous=False, **proto_kw):
    sim = Simulator(seed=seed)
    models = [
        m if not isinstance(m, tuple) else StaticPosition(*m)
        for m in positions_or_models
    ]
    net = build_network(
        sim,
        models,
        routing_factory=lambda s, nid, mac, rng: proto_cls(s, nid, mac, rng, **proto_kw),
        mac_factory=lambda s, r, g: DcfMac(s, r, g, promiscuous=promiscuous),
        propagation=UnitDisk(250.0),
        radio_params=RadioParams(),
    )
    net.start_routing()
    return sim, net


def kill(node):
    """Make a node deaf and mute (crash fault)."""
    node.mac.send = lambda *a, **k: None
    node.radio.power_off()


def assert_killed(net, node):
    """The crash took effect: the dead radio swallowed arrivals."""
    net.channel.flush_phy_stats()
    assert node.radio.stats.down_rx_drops > 0


DIAMOND = [
    (0.0, 0.0),       # 0 source
    (200.0, 80.0),    # 1 upper relay
    (200.0, -80.0),   # 2 lower relay
    (400.0, 0.0),     # 3 destination
]


@pytest.mark.parametrize("proto_cls,kwargs", [(Aodv, {}), (Dsr, {})])
def test_reactive_protocols_survive_relay_death(proto_cls, kwargs):
    sim, net = build(DIAMOND, proto_cls, promiscuous=proto_cls is Dsr, **kwargs)
    got = []
    net.nodes[3].register_receiver(lambda p, prev: got.append(p))

    for _ in range(3):
        net.nodes[0].send(3, 64)
    sim.run(until=3.0)
    assert len(got) == 3

    # Kill whichever relay carried the traffic; the other must take over.
    active_relay = 1 if any(
        n.routing.stats.data_forwarded for n in (net.nodes[1],)
    ) else 2
    kill(net.nodes[active_relay])
    for _ in range(3):
        net.nodes[0].send(3, 64)
    sim.run(until=30.0)
    assert_killed(net, net.nodes[active_relay])
    assert len(got) == 6, f"{proto_cls.__name__} lost packets after relay death"


def test_dsdv_recovers_via_periodic_updates():
    sim, net = build(DIAMOND, Dsdv, n_ids=len(DIAMOND))
    got = []
    net.nodes[3].register_receiver(lambda p, prev: got.append(p))
    sim.run(until=40.0)  # converge
    net.nodes[0].send(3, 64)
    sim.run(until=42.0)
    assert len(got) == 1

    route = net.nodes[0].routing.table[3]
    dead = net.nodes[route.next_hop]
    kill(dead)
    # DSDV needs link failure + triggered/periodic updates to reroute:
    # keep offering traffic and allow two full update periods.
    for i in range(10):
        sim.schedule(3.0 * i, net.nodes[0].send, 3, 64)
    sim.run(until=90.0)
    assert_killed(net, dead)
    assert len(got) >= 2, "DSDV never rerouted after relay death"


def test_partition_heals_when_bridge_arrives():
    """Two islands; a ferry node walks into the gap and bridges them."""

    class Ferry(LegBasedModel):
        """Moves from far away into the midpoint at t=10, then parks."""

        def _next_leg(self, prev):
            if prev.t1 == 0.0:
                return Leg(0.0, 10.0, prev.x1, prev.y1, 400.0, 0.0)
            return Leg(prev.t1, prev.t1 + 1e6, 400.0, 0.0, 400.0, 0.0)

    models = [
        StaticPosition(0.0, 0.0),       # 0 source island
        StaticPosition(200.0, 0.0),     # 1
        StaticPosition(600.0, 0.0),     # 2     (gap 1-2 = 400 m)
        StaticPosition(800.0, 0.0),     # 3 destination island
        Ferry(2000.0, 0.0),             # 4 bridge-to-be
    ]
    sim, net = build(models, Aodv)
    got = []
    net.nodes[3].register_receiver(lambda p, prev: got.append(p))

    net.nodes[0].send(3, 64)   # t=0: partitioned, must fail/buffer
    sim.run(until=5.0)
    assert got == []

    sim.run(until=15.0)        # ferry parked at x=400 bridging 1-2
    net.nodes[0].send(3, 64)
    sim.run(until=25.0)
    assert len(got) >= 1, "route across the healed partition not found"
    # The delivered packet must have crossed the ferry (4 hops total).
    assert got[-1].hops == 3


def test_dropped_control_packets_are_survivable():
    """Randomly dropping 30% of AODV control packets slows but does not
    break discovery (floods are redundant)."""
    sim, net = build(DIAMOND, Aodv, seed=5)
    rng = sim.rng.stream("chaos")

    for node in net.nodes:
        original = node.mac.send

        def lossy(packet, next_hop, _orig=original):
            if packet.kind == "control" and rng.uniform() < 0.3:
                return  # eaten by gremlins
            _orig(packet, next_hop)

        node.mac.send = lossy

    got = []
    net.nodes[3].register_receiver(lambda p, prev: got.append(p))
    for i in range(5):
        sim.schedule(2.0 * i, net.nodes[0].send, 3, 64)
    sim.run(until=60.0)
    assert len(got) >= 3, f"only {len(got)}/5 delivered under control loss"
