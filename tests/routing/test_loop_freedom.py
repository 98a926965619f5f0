"""No data packet visits a node twice while links are static.

Random small static AODV, DSR and DSDV scenarios run over the ideal MAC,
which detects no link failures (no ACKs, no retries; see
``repro.mac.ideal``) and never delivers a frame twice. So no route
breaks, no DSR salvage reroutes a packet, and a duplicate reception
cannot make a node legitimately send the same packet again: every data
transmission is part of one path from the source.

Every agent's ``send_data`` is watched, the one call through which each
protocol originates and forwards a data packet. The nodes that transmit
a packet (keyed by ``origin_uid``, which forwarding keeps) must all be
distinct: a node that sends the same packet twice has seen it come back,
which is a forwarding loop.
"""

from collections import defaultdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.scenario import ScenarioConfig
from repro.scenario.build import build_scenario

DURATION = 30.0
WIDTH = 1200.0


def run_watched(cfg):
    """Run *cfg*; map each data packet's ``origin_uid`` to its senders."""
    scenario = build_scenario(cfg)
    senders = defaultdict(list)

    def watch(agent):
        send_data = agent.send_data

        def watched(packet, next_hop, forwarded):
            sent = send_data(packet, next_hop, forwarded)
            if sent and packet.is_data:
                path = senders[packet.origin_uid]
                assert agent.addr not in path, (
                    f"packet {packet.origin_uid} ({packet.src}->{packet.dst}) "
                    f"sent twice by node {agent.addr} at t={agent.sim.now:.6f}; "
                    f"senders so far {path}"
                )
                path.append(agent.addr)
            return sent

        agent.send_data = watched

    for node in scenario.network.nodes:
        watch(node.routing)
    scenario.run()
    return senders


def config(protocol, seed, n_nodes):
    return ScenarioConfig(
        protocol=protocol,
        mac="ideal",
        mobility="static",
        n_nodes=n_nodes,
        field_size=(WIDTH, 300.0),
        duration=DURATION,
        n_connections=min(8, n_nodes - 1),
        traffic_start_window=(0.0, 5.0),
        seed=seed,
    )


PROTOCOLS = ["aodv", "dsr", "dsdv"]


@pytest.mark.parametrize("protocol", PROTOCOLS)
@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**20), n_nodes=st.integers(3, 14))
def test_no_data_packet_visits_a_node_twice(protocol, seed, n_nodes):
    run_watched(config(protocol, seed, n_nodes))


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_the_watch_sees_multi_hop_paths(protocol):
    """Packets cross several hops on a configuration the property also
    draws from, so the check is not vacuous."""
    senders = run_watched(config(protocol, 3, 14))
    assert max(len(path) for path in senders.values()) >= 5
    assert sum(len(path) > 1 for path in senders.values()) > 100
