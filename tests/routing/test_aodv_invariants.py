"""AODV's destination sequence numbers must never move backwards.

RFC 3561 §6.5 copies the originator's sequence number into the reverse
route only if it is greater than the one held, and §6.7 updates an
existing route only at an equal or newer sequence number; ns-2's
``recvRequest``/``recvReply`` compare sequence numbers alone.
``Aodv._update_route`` instead counts an *invalid* route as always
fresher, so such a route adopts any sequence number, an older one
included. Both tests pin that deviation as strict xfails: they start
passing, and so fail, the day the update rule is fixed (which moves
AODV's and PAODV's golden digests).
"""

from types import SimpleNamespace

import pytest

from repro.core import Simulator
from repro.routing.aodv import Aodv, AodvRoute
from repro.routing.paodv import Paodv
from repro.scenario import ScenarioConfig
from repro.scenario.build import build_scenario

DEVIATION = (
    "Aodv._update_route lets an invalid route adopt an older destination "
    "sequence number, against RFC 3561 §6.5 and §6.7"
)


@pytest.mark.xfail(strict=True, reason=DEVIATION)
@pytest.mark.parametrize("cls", [Aodv, Paodv])
def test_invalid_route_keeps_its_newer_sequence_number(cls):
    sim = Simulator(seed=1)
    agent = cls(sim, 0, SimpleNamespace(upper=None), sim.rng.stream("aodv"))
    agent.table[19] = AodvRoute(19, 1, 2, 5, True, expiry=10.0, valid=False)
    agent._update_route(19, 2, 1, 4, True, 10.0)
    assert agent.table[19].dst_seq == 5


def watch(agent, decreases):
    """Wrap *agent*'s ``_update_route`` to record each sequence decrease."""
    update = agent._update_route

    def watched(dst, *args):
        cur = agent.table.get(dst)
        before = cur.dst_seq if cur is not None and cur.seq_valid else None
        route = update(dst, *args)
        if before is not None and route.dst_seq < before:
            decreases.append((agent.sim.now, agent.addr, dst, before, route.dst_seq))
        return route

    agent._update_route = watched


@pytest.mark.xfail(strict=True, reason=DEVIATION)
def test_destination_sequence_numbers_never_decrease_in_a_run():
    scenario = build_scenario(ScenarioConfig(
        protocol="aodv", seed=1, duration=15.0, n_nodes=50,
        traffic_start_window=(0.0, 10.0),
    ))
    decreases = []
    for node in scenario.network.nodes:
        watch(node.routing, decreases)
    scenario.run()
    assert not decreases, decreases[:3]
