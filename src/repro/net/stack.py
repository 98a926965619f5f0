"""Build a full protocol stack for every node in a scenario.

``build_network`` wires, for each node: radio → MAC → routing agent →
:class:`~repro.net.node.Node`, all sharing one channel. Factories keep
the function agnostic to the concrete MAC/routing choice:

* ``mac_factory(sim, radio, rng)`` → a :class:`~repro.mac.base.MacLayer`
* ``routing_factory(sim, node_id, mac, rng)`` → a routing agent exposing
  the MAC upper-layer interface plus ``originate``/``start``/``node``.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence

from ..core.simulator import Simulator
from ..mobility.base import MobilityModel
from ..mobility.manager import MobilityManager
from ..phy.channel import Channel
from ..phy.propagation import WAVELAN_914MHZ, PropagationModel, RadioParams, TwoRayGround
from ..phy.radio import Radio
from .node import Node

__all__ = ["Network", "build_network"]


class Network:
    """The wired-up scenario: nodes, channel, mobility."""

    def __init__(
        self,
        sim: Simulator,
        nodes: List[Node],
        channel: Channel,
        mobility: MobilityManager,
    ):
        self.sim = sim
        self.nodes = nodes
        self.channel = channel
        self.mobility = mobility

    def __len__(self) -> int:
        return len(self.nodes)

    def start_routing(self) -> None:
        """Start every routing agent (periodic timers etc.)."""
        for node in self.nodes:
            start = getattr(node.routing, "start", None)
            if start is not None:
                start()


def build_network(
    sim: Simulator,
    mobility_models: Sequence[MobilityModel],
    routing_factory: Callable,
    mac_factory: Callable,
    propagation: Optional[PropagationModel] = None,
    radio_params: Optional[RadioParams] = None,
    position_quantum: float = 0.0,
) -> Network:
    """Assemble the full stack for ``len(mobility_models)`` nodes.

    ``position_quantum`` is the channel's geometry sample period (see
    :class:`~repro.phy.channel.Channel`). Receptions resolve on the
    channel's arrival ledger. DCF keeps per-node timers: the shared
    contention arena (:meth:`~repro.phy.channel.Channel.enable_arena`)
    is attached by ``build_scenario``, not here.
    """
    propagation = propagation if propagation is not None else TwoRayGround()
    params = radio_params if radio_params is not None else WAVELAN_914MHZ
    mobility = MobilityManager(mobility_models, sim.perf)
    channel = Channel(
        sim,
        mobility,
        propagation,
        params,
        position_quantum=position_quantum,
    )
    nodes: List[Node] = []
    for i in range(len(mobility_models)):
        radio = Radio(sim, i, params)
        channel.attach(radio)
        mac = mac_factory(sim, radio, sim.rng.stream(f"mac.{i}"))
        routing = routing_factory(sim, i, mac, sim.rng.stream(f"routing.{i}"))
        node = Node(sim, i, radio, mac, routing)
        routing.node = node
        nodes.append(node)
    return Network(sim, nodes, channel, mobility)
