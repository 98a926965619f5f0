"""Shared helpers for routing tests: networks over ideal or DCF MACs."""

from __future__ import annotations

import functools

import pytest

from repro.core import Simulator
from repro.mac import DcfMac, IdealMac
from repro.mobility import StaticPosition
from repro.net.stack import build_network
from repro.phy import RadioParams, UnitDisk


def ideal_mac_factory(sim, radio, rng):
    return IdealMac(sim, radio)


def dcf_mac_factory(sim, radio, rng, **kwargs):
    return DcfMac(sim, radio, rng, **kwargs)


def make_static_network(
    positions,
    routing_factory,
    mac="dcf",
    radius=250.0,
    seed=1,
    mac_kwargs=None,
):
    """Build a static-topology network for protocol tests.

    Returns the (sim, network) pair; routing agents are started.
    """
    sim = Simulator(seed=seed)
    models = [StaticPosition(x, y) for x, y in positions]
    if mac == "ideal":
        mf = ideal_mac_factory
    else:
        mf = functools.partial(dcf_mac_factory, **(mac_kwargs or {}))
    net = build_network(
        sim,
        models,
        routing_factory=routing_factory,
        mac_factory=mf,
        propagation=UnitDisk(radius),
        radio_params=RadioParams(),
    )
    net.start_routing()
    return sim, net


def collect_deliveries(net):
    """Attach recorders to every node; returns the shared log list."""
    log = []
    for node in net.nodes:
        node.register_receiver(
            lambda pkt, prev, _nid=node.node_id: log.append((_nid, pkt, prev))
        )
    return log


@pytest.fixture
def static_net():
    return make_static_network


@pytest.fixture
def deliveries():
    return collect_deliveries
