"""DSDV's table only moves forward, in whole simulations.

Random small DSDV scenarios, static or moving, run under fault plans
that break links (frame loss, a partition, node churn). Every agent's
``on_control`` and ``link_failed`` is watched: before and after each
call the agent's row keys are compared with the last snapshot.

A row key is ``seq << 32 | (2**32 - 1 - metric)`` (low half 0 for ∞,
-1 for a destination never heard of), so integer order is DSDV's
adoption order and the protocol's monotonicity is one array comparison:
no known row's key decreases — its sequence number never goes back, and
at an equal sequence its metric never grows — which also means no known
row becomes unknown again. The node's own row always holds its current
even sequence number at metric 0.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults.plan import FaultPlanConfig
from repro.routing.dsdv import LOW
from repro.scenario import ScenarioConfig
from repro.scenario.build import build_scenario

DURATION = 30.0
WIDTH = 1200.0


class _Watch:
    """Wraps one agent's hooks and checks its table around every call."""

    def __init__(self, agent):
        self.agent = agent
        self.last = agent._key.copy()
        #: Receives that adopted a row, and link failures that broke one.
        self.adopting = self.breaking = 0
        for name in ("on_control", "link_failed"):
            setattr(agent, name, self._wrap(name, getattr(agent, name)))

    def _wrap(self, name, hook):
        def watched(*args):
            self.check()  # whatever moved since the last call (dumps)
            hook(*args)
            moved = self.check()
            if name == "on_control":
                self.adopting += moved
            else:
                self.breaking += moved
        return watched

    def check(self) -> bool:
        """Assert the invariants; whether any row moved since the last check."""
        agent = self.agent
        key, last = agent._key, self.last
        before = key[: len(last)]
        assert len(key) >= len(last)
        went_back = np.flatnonzero(before < last)
        assert not len(went_back), (agent.addr, went_back, last[went_back], key[went_back])
        assert agent.seq % 2 == 0
        assert int(key[agent.addr]) == agent.seq << 32 | LOW
        assert agent._next_hop[agent.addr] == agent.addr
        assert not agent._changed[agent.addr]
        moved = len(key) > len(last) or bool((before != last).any())
        self.last = key.copy()
        return moved


def run_watched(cfg):
    scenario = build_scenario(cfg)
    watches = [_Watch(node.routing) for node in scenario.network.nodes]
    scenario.run()
    for watch in watches:
        watch.check()
    return watches


def config(seed, n_nodes, mobility, link_loss, churn, partition):
    return ScenarioConfig(
        protocol="dsdv",
        n_nodes=n_nodes,
        field_size=(WIDTH, 300.0),
        mobility=mobility,
        duration=DURATION,
        n_connections=min(8, n_nodes - 1),
        traffic_start_window=(0.0, 5.0),
        seed=seed,
        faults=FaultPlanConfig(
            link_loss=link_loss,
            churn_rate=churn,
            mean_downtime=3.0,
            partitions=((8.0, 20.0, WIDTH / 2),) if partition else (),
        ),
    )


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(0, 2**20),
    n_nodes=st.integers(3, 12),
    mobility=st.sampled_from(["static", "waypoint"]),
    link_loss=st.sampled_from([0.0, 0.1, 0.3]),
    churn=st.sampled_from([0.0, 0.05, 0.1]),
    partition=st.booleans(),
)
def test_keys_never_decrease(seed, n_nodes, mobility, link_loss, churn, partition):
    run_watched(config(seed, n_nodes, mobility, link_loss, churn, partition))


def test_the_watch_sees_adoptions_and_breaks():
    """A faulted moving run exercises both hooks, so the property is not
    vacuous: receives adopt rows and link failures break them."""
    watches = run_watched(config(11, 10, "waypoint", 0.3, 0.0, False))
    assert sum(w.adopting for w in watches) > 100
    assert sum(w.breaking for w in watches) > 10
