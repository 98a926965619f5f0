#!/usr/bin/env python
"""Power-user tour: hand-built topology, layer access, failure injection.

Skips the scenario harness entirely and uses the layer APIs directly:
a fixed 6-node topology with a redundant path, AODV routing, live
inspection of routing tables, then a simulated node death mid-flow to
watch the RERR → re-discovery → alternate-path sequence.

    python examples/custom_topology.py
"""

from repro.core import Simulator
from repro.mac import DcfMac
from repro.mobility import StaticPosition
from repro.net import build_network
from repro.phy import RadioParams, UnitDisk
from repro.routing import Aodv

#   0 --- 1 --- 2 --- 5      upper path (will be cut)
#    \                /
#     3 ---------- 4          lower path (backup, one hop longer legs)
POSITIONS = [
    (0.0, 100.0),      # 0: source
    (200.0, 100.0),    # 1
    (400.0, 100.0),    # 2
    (180.0, -50.0),    # 3   (0-3: 234 m, 3-4: 240 m — inside the 250 m disk)
    (420.0, -60.0),    # 4   (4-5: 241 m)
    (600.0, 100.0),    # 5: destination
]

sim = Simulator(seed=3)
net = build_network(
    sim,
    [StaticPosition(x, y) for x, y in POSITIONS],
    routing_factory=lambda s, nid, mac, rng: Aodv(s, nid, mac, rng),
    mac_factory=lambda s, radio, rng: DcfMac(s, radio, rng),
    propagation=UnitDisk(250.0),
    radio_params=RadioParams(),
)
net.start_routing()

received = []
net.nodes[5].register_receiver(lambda pkt, prev: received.append((sim.now, prev)))


def send_burst(n):
    for _ in range(n):
        net.nodes[0].send(5, 64)


print("Phase 1: discovery + 5 packets over the shortest path")
send_burst(5)
sim.run(until=2.0)
route = net.nodes[0].routing.table.get(5)
print(f"  delivered: {len(received)}; source route entry: next_hop="
      f"{route.next_hop}, hops={route.hops}")

# Both paths are 3 hops; whichever RREP won the race is now active.
active_first_hop = route.next_hop
backup_first_hop = 3 if active_first_hop == 1 else 1
backup_tail = 4 if backup_first_hop == 3 else 2

print(f"\nPhase 2: kill node {active_first_hop} (the active path) mid-session")
# Simulate a dead node by making its radio deaf and mute.
dead = net.nodes[active_first_hop]
dead.mac.send = lambda *a, **k: None
dead.radio.power_off()

send_burst(5)
sim.run(until=20.0)
route = net.nodes[0].routing.table.get(5)
print(f"  delivered total: {len(received)}")
print(f"  new route: next_hop={route.next_hop}, hops={route.hops} "
      f"(expected detour via {backup_first_hop})")

last_prev = received[-1][1]
print(f"  last packet arrived at node 5 from node {last_prev}")
assert route.next_hop == backup_first_hop, "route should switch paths"
assert last_prev == backup_tail, "backup path should feed node 5"
assert len(received) == 10, "all 10 packets should eventually arrive"
print("\nThe RERR/re-discovery sequence routed around the failure.")
