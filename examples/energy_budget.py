#!/usr/bin/env python
"""Domain scenario: sensor-relief deployment on an energy budget.

Battery-powered nodes care about joules, not just packets. This example
runs the five protocols on a random-waypoint scenario — relief workers
criss-crossing an area at walking-to-driving pace — and reports each protocol's radio energy bill
next to its delivery ratio, including millijoules per delivered packet,
using the WaveLAN power-draw model.

Also demonstrates the topology snapshot renderer.

    python examples/energy_budget.py
"""

from repro import ScenarioConfig, build_scenario
from repro.analysis import render_network, render_series_table
from repro.stats import account_energy

PROTOCOLS = ["dsdv", "dsr", "aodv", "paodv", "cbrp"]

base = ScenarioConfig(
    mobility="waypoint",
    n_nodes=24,
    field_size=(1200.0, 600.0),
    max_speed=10.0,             # relief-worker movement pace
    duration=120.0,
    n_connections=6,
    traffic_start_window=(0.0, 20.0),
    seed=13,
)

print("Relief workers: 24 nodes, random waypoint up to 10 m/s, 1.2x0.6 km, 120 s\n")

results = {}
energies = {}
for proto in PROTOCOLS:
    print(f"  running {proto} ...")
    scen = build_scenario(base.with_(protocol=proto))
    results[proto] = scen.run()
    energies[proto] = account_energy(scen.network, base.duration)
    if proto == PROTOCOLS[-1]:
        print("\nFinal topology (last protocol's run):")
        print(render_network(scen.network, width=64, height=12, show_links=False))

table = render_series_table(
    "Energy budget per protocol",
    "metric \\ protocol",
    PROTOCOLS,
    {
        "PDR": [round(results[p].pdr, 3) for p in PROTOCOLS],
        "total energy (J)": [round(energies[p].total_joules, 1) for p in PROTOCOLS],
        "tx energy (J)": [round(energies[p].tx_joules, 2) for p in PROTOCOLS],
        "mJ / delivered pkt": [
            round(
                energies[p].joules_per_delivered(results[p].data_received) * 1000, 1
            )
            for p in PROTOCOLS
        ],
    },
)
print("\n" + table)

cheapest = min(PROTOCOLS, key=lambda p: energies[p].tx_joules)
print(f"\nLowest transmit energy: {cheapest.upper()} — idle listening dominates "
      "the budget either way, which is why MANET energy work moved toward "
      "sleep scheduling.")
