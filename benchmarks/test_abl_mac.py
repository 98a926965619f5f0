"""A6 — 802.11 DCF vs a no-contention-control MAC.

Re-runs AODV and DSDV over the "ideal" MAC: immediate serialized
transmission with no carrier sense, no RTS/CTS, no ACK/retransmission
(ALOHA-like). At experiment load this collapses — collisions explode
and delivery craters — demonstrating that the paper's MAC (CSMA/CA +
RTS/CTS + ARQ) is load-bearing for *every* protocol, and that the
protocol ranking measured elsewhere is not a MAC artifact: the DCF
column ordering matches the main figures.

The ideal MAC gives no link-layer feedback, so AODV over it never
learns that a link broke unless it beacons. The ``aodv/ideal+hello``
column runs it with 1 s HELLOs, as ``IdealMac``'s docstring requires,
which splits AODV's loss into the cost of no carrier sense (what the
HELLOs cannot win back) and the cost of no break detection (what they
do).
"""

from repro.analysis import base_config, render_series_table, save_result
from repro.scenario import run_scenario

#: (column, protocol, MAC, config overrides).
COLUMNS = [
    ("aodv/dcf", "aodv", "dcf", {}),
    ("aodv/ideal", "aodv", "ideal", {}),
    ("aodv/ideal+hello", "aodv", "ideal", {"hello_interval": 1.0}),
    ("dsdv/dcf", "dsdv", "dcf", {}),
    ("dsdv/ideal", "dsdv", "ideal", {}),
]


def test_a6_mac_ablation(scale, benchmark):
    results = {}

    def run_all():
        for col, proto, mac, overrides in COLUMNS:
            cfg = base_config(scale, protocol=proto, mac=mac, pause_time=0.0,
                              **overrides)
            results[col] = run_scenario(cfg)

    benchmark.pedantic(run_all, rounds=1, iterations=1)

    cols = [c[0] for c in COLUMNS]
    table = render_series_table(
        f"A6: MAC ablation at pause 0 (scale={scale.name}) — 'ideal' = "
        "no carrier sense / no ARQ",
        "metric",
        cols,
        {
            "PDR": [round(results[c].pdr, 3) for c in cols],
            "delay (ms)": [round(results[c].avg_delay * 1000, 2) for c in cols],
            "MAC collisions": [results[c].mac_collisions for c in cols],
            "routing overhead (pkts)": [
                results[c].routing_overhead_packets for c in cols
            ],
        },
    )
    save_result("A6_mac", table)

    for p in ("aodv", "dsdv"):
        dcf = results[f"{p}/dcf"]
        noctl = results[f"{p}/ideal"]
        assert dcf.pdr > 0.5, f"{p} must work over the DCF"
        # Without contention control, collisions multiply and delivery
        # degrades for every protocol.
        assert noctl.mac_collisions > dcf.mac_collisions
        assert noctl.pdr < dcf.pdr
