"""F8 — Scaling with network size (node count, area scaled with it).

The field area grows proportionally with the node count so *density*
stays fixed and the variable is network diameter / path length. Paper
shape: AODV and DSR scale gracefully; DSDV's overhead grows with the
table size (every node advertises every destination); delivery drops
for everyone as paths lengthen.
"""

from repro.analysis import (
    render_ascii_chart,
    render_series_table,
    run_figure_sweep,
    save_result,
)
from repro.analysis.experiments import PROTOCOL_SET
from repro.scenario import ScenarioConfig, run_scenario


def test_f8_density_sweep(scale, bench_cell):
    base_nodes = scale.n_nodes
    base_w, base_h = scale.field
    counts = list(scale.node_counts)

    # One sweep per node count with the area scaled to constant density.
    results = {}
    for n in counts:
        ratio = n / base_nodes
        field = (base_w * ratio, base_h)
        cfg_overrides = dict(n_nodes=n, field_size=field)
        results[n] = run_figure_sweep(
            scale, "pause_time", [scale.pause_values[0]], PROTOCOL_SET,
            **cfg_overrides,
        )

    pdr = {p: [results[n].estimate(p, scale.pause_values[0], "pdr").mean for n in counts] for p in PROTOCOL_SET}
    ovh = {p: [results[n].estimate(p, scale.pause_values[0], "overhead_pkts").mean for n in counts] for p in PROTOCOL_SET}

    text = render_series_table(
        f"F8a: packet delivery ratio vs network size (constant density, "
        f"scale={scale.name})",
        "nodes",
        counts,
        pdr,
    )
    text += "\n\n" + render_series_table(
        "F8b: routing overhead vs network size",
        "nodes",
        counts,
        ovh,
    )
    text += "\n\n" + render_ascii_chart(counts, ovh, y_label="pkts")
    save_result("F8_density_sweep", text)

    # DSDV overhead grows with network size (periodic full dumps of a
    # bigger table); on-demand protocols' overhead grows sub-DSDV.
    assert ovh["dsdv"][-1] > ovh["dsdv"][0]
    assert ovh["dsr"][-1] < ovh["dsdv"][-1]
    bench_cell(n_nodes=counts[-1], field_size=(base_w * counts[-1] / base_nodes, base_h))


#: Paper node density (50 nodes / 1500 m × 300 m) — the static tail
#: keeps it constant like the mobile sweep above.
_DENSITY = 50 / (1500.0 * 300.0)


def _island_cfg(protocol, n_nodes, n_clusters=4):
    """A static field of four radio-disjoint clusters."""
    strip = n_nodes / n_clusters / _DENSITY / 300.0
    width = n_clusters * strip + (n_clusters - 1) * 700.0
    return ScenarioConfig(
        protocol=protocol,
        n_nodes=n_nodes,
        field_size=(width, 300.0),
        mobility="static",
        placement="clusters",
        n_clusters=n_clusters,
        cluster_gap=700.0,
        duration=10.0,
        n_connections=max(8, n_nodes // 250),
        traffic_start_window=(0.0, 3.0),
        seed=11,
    )


def test_f8_density_static_tail(scale):
    """F8c — static tail of the size sweep.

    The mobile sweep above tops out where a moving field stays
    affordable; this tail extends the size axis to 2 000 and 10 000
    nodes with static clustered fields, whose fan-out geometry is
    computed once per source. Quick scale trims the tail to keep smoke
    runs fast.

    The headline finding is the delivery collapse: at constant paper
    density the 10k field's intra-cluster paths average >100 radio
    hops, past both protocols' net-diameter/TTL caps, so PDR falls to
    zero while discovery overhead keeps compounding — the paper's
    "delivery drops as paths lengthen" trend driven to its limit.
    """
    counts = [500, 2000] if scale.name == "quick" else [2000, 10_000]
    protocols = ("dsr", "aodv")

    pdr = {p: [] for p in protocols}
    ovh = {p: [] for p in protocols}
    for p in protocols:
        for n in counts:
            summary = run_scenario(_island_cfg(p, n))
            assert summary.data_sent > 0
            assert 0.0 <= summary.pdr <= 1.0
            pdr[p].append(summary.pdr)
            ovh[p].append(summary.routing_overhead_packets)

    text = render_series_table(
        f"F8c: packet delivery ratio vs network size, static tail "
        f"(constant density, scale={scale.name})",
        "nodes",
        counts,
        pdr,
    )
    text += "\n\n" + render_series_table(
        "F8d: routing overhead vs network size (static tail)",
        "nodes",
        counts,
        ovh,
    )
    text += (
        "\n\nNote: at constant density the largest field's paths exceed "
        "the protocols' net-diameter/TTL caps (~30 hops), so delivery "
        "collapses to ~0 while discovery overhead keeps growing."
    )
    save_result("F8_density_sweep_static", text)

    # Overhead keeps growing with network size for both on-demand
    # protocols (more flows, bigger floods).
    for p in protocols:
        assert ovh[p][-1] > ovh[p][0]
