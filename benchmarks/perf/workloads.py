"""The five workloads: how ``--seed`` becomes inputs, and what a run must satisfy.

Every workload is a list of :class:`~repro.scenario.config.ScenarioConfig`.
The simulated topology is part of the workload's definition
(``ScenarioConfig.seed`` stays 1): re-drawing node placement and flow
endpoints moves the cost of a 50-node point by a quarter between seeds
(154 k to 289 k events over twelve seeds), more than any regression
bound, so a benchmark that re-drew them could not tell a slower program
from an unlucky draw. ``--seed`` instead draws the traffic phase: the
upper edge of ``traffic_start_window`` is scaled by a factor in
[0.95, 1.05], which moves every flow's start time, changes every
config's cache key and decorrelates the event trajectory, while the
offered load and the topology (and so the layer mix) stay put.

``repro`` is imported inside the functions so that the driver process,
which only needs the names, never pays for it.
"""

from __future__ import annotations

import random

__all__ = ["WORKLOADS", "PAPER_PROTOCOLS", "configs", "band_error"]

PAPER_PROTOCOLS = ("dsdv", "dsr", "aodv", "paodv", "cbrp")

#: Names, in run order. The four simulation workloads time
#: ``Scenario.run()``; ``figure_sweep`` times ``SweepExecutor.run()``.
WORKLOADS = ("paper_point", "dense_cell", "wide_field", "table_driven", "figure_sweep")

#: figure_sweep's pause-time axis (seconds), seven values up to the duration.
SWEEP_PAUSES = (0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0)

#: ``--smoke`` divides every duration, window and pause by this.
SMOKE_DIVISOR = 5.0


def _window(seed: int, upper: float):
    return (0.0, upper * (0.95 + 0.1 * random.Random(seed).random()))


def configs(name: str, seed: int, smoke: bool = False) -> list:
    """The scenario configs of workload *name* for ``--seed`` *seed*."""
    from repro.scenario import ScenarioConfig
    from repro.scenario.sweep import sweep_configs

    k = SMOKE_DIVISOR if smoke else 1.0

    def cfg(duration: float, window: float, **fields):
        return ScenarioConfig(
            seed=1,
            duration=duration / k,
            traffic_start_window=_window(seed, window / k),
            **fields,
        )

    if name == "paper_point":
        # The paper's base scenario (ScenarioConfig defaults: 50 nodes,
        # 1500 x 300 m, waypoint <= 20 m/s, pause 0, 10 CBR x 4 pkt/s x 64 B).
        return [cfg(10.0, 2.0, protocol=p) for p in PAPER_PROTOCOLS]
    if name == "dense_cell":
        return [cfg(5.0, 0.5, protocol="aodv", n_nodes=20, field_size=(200.0, 200.0),
                    mobility="static", n_connections=20, rate=80.0, packet_size=256)]
    if name == "wide_field":
        return [cfg(0.8, 0.5, protocol="aodv", n_nodes=1000,
                    field_size=(6000.0, 2000.0), n_connections=10)]
    if name == "table_driven":
        return [cfg(0.8, 0.5, protocol="dsdv", n_nodes=1000,
                    field_size=(6000.0, 2000.0), n_connections=30)]
    if name == "figure_sweep":
        base = cfg(6.0, 1.2, n_nodes=30, field_size=(1000.0, 300.0), n_connections=6)
        pauses = [p / k for p in SWEEP_PAUSES]
        return [c for _point, c in
                sweep_configs(base, "pause_time", pauses, PAPER_PROTOCOLS, 1)]
    raise KeyError(name)


def band_error(name: str, summary, smoke: bool = False) -> str:
    """Why *summary* is outside its workload's sanity band ('' = inside).

    The bands are loose on purpose: they catch a run that did no work
    or the wrong kind of work, not a behaviour change (the golden
    digests report those). A ``--smoke`` run is too short for routes to
    settle, so it is only asked to have sent something.
    """
    if summary.data_sent <= 0:
        return "sent no data"
    if smoke:
        return ""
    if name == "paper_point" and summary.pdr < 0.8:
        return f"pdr {summary.pdr:.3f} < 0.8 (network should be connected)"
    if name == "dense_cell" and summary.pdr >= 0.9:
        return f"pdr {summary.pdr:.3f} >= 0.9 (cell should be saturated)"
    return ""
