"""Persistence: scenario configs as JSON, results as CSV.

Experiment campaigns need to be re-runnable from artifacts: a saved
config JSON plus this library version pins a simulation exactly
(configs are frozen dataclasses of primitives and the kernel is
deterministic in the seed).
"""

from __future__ import annotations

import csv
import dataclasses
import json
from pathlib import Path
from typing import Dict, Iterable, List, Union

from ..core.errors import ConfigurationError
from ..core.schema import from_json
from ..stats.metrics import HEADLINE_FIELDS, MetricsSummary
from .config import ScenarioConfig
from .sweep import SweepResult

__all__ = [
    "config_to_dict",
    "config_from_dict",
    "save_config",
    "load_config",
    "read_json",
    "summaries_to_csv",
    "sweep_to_csv",
]

PathLike = Union[str, Path]


def config_to_dict(cfg: ScenarioConfig) -> dict:
    """JSON-ready dict of *cfg* (tuples become lists, plans nest)."""
    out = dataclasses.asdict(cfg)
    for key, value in out.items():
        if isinstance(value, tuple):
            out[key] = list(value)
    if cfg.faults is not None:
        out["faults"] = cfg.faults.to_dict()
    return out


def config_from_dict(data: dict) -> ScenarioConfig:
    """Rebuild a config from decoded JSON.

    Unknown keys (typo protection), wrong value types and invalid
    values all raise :class:`ConfigurationError` naming the key.
    """
    return from_json(ScenarioConfig, data, "config")


def save_config(cfg: ScenarioConfig, path: PathLike) -> None:
    Path(path).write_text(json.dumps(config_to_dict(cfg), indent=2) + "\n")


def read_json(path: PathLike, what: str):
    """The decoded JSON file at *path*; a missing, unreadable or
    malformed file raises :class:`ConfigurationError` naming it as
    *what*."""
    try:
        return json.loads(Path(path).read_text())
    except OSError as exc:
        raise ConfigurationError(
            f"{path}: cannot read {what}: {exc.strerror or exc}"
        ) from None
    except (ValueError, RecursionError) as exc:
        raise ConfigurationError(f"{path}: not a JSON {what}: {exc}") from None


def load_config(path: PathLike) -> ScenarioConfig:
    return config_from_dict(read_json(path, "config"))


def _perf_profile_columns(rows: List[MetricsSummary]):
    """Extra (header, per-row getter) pairs for perf + profile data.

    Perf counters come out in :data:`~repro.core.perfcounters.COUNTERS`
    order (prefixed ``perf_``); profile layers become
    ``profile_<layer>_s`` self-time seconds, sorted by name. Rows
    lacking a counter/layer (unprofiled runs, summaries from an older
    engine) report 0.
    """
    from ..core.perfcounters import COUNTERS
    from ..obs.profiler import profile_layer_seconds

    seen = set()
    for s in rows:
        seen.update(s.perf)
    perf_names = [n for n in COUNTERS if n in seen]
    perf_names += sorted(seen - set(COUNTERS))

    layer_rows = [profile_layer_seconds(s.profile) for s in rows]
    layers = sorted({layer for row in layer_rows for layer in row})

    header = [f"perf_{n}" for n in perf_names]
    header += [f"profile_{layer}_s" for layer in layers]

    def values(i: int, s: MetricsSummary) -> List:
        vals: List = [s.perf.get(n, 0) for n in perf_names]
        vals += [layer_rows[i].get(layer, 0.0) for layer in layers]
        return vals

    return header, values


def _drops_columns(rows: List[MetricsSummary]):
    """Extra (header, per-row getter) pairs for drop-reason counts.

    One ``drop_<reason>`` column per reason seen anywhere in the rows
    (sorted union), so every row lines up regardless of which reasons
    it hit.
    """
    seen = set()
    for s in rows:
        seen.update(s.drops_by_reason)
    reasons = sorted(seen)
    header = [f"drop_{r}" for r in reasons]

    def values(_i: int, s: MetricsSummary) -> List:
        return [s.drops_by_reason.get(r, 0) for r in reasons]

    return header, values


def summaries_to_csv(
    summaries: Iterable[MetricsSummary],
    path: PathLike,
    extra: Dict[str, List] = None,
    include_perf: bool = False,
    include_drops: bool = False,
) -> None:
    """One row per summary; optional parallel ``extra`` columns.

    ``include_perf`` appends the engine's perf-counter columns and the
    per-layer profile columns after the metric columns;
    ``include_drops`` appends per-reason drop columns (after the perf
    block when both are on). Off (the default) keeps the historical
    header byte-for-byte, so existing golden CSVs stay valid.
    """
    rows = list(summaries)
    extra = extra or {}
    for key, values in extra.items():
        if len(values) != len(rows):
            raise ConfigurationError(
                f"extra column {key!r} has {len(values)} values for {len(rows)} rows"
            )
    obs_header: List[str] = []
    obs_values = None
    if include_perf:
        obs_header, obs_values = _perf_profile_columns(rows)
    drops_header: List[str] = []
    drops_values = None
    if include_drops:
        drops_header, drops_values = _drops_columns(rows)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            list(extra) + list(HEADLINE_FIELDS) + obs_header + drops_header
        )
        for i, s in enumerate(rows):
            writer.writerow(
                [extra[k][i] for k in extra]
                + [getattr(s, col) for col in HEADLINE_FIELDS]
                + (obs_values(i, s) if obs_values is not None else [])
                + (drops_values(i, s) if drops_values is not None else [])
            )


def sweep_to_csv(
    result: SweepResult,
    path: PathLike,
    include_perf: bool = False,
    include_drops: bool = False,
) -> None:
    """Flatten a sweep (every replication) into one CSV.

    ``include_perf`` adds perf-counter and profile columns,
    ``include_drops`` adds per-reason drop columns (see
    :func:`summaries_to_csv`).
    """
    rows: List[MetricsSummary] = []
    extra: Dict[str, List] = {result.param: [], "replication": []}
    for (proto, x), summaries in result.raw.items():
        for rep, s in enumerate(summaries):
            rows.append(s)
            extra[result.param].append(x)
            extra["replication"].append(rep)
    summaries_to_csv(
        rows, path, extra=extra,
        include_perf=include_perf, include_drops=include_drops,
    )
