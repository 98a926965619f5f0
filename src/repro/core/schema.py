"""Typed decoding of JSON objects into dataclasses.

Every JSON boundary — scenario configs and fault plans from files or
HTTP, run summaries from the result store or a fabric frame — rebuilds
its dataclass through :func:`from_json`. Unknown keys, missing required
fields and values of the wrong type raise :class:`ConfigurationError`
naming the key. Lists become tuples for tuple fields, decimal keys
become ints for int-keyed dicts, and nested dataclasses decode too.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import typing

from .errors import ConfigurationError

__all__ = ["check_finite", "from_json"]

_hints = functools.lru_cache(maxsize=None)(typing.get_type_hints)


def _convert(value, tp, where: str):
    """*value* checked against annotation *tp*, converted to match."""
    if type(value) is tp or tp is float and type(value) is int:
        return value
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if dataclasses.is_dataclass(tp) and isinstance(value, dict):
        return from_json(tp, value, where)
    if origin is typing.Union:  # Optional[X]
        return None if value is None else _convert(value, args[0], where)
    if origin in (list, tuple) and isinstance(value, (list, tuple)):
        if origin is list or args[-1] is Ellipsis:
            args = (args[0],) * len(value)
        if len(args) == len(value):
            return origin(_convert(v, t, where) for v, t in zip(value, args))
    if origin is dict and isinstance(value, dict):
        out = {}
        for key, item in value.items():
            if args[0] is int and type(key) is str:
                try:
                    key = int(key) if str(int(key)) == key else key
                except ValueError:
                    pass
            if type(key) is not args[0]:
                raise ConfigurationError(f"{where}: bad key {key!r:.40}")
            out[key] = _convert(item, args[1], f"{where}[{key}]")
        return out
    name = getattr(tp, "__name__", None) or str(tp).replace("typing.", "")
    raise ConfigurationError(
        f"{where}: expected {name}, got {type(value).__name__}"
    )


def from_json(cls, data, what: str):
    """Dataclass *cls* from decoded JSON *data* (*what* names it in
    errors); absent fields with defaults take their defaults."""
    if not isinstance(data, dict):
        raise ConfigurationError(
            f"{what} must be a JSON object, got {type(data).__name__}"
        )
    hints = _hints(cls)
    unknown = sorted(set(data) - set(hints), key=str)
    missing = [
        f.name for f in dataclasses.fields(cls) if f.name not in data
        and f.default is f.default_factory is dataclasses.MISSING
    ]
    for problem, keys in (("unknown", unknown), ("missing", missing)):
        if keys:
            raise ConfigurationError(f"{problem} {what} keys: {keys}")
    return cls(**{
        name: _convert(value, hints[name], f"{what} key {name!r}")
        for name, value in data.items()
    })


def _finite(value) -> bool:
    if isinstance(value, (tuple, list)):
        return all(map(_finite, value))
    return not isinstance(value, float) or math.isfinite(value)


def check_finite(obj) -> None:
    """Reject NaN and ±inf in any field of dataclass *obj*, tuples
    (field sizes, windows) included. Range checks cannot: every
    comparison with NaN is false."""
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        if not _finite(value):
            raise ConfigurationError(f"{f.name} must be finite, got {value!r}")
