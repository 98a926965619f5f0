"""Wireless PHY: propagation models, radios, the shared channel."""

from .channel import Channel
from .propagation import (
    WAVELAN_914MHZ,
    PropagationModel,
    RadioParams,
    TwoRayGround,
    UnitDisk,
)
from .radio import Radio, RadioStats
from .spatial import SpatialIndex

__all__ = [
    "Channel",
    "WAVELAN_914MHZ",
    "PropagationModel",
    "RadioParams",
    "TwoRayGround",
    "UnitDisk",
    "Radio",
    "RadioStats",
    "SpatialIndex",
]
