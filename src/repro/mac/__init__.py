"""MAC layer: 802.11 DCF, ideal MAC, frames, interface queue, and the
shared contention arena the channel drives."""

from .arena import ContentionArena
from .base import MacLayer, MacStats, UpperLayer
from .dcf import DcfMac
from .frames import Dot11, Frame, FrameType
from .ideal import IdealMac
from .ifq import InterfaceQueue

__all__ = [
    "MacLayer",
    "MacStats",
    "UpperLayer",
    "ContentionArena",
    "DcfMac",
    "Dot11",
    "Frame",
    "FrameType",
    "IdealMac",
    "InterfaceQueue",
]
