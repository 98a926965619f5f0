"""Network layer: packets, node wiring, send buffer.

The stack builder (``Network``, ``build_network``) lives in
:mod:`repro.net.stack` and is not re-exported here: it imports the PHY,
which imports ``mac.frames``, which imports ``net.packet`` — re-exporting
it would close that loop through this package.
"""

from .node import Node
from .packet import BROADCAST, Packet, PacketKind
from .sendbuffer import SendBuffer

__all__ = [
    "BROADCAST",
    "Packet",
    "PacketKind",
    "Node",
    "SendBuffer",
]
