"""Traffic generation: CBR sources and connection patterns."""

from .cbr import CbrSource, FlowPayload
from .patterns import Connection, generate_connections

__all__ = [
    "CbrSource",
    "FlowPayload",
    "Connection",
    "generate_connections",
]
