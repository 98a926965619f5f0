"""Routing protocols: the paper's five contenders plus a baseline.

==========  ============================================  ================
Protocol    Class                                         Category
==========  ============================================  ================
DSDV        :class:`~repro.routing.dsdv.Dsdv`             proactive
DSR         :class:`~repro.routing.dsr.Dsr`               reactive
AODV        :class:`~repro.routing.aodv.Aodv`             reactive
PAODV       :class:`~repro.routing.paodv.Paodv`           reactive
CBRP        :class:`~repro.routing.cbrp.Cbrp`             reactive
OLSR        :class:`~repro.routing.olsr.Olsr`             proactive (ext.)
Oracle      :class:`~repro.routing.oracle.OracleRouting`  baseline
==========  ============================================  ================
"""

from .aodv import Aodv
from .base import RoutingProtocol, RoutingStats
from .cbrp import Cbrp
from .dsdv import Dsdv
from .dsr import Dsr
from .neighbors import NeighborTable
from .olsr import Olsr
from .oracle import OracleRouting, shortest_hop_path
from .paodv import Paodv, default_preempt_threshold

__all__ = [
    "Aodv",
    "RoutingProtocol",
    "RoutingStats",
    "Cbrp",
    "Dsdv",
    "Dsr",
    "NeighborTable",
    "Olsr",
    "OracleRouting",
    "shortest_hop_path",
    "Paodv",
    "default_preempt_threshold",
]
