"""twinslice: a seedable LEO downlink slicing simulator.

The package is organised in three layers mirroring the simulated system:
the physical layer (`envsim`), a digital twin of it (`twin`), and the
application layer (`policy`, `nn`, `metrics`, `runner`, `cli`) where
allocation strategies are trained and compared.
"""

from .domain import (
    UNASSIGNED,
    AllocationMatrix,
    ChannelState,
    QoSRequirement,
    ResourceGrid,
    ServiceClass,
    TrafficState,
    UserTerminal,
    validate_allocation,
)

__all__ = [
    "UNASSIGNED",
    "AllocationMatrix",
    "ChannelState",
    "QoSRequirement",
    "ResourceGrid",
    "ServiceClass",
    "TrafficState",
    "UserTerminal",
    "validate_allocation",
]

__version__ = "0.1.0"
