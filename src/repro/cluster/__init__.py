"""Rack assembly: clients, ToR switch, storage servers, and baselines.

:class:`~repro.cluster.rack.Rack` wires the full end-to-end path of the
paper's testbed (§3.7): clients emulating datacenter network latency, the
programmable ToR switch running Algorithm 1, and storage servers running
Algorithm 2 -- configurable as any of the four evaluated systems (VDC,
RackBlox (Software), RackBlox, and the RackBlox-Coord I/O ablation).
"""

from repro.cluster.client import Client
from repro.cluster.config import RackConfig, SystemType
from repro.cluster.controller import VdcController
from repro.cluster.coordinators import (
    ControllerGcCoordinator,
    SwitchGcCoordinator,
)
from repro.cluster.failures import FailureManager
from repro.cluster.rack import Rack
from repro.cluster.replication import ReplicaPair, rack_aware_placement

__all__ = [
    "SystemType",
    "RackConfig",
    "Rack",
    "Client",
    "VdcController",
    "SwitchGcCoordinator",
    "ControllerGcCoordinator",
    "ReplicaPair",
    "rack_aware_placement",
    "FailureManager",
]
