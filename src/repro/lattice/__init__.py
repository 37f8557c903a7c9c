"""BCC lattice substrate: geometry, occupancy, indexing, and domain windows."""

from .bcc import BCCGeometry, NeighborShells, first_nn_offsets
from .domain import DomainBox, LocalWindow
from .indexing import DirectIndexer, PaddedWindow, PosIdIndexer
from .occupancy import LatticeState

__all__ = [
    "BCCGeometry",
    "NeighborShells",
    "first_nn_offsets",
    "DomainBox",
    "LocalWindow",
    "DirectIndexer",
    "PaddedWindow",
    "PosIdIndexer",
    "LatticeState",
]
