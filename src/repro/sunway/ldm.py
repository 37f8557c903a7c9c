"""LDM (local device memory) budget tracking.

Every CPE has a small software-controlled scratchpad (256 KiB on the
SW26010-pro).  Kernels in :mod:`repro.operators` declare their per-CPE
buffers against an :class:`LDMBudget`; exceeding the budget raises, exactly
the way an over-allocated LDM kernel fails to build on the real machine.
This is what enforces the paper's observation that OpenKMC's big ``lattice``
array cannot live in LDM (Sec. 2.4) while the triple-encoded vacancy systems
can (Sec. 3.4).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

__all__ = ["LDMOverflowError", "LDMBudget"]


class LDMOverflowError(MemoryError):
    """A kernel requested more LDM than one CPE has."""


@dataclass
class LDMBudget:
    """Named-buffer allocator for one CPE's scratchpad."""

    capacity: int
    allocations: Dict[str, int] = field(default_factory=dict)

    def alloc(self, name: str, nbytes: int) -> None:
        """Reserve a named buffer; raises :class:`LDMOverflowError` on overflow."""
        if nbytes < 0:
            raise ValueError(f"negative allocation {name!r}: {nbytes}")
        if name in self.allocations:
            raise ValueError(f"buffer {name!r} already allocated")
        if self.used + nbytes > self.capacity:
            raise LDMOverflowError(
                f"LDM overflow allocating {name!r} ({nbytes} B): "
                f"{self.used} B used of {self.capacity} B"
            )
        self.allocations[name] = int(nbytes)

    def free(self, name: str) -> None:
        """Release a named buffer."""
        self.allocations.pop(name)

    @property
    def used(self) -> int:
        return sum(self.allocations.values())

    @property
    def available(self) -> int:
        return self.capacity - self.used
