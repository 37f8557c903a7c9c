"""The two rank loops of one sublattice cycle, run in rank order."""

from __future__ import annotations

from typing import List

from .ghost import SiteUpdates

__all__ = ["InlineExecutor"]


# A class of its own only because the e2e tracer wraps these two methods by name.
class InlineExecutor:
    """Runs every rank's sector, then every rank's ghost apply, in order."""

    def __init__(self, sim) -> None:
        self._sim = sim

    def run_sectors(self, sector, t_stop: float, killed) -> List[SiteUpdates]:
        return [
            rank.run_sector(sector, t_stop)
            if rank.rank not in killed
            else SiteUpdates.empty()
            for rank in self._sim.ranks
        ]

    def apply_exchange(self, killed) -> None:
        for rank in self._sim.ranks:
            if rank.rank in killed:
                continue
            written_half = rank.exchanger.apply_updates()
            if written_half.size:
                rank.kernel.invalidate_near(written_half)
            rank.exchanger.comm.barrier()
            rank.rescan_vacancies()
