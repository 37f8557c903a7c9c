"""Spatial domain decomposition across ranks (paper Fig. 2a)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from ..lattice.domain import DomainBox

__all__ = ["GridDecomposition", "choose_grid"]


def choose_grid(n_ranks: int, shape: Tuple[int, int, int]) -> Tuple[int, int, int]:
    """Near-cubic rank grid whose product is ``n_ranks``.

    Prefers balanced factors, weighted toward the longer box axes.
    """
    best = None
    for px in range(1, n_ranks + 1):
        if n_ranks % px:
            continue
        rest = n_ranks // px
        for py in range(1, rest + 1):
            if rest % py:
                continue
            pz = rest // py
            dims = np.array([shape[0] / px, shape[1] / py, shape[2] / pz])
            if np.any(dims < 1):
                continue
            score = dims.max() / dims.min()  # closest to cubic wins
            if best is None or score < best[0]:
                best = (score, (px, py, pz))
    if best is None:
        raise ValueError(
            f"cannot decompose box {shape} over {n_ranks} ranks"
        )
    return best[1]


@dataclass(frozen=True)
class GridDecomposition:
    """A ``px x py x pz`` rank grid over a periodic cell box.

    Each rank owns a near-equal contiguous slab of cells along each axis.
    """

    global_shape: Tuple[int, int, int]
    grid: Tuple[int, int, int]

    def __post_init__(self) -> None:
        for n, p in zip(self.global_shape, self.grid):
            if p < 1 or n < p:
                raise ValueError(
                    f"grid {self.grid} does not fit box {self.global_shape}"
                )

    @property
    def n_ranks(self) -> int:
        px, py, pz = self.grid
        return px * py * pz

    def rank_coords(self, rank: int) -> Tuple[int, int, int]:
        px, py, pz = self.grid
        return (rank // (py * pz), (rank // pz) % py, rank % pz)

    def rank_of_coords(self, coords: Tuple[int, int, int]) -> int:
        px, py, pz = self.grid
        cx, cy, cz = (c % p for c, p in zip(coords, self.grid))
        return (cx * py + cy) * pz + cz

    def _axis_bounds(self, axis: int, idx: int) -> Tuple[int, int]:
        n = self.global_shape[axis]
        p = self.grid[axis]
        # Even split with the remainder spread over the leading ranks.
        base, extra = divmod(n, p)
        lo = idx * base + min(idx, extra)
        hi = lo + base + (1 if idx < extra else 0)
        return lo, hi

    def box_of_rank(self, rank: int) -> DomainBox:
        """The cell box owned by a rank."""
        coords = self.rank_coords(rank)
        lows, highs = [], []
        for axis in range(3):
            lo, hi = self._axis_bounds(axis, coords[axis])
            lows.append(lo)
            highs.append(hi)
        return DomainBox(lo=tuple(lows), hi=tuple(highs))

    def neighbors_of(self, rank: int) -> List[int]:
        """The (up to 26) distinct neighbouring ranks on the periodic grid."""
        coords = self.rank_coords(rank)
        out = set()
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                for dz in (-1, 0, 1):
                    if dx == dy == dz == 0:
                        continue
                    out.add(
                        self.rank_of_coords(
                            (coords[0] + dx, coords[1] + dy, coords[2] + dz)
                        )
                    )
        out.discard(rank)
        return sorted(out)
