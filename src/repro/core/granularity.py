"""Migration granularity (paper section 4.4.3).

BullFrog tracks migration status at tuple granularity by default, but
"also provides the capability to track migration and lock status at
less granular levels (e.g. at a page level)".  TID ``t`` belongs to
granule ``t // granule_size``: ``granule_size = 1`` is tuple
granularity, larger values group that many consecutive TIDs into one
granule — a "page" of tuples (the paper's figure 11 sweeps 1 / 64 /
128 / 256).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from ..storage.heap import HeapTable


@dataclass(frozen=True)
class GranuleMapper:
    """Groups one heap table's TIDs into granules of ``granule_size``."""

    heap: HeapTable
    granule_size: int = 1

    def __post_init__(self) -> None:
        if self.granule_size < 1:
            raise ValueError("granule_size must be >= 1")

    @property
    def granule_count(self) -> int:
        """Number of granules covering every TID ever allocated."""
        return -(-self.heap.max_ordinal // self.granule_size)

    def bounds(self, granule: int) -> tuple[int, int]:
        """The TIDs ``[low, high)`` that ``granule`` covers."""
        low = granule * self.granule_size
        return low, low + self.granule_size

    def runs(self, granules: Iterable[int]) -> list[list[int]]:
        """The TID ranges ``[low, high)`` of ``granules``, adjacent ones
        merged: sorted granules become one range per contiguous run."""
        runs: list[list[int]] = []
        for granule in granules:
            low, high = self.bounds(granule)
            if runs and runs[-1][1] == low:
                runs[-1][1] = high
            else:
                runs.append([low, high])
        return runs
