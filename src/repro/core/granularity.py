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

from ..storage.heap import HeapTable
from ..storage.version import CommitStamp


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

    def tuples_in(
        self,
        granule: int,
        snapshot_ts: int | None = None,
        own_stamp: CommitStamp | None = None,
    ):
        """Yield (tid, row) for every live tuple covered by ``granule``:
        the current heads, or with ``snapshot_ts`` the versions visible
        at that timestamp, ``own_stamp``'s own writes included (what a
        snapshot reader's overlay projects)."""
        start = granule * self.granule_size
        end = start + self.granule_size
        return self.heap.scan_range(start, end, snapshot_ts, own_stamp)
