"""Set-associative write-back LLC with LRU replacement."""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.config.parameters import CACHE_BLOCK_BYTES


@dataclass
class CacheStats:
    """Hit/miss/writeback counters of one cache instance."""

    hits: int = 0
    misses: int = 0
    writebacks: int = 0
    evictions: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def miss_rate(self) -> float:
        if not self.accesses:
            return 0.0
        return self.misses / self.accesses


@dataclass
class AccessResult:
    """Outcome of one cache access."""

    hit: bool
    #: Block address written back to memory by the fill, if any.
    writeback_block: Optional[int] = None


class SetAssociativeCache:
    """A write-back, write-allocate, LRU set-associative cache.

    Addresses are byte addresses; the cache operates on aligned
    ``block_bytes`` blocks. Each set is an ``OrderedDict`` from tag to a
    dirty flag, with LRU order maintained by ``move_to_end``.
    """

    def __init__(self, capacity_bytes: int, ways: int,
                 block_bytes: int = CACHE_BLOCK_BYTES):
        if capacity_bytes <= 0 or ways <= 0 or block_bytes <= 0:
            raise ValueError("capacity, ways and block size must be positive")
        n_blocks = capacity_bytes // block_bytes
        if n_blocks < ways:
            raise ValueError(
                f"capacity {capacity_bytes} B holds {n_blocks} blocks, "
                f"fewer than {ways} ways"
            )
        self.block_bytes = block_bytes
        self.ways = ways
        self.n_sets = max(1, n_blocks // ways)
        self.stats = CacheStats()
        self._sets: List["OrderedDict[int, bool]"] = [
            OrderedDict() for _ in range(self.n_sets)
        ]

    @property
    def capacity_bytes(self) -> int:
        return self.n_sets * self.ways * self.block_bytes

    def _locate(self, address: int) -> Tuple[int, int]:
        block = address // self.block_bytes
        return block % self.n_sets, block

    def access(self, address: int, is_write: bool = False) -> AccessResult:
        """Access one address; return hit/miss and any writeback it caused."""
        set_index, tag = self._locate(address)
        cache_set = self._sets[set_index]
        if tag in cache_set:
            self.stats.hits += 1
            cache_set[tag] = cache_set[tag] or is_write
            cache_set.move_to_end(tag)
            return AccessResult(hit=True)

        self.stats.misses += 1
        writeback = None
        if len(cache_set) >= self.ways:
            victim_tag, victim_dirty = cache_set.popitem(last=False)
            self.stats.evictions += 1
            if victim_dirty:
                self.stats.writebacks += 1
                writeback = victim_tag * self.block_bytes
        cache_set[tag] = is_write
        return AccessResult(hit=False, writeback_block=writeback)

    def contains(self, address: int) -> bool:
        """True if the block holding ``address`` is cached (no LRU update)."""
        set_index, tag = self._locate(address)
        return tag in self._sets[set_index]

    def invalidate(self, address: int) -> bool:
        """Drop the block holding ``address``; return whether it was present.

        Dirty data is discarded silently -- the coherence model accounts
        for the transfer separately (the block moves to the requester, not
        to memory).
        """
        set_index, tag = self._locate(address)
        return self._sets[set_index].pop(tag, None) is not None

    def occupancy(self) -> int:
        """Number of valid blocks currently cached."""
        return sum(len(cache_set) for cache_set in self._sets)

    def reset_stats(self) -> None:
        self.stats = CacheStats()

    def flush(self) -> int:
        """Empty the cache; return the number of dirty blocks dropped."""
        dirty = 0
        for cache_set in self._sets:
            dirty += sum(1 for flag in cache_set.values() if flag)
            cache_set.clear()
        return dirty
