"""Migration decision records shared by all policies."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

import numpy as np

from repro.topology.model import POOL_LOCATION


@dataclass(frozen=True)
class RegionMove:
    """One migration decision: a group of pages moving to a destination."""

    pages: np.ndarray
    source: int
    destination: int

    @property
    def n_pages(self) -> int:
        return int(self.pages.size)

    @property
    def to_pool(self) -> bool:
        return self.destination == POOL_LOCATION

    @property
    def from_pool(self) -> bool:
        return self.source == POOL_LOCATION


@dataclass
class MigrationBatch:
    """All migrations decided for one phase.

    Page totals are counted as moves arrive (through :meth:`add`, or in
    ``moves`` at construction), so reading them never walks the moves.
    Add moves only through :meth:`add`.
    """

    phase: int
    moves: List[RegionMove] = field(default_factory=list)
    _n_pages: int = field(default=0, init=False, repr=False, compare=False)
    _to_pool: int = field(default=0, init=False, repr=False, compare=False)
    _from_pool: int = field(default=0, init=False, repr=False,
                            compare=False)
    #: Pages of demand moves into the pool (socket -> pool).
    _demand_to_pool: int = field(default=0, init=False, repr=False,
                                 compare=False)

    def __post_init__(self) -> None:
        for move in self.moves:
            self._count(move)

    def add(self, move: RegionMove) -> None:
        self.moves.append(move)
        self._count(move)

    def _count(self, move: RegionMove) -> None:
        n_pages = move.pages.size
        self._n_pages += n_pages
        from_pool = move.source == POOL_LOCATION
        if from_pool:
            self._from_pool += n_pages
        if move.destination == POOL_LOCATION:
            self._to_pool += n_pages
            if not from_pool:
                self._demand_to_pool += n_pages

    @property
    def n_pages(self) -> int:
        return self._n_pages

    @property
    def pages_to_pool(self) -> int:
        return self._to_pool

    @property
    def pages_from_pool(self) -> int:
        return self._from_pool

    @property
    def demand_pages(self) -> int:
        """Pages of demand-driven moves (victim evictions excluded)."""
        return self._n_pages - self._from_pool

    @property
    def demand_pages_to_pool(self) -> int:
        """Pages of demand-driven moves whose destination is the pool."""
        return self._demand_to_pool

    def pool_fraction(self) -> float:
        """Fraction of migrated pages whose destination is the pool.

        This is Table IV's metric when accumulated over a whole run
        (victim evictions out of the pool are excluded from the
        denominator, since Table IV reports destination shares of
        demand-driven migrations).
        """
        if self.demand_pages == 0:
            return 0.0
        return self._demand_to_pool / self.demand_pages

    def all_pages(self) -> np.ndarray:
        if not self.moves:
            return np.empty(0, dtype=np.int64)
        return np.concatenate([move.pages for move in self.moves])
