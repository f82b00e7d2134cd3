"""The idealized baseline migration policy (Section IV-C).

To isolate the contribution of the pool as an architectural block from
the specific migration policy, the paper favors the baseline with
*zero-cost, per-socket knowledge of all accesses to every 4 KB page* each
phase. Decisions are free; only the migration itself (shootdowns, copies,
stalls) is charged.

With full knowledge the obvious policy is: home every sufficiently hot
page at the socket that accesses it most, provided the move is clearly
profitable. A hysteresis margin prevents oscillation on evenly shared
pages -- exactly the vagabond pages the baseline architecturally has no
good answer for.
"""

from __future__ import annotations

import numpy as np

from repro.config import MigrationConfig
from repro.migration.records import MigrationBatch, RegionMove, page_ids
from repro.obs import OBS
from repro.placement.pagemap import PageMap


class BaselinePolicy:
    """Per-page, perfect-knowledge migration toward the dominant accessor."""

    def __init__(self, config: MigrationConfig,
                 min_accesses_per_page: int = 64,
                 hysteresis: float = 1.25):
        if min_accesses_per_page < 1:
            raise ValueError("min_accesses_per_page must be >= 1")
        if hysteresis < 1.0:
            raise ValueError(f"hysteresis must be >= 1, got {hysteresis}")
        self.config = config
        self.min_accesses = min_accesses_per_page
        self.hysteresis = hysteresis
        self.phases_run = 0

    def decide(self, counts, page_map: PageMap) -> MigrationBatch:
        """Choose and apply this phase's migrations.

        ``counts`` holds the oracle per-(socket, page) access counts of
        the ending phase, sparse (a :class:`repro.trace.PhaseTrace`).
        """
        self.phases_run += 1
        batch = MigrationBatch(phase=self.phases_run)
        n_sockets, n_pages = counts.n_sockets, counts.n_pages
        if n_pages != page_map.n_pages:
            raise ValueError(
                f"count matrix covers {n_pages} pages, map has "
                f"{page_map.n_pages}"
            )

        totals = counts.page_totals()
        best_count = counts.page_peaks()
        current = page_map.locations.astype(np.int64)
        # Count of accesses served locally if the page stays put. Pages on
        # the pool never occur in the baseline (no pool), but guard anyway.
        current_count = counts.at_sockets(current)

        profitable = (
            (totals >= self.min_accesses)
            & (best_count.astype(np.float64)
               > current_count.astype(np.float64) * self.hysteresis)
        )
        candidates = np.flatnonzero(profitable)
        if candidates.size == 0:
            return batch

        # Hottest pages first: with a page budget, perfect knowledge spends
        # it where it pays most.
        candidates = candidates[np.argsort(totals[candidates])[::-1]]

        # Perfect knowledge also balances: among sockets whose access
        # counts are near-tied for a page, the rational destination is the
        # one serving the least *remote* traffic -- the home socket's
        # coherent links carry every fill it serves to other sockets, so a
        # zero-cost oracle balances that, not total DRAM load. Bin 0
        # collects pages on the pool (location -1) and is dropped.
        remote_served = np.bincount(
            current + 1, weights=totals - current_count,
            minlength=n_sockets + 1)[1:]

        # Per candidate, the sockets within 10% of its peak count: a page
        # with one such socket is a clear winner and takes the argmax
        # without reading ``remote_served``. Only the candidate columns
        # are ever densified.
        cand_counts = counts.columns(candidates)
        tied = cand_counts >= (cand_counts.max(axis=0) * 0.9)[None, :]
        tie_degree = tied.sum(axis=0)
        clear_winner = cand_counts.argmax(axis=0)

        # Decisions are made hottest first, and each move shifts
        # ``remote_served`` for the tie-breaks after it. Only tied pages
        # read it, so clear winners are applied in bulk: their deltas are
        # binned by how many ties precede them, and a cumulative sum gives
        # each tie the clear-winner load before it. Only the ties are
        # walked in order. Every ``remote_served`` term is an
        # integer-valued float64 and every partial sum stays far below
        # 2**53, so reassociating the additions cannot change a bit.
        ranks = np.arange(candidates.size)
        sources = current[candidates]
        accesses = totals[candidates].astype(np.float64)
        loss = accesses - cand_counts[sources, ranks]
        is_tie = tie_degree > 1
        tie_ranks = np.flatnonzero(is_tie)
        clear_moves = ~is_tie & (clear_winner != sources)
        clear = np.flatnonzero(clear_moves)
        segment = np.cumsum(is_tie)[clear] * n_sockets
        load = np.bincount(
            np.concatenate((np.arange(n_sockets), segment + sources[clear],
                            segment + clear_winner[clear])),
            weights=np.concatenate((
                remote_served, -loss[clear],
                accesses[clear] - cand_counts[clear_winner[clear], clear])),
            minlength=(tie_ranks.size + 1) * n_sockets,
        ).reshape(tie_ranks.size + 1, n_sockets)
        np.cumsum(load, axis=0, out=load)

        # Per tie, its tied sockets in ascending order (``argmin`` keeps
        # the first minimum), their loads before it and the gain a move
        # there adds.
        tie_of, tied_sockets = np.nonzero(tied[:, tie_ranks].T)
        bounds = np.searchsorted(tie_of, np.arange(tie_ranks.size + 1))
        gains = (accesses[tie_ranks[tie_of]]
                 - cand_counts[tied_sockets, tie_ranks[tie_of]])
        budget = self.config.migration_limit_pages
        destination = clear_winner.astype(np.int64)
        destination[tie_ranks] = self._walk_ties(
            np.cumsum(clear_moves)[tie_ranks].tolist(),
            sources[tie_ranks].tolist(), loss[tie_ranks].tolist(),
            bounds.tolist(), tied_sockets.tolist(),
            load[tie_of, tied_sockets].tolist(), gains.tolist(),
            n_sockets, budget,
        )
        # Unwalked ties lie past the budget; ``destination == source``
        # leaves them, like a skip, out of the moves.
        moved = np.flatnonzero(destination != sources)[:budget]
        if moved.size == 0:
            return batch

        pages = page_ids(candidates[moved])
        sources = sources[moved]
        destination = destination[moved]
        if OBS.enabled:
            OBS.counter("migration.decisions", moved.size)
            OBS.counter("migration.pages_moved", moved.size)
            clear_flags = (tie_degree[moved] == 1).tolist()
            # Per-page provenance is detail-level: the baseline moves
            # thousands of pages per phase under a scaled budget.
            for page, source, target, total, held, best, is_clear in zip(
                    pages.tolist(), sources.tolist(), destination.tolist(),
                    accesses[moved].tolist(),
                    current_count[pages].astype(np.float64).tolist(),
                    best_count[pages].astype(np.float64).tolist(),
                    clear_flags):
                OBS.detail(
                    "migration.decision", policy="baseline",
                    phase=self.phases_run, page=page, pages=1,
                    source=source, destination=target,
                    accesses=total, current_accesses=held,
                    best_accesses=best,
                    rule="dominant-accessor" if is_clear else "tie-balance",
                    hysteresis=self.hysteresis,
                )
        OBS.event("migration.batch", policy="baseline",
                  phase=self.phases_run, pages=moved.size)

        # One move per (destination, source), destinations ascending, then
        # sources; pages stay in rank order inside each (stable sort).
        key = destination * n_sockets + sources
        order = np.argsort(key, kind="stable")
        pages, key = pages[order], key[order]
        firsts = np.flatnonzero(np.diff(key, prepend=-1))
        bounds = [*firsts.tolist(), pages.size]
        for move_key, lo, hi in zip(key[firsts].tolist(), bounds, bounds[1:]):
            target, source = divmod(move_key, n_sockets)
            batch.add(RegionMove(pages=pages[lo:hi], source=source,
                                 destination=target))
        edges = np.searchsorted(
            key, np.arange(n_sockets + 1) * n_sockets).tolist()
        for target, (lo, hi) in enumerate(zip(edges, edges[1:])):
            if hi > lo:
                page_map.move(pages[lo:hi], target)
        return batch

    @staticmethod
    def _walk_ties(clear_before, sources, losses, bounds, tied_sockets,
                   loads, gains, n_sockets, budget):
        """Destinations of the tied pages, walked in rank order.

        Tie ``j`` picks, among ``tied_sockets[bounds[j]:bounds[j + 1]]``,
        the first with the least remote load: its load before the tie
        (``loads``, clear winners included) plus the shift of the ties
        moved so far. The walk stops once ``budget`` moves precede a tie;
        the ties left keep their source as destination.
        """
        destinations = list(sources)
        tie_load = [0.0] * n_sockets
        n_moved = 0
        for j, source in enumerate(sources):
            if clear_before[j] + n_moved >= budget:
                break
            best = bounds[j]
            best_load = loads[best] + tie_load[tied_sockets[best]]
            for entry in range(best + 1, bounds[j + 1]):
                value = loads[entry] + tie_load[tied_sockets[entry]]
                if value < best_load:
                    best, best_load = entry, value
            target = tied_sockets[best]
            if target != source:
                tie_load[source] -= losses[j]
                tie_load[target] += gains[best]
                n_moved += 1
                destinations[j] = target
        return destinations
