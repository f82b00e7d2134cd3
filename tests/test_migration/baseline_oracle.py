"""Per-candidate loop of the baseline policy, the oracle for the array pass.

The program's :meth:`repro.migration.BaselinePolicy.decide` applies the
clear-winner pages in bulk and walks only the near-tied ones in order.
This module keeps the original loop -- one candidate at a time, each
tie resolved by ``flatnonzero`` + ``argmin`` over the running
``remote_served`` sums -- so the array pass can be pinned to it: the
same moves in the same order, the same page map, the same obs records.
"""

import numpy as np

from repro.migration import BaselinePolicy
from repro.migration.records import MigrationBatch, RegionMove
from repro.obs import OBS
from repro.placement.pagemap import PageMap


class OracleBaselinePolicy(BaselinePolicy):
    """:class:`BaselinePolicy` deciding through the per-candidate loop."""

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
        cols = np.flatnonzero(current >= 0)

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
        # zero-cost oracle balances that, not total DRAM load.
        remote_served = np.zeros(n_sockets, dtype=np.float64)
        np.add.at(remote_served, current[cols],
                  (totals[cols] - current_count[cols]).astype(np.float64))

        # The destination scan is sequential (each move shifts
        # ``remote_served`` for later tie-breaks), but the tie structure
        # is not: precompute, per candidate, which sockets are within 10%
        # of its peak count. Pages with a single clear winner -- the
        # common case -- take the precomputed argmax without touching
        # ``remote_served``, leaving the per-page flatnonzero/argmin work
        # to the genuinely tied pages only. Only the candidate columns
        # are ever densified.
        cand_counts = counts.columns(candidates)
        tied = cand_counts >= (cand_counts.max(axis=0) * 0.9)[None, :]
        tie_degree = tied.sum(axis=0)
        clear_winner = cand_counts.argmax(axis=0)

        budget = self.config.migration_limit_pages
        moved_pages = []
        moved_dest = []
        for rank, page in enumerate(candidates):
            if len(moved_pages) >= budget:
                break
            if tie_degree[rank] == 1:
                destination = int(clear_winner[rank])
            else:
                near_tied = np.flatnonzero(tied[:, rank])
                destination = int(
                    near_tied[np.argmin(remote_served[near_tied])]
                )
            source = int(current[page])
            if destination == source:
                continue
            page_column = cand_counts[:, rank]
            total = float(totals[page])
            remote_served[source] -= total - float(page_column[source])
            remote_served[destination] += (total
                                           - float(page_column[destination]))
            moved_pages.append(int(page))
            moved_dest.append(destination)
            if OBS.enabled:
                OBS.counter("migration.decisions")
                OBS.counter("migration.pages_moved")
                # Per-page provenance is detail-level: the baseline moves
                # thousands of pages per phase under a scaled budget.
                OBS.detail(
                    "migration.decision", policy="baseline",
                    phase=self.phases_run, page=int(page), pages=1,
                    source=source, destination=destination,
                    accesses=total,
                    current_accesses=float(current_count[page]),
                    best_accesses=float(best_count[page]),
                    rule=("dominant-accessor" if tie_degree[rank] == 1
                          else "tie-balance"),
                    hysteresis=self.hysteresis,
                )

        if not moved_pages:
            return batch
        OBS.event("migration.batch", policy="baseline",
                  phase=self.phases_run, pages=len(moved_pages))
        pages = np.array(moved_pages, dtype=np.int64)
        destinations = np.array(moved_dest, dtype=np.int64)
        for destination in np.unique(destinations):
            group = pages[destinations == destination]
            sources = current[group]
            for source in np.unique(sources):
                subset = group[sources == source]
                batch.add(RegionMove(pages=subset, source=int(source),
                                     destination=int(destination)))
            page_map.move(group, int(destination))
        return batch
