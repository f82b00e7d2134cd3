"""Expansion of a workload profile into a concrete page population."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Tuple

import numpy as np

from repro.workloads.cells import SharerIndex, popcount as _popcount
from repro.workloads.profile import WorkloadProfile


@dataclass
class PagePopulation:
    """Concrete pages of one workload instance.

    * ``sharer_mask[p]`` -- bitmask of the sockets that access page ``p``;
    * ``sharer_count[p]`` -- its popcount;
    * ``weight[p]`` -- the page's share of all LLC-missing accesses
      (sums to 1);
    * ``write_fraction[p]`` -- store share of accesses to the page;
    * ``class_id[p]`` -- index into ``profile.sharing``.
    """

    profile: WorkloadProfile
    n_sockets: int
    sockets_per_chassis: int
    sharer_mask: np.ndarray
    sharer_count: np.ndarray
    weight: np.ndarray
    write_fraction: np.ndarray
    class_id: np.ndarray

    @property
    def n_pages(self) -> int:
        return int(self.sharer_mask.size)

    @cached_property
    def index(self) -> SharerIndex:
        """The population's sharer cells, built once.

        Every synthesized phase stores its counts aligned to this index,
        and it caches the per-population inputs of classification.
        """
        return SharerIndex(self)

    def membership(self) -> np.ndarray:
        """Boolean (n_sockets, n_pages) matrix of who shares what."""
        return self.index.membership

    def socket_access_rates(self) -> np.ndarray:
        """Per-socket access distribution over pages.

        ``rates[s, p]`` is the probability that one access issued by
        socket ``s`` targets page ``p``. A page's weight splits uniformly
        across its sharers (the paper's uniform-sharing assumption), and
        each socket's row is normalized so every socket issues the same
        access volume (threads of a workload behave alike -- Section IV-B).
        """
        member = self.membership()
        per_sharer = self.weight / self.sharer_count
        rates = member * per_sharer[None, :]
        row_sums = rates.sum(axis=1, keepdims=True)
        if np.any(row_sums == 0):
            raise ValueError(
                "a socket shares no pages; population is too small or "
                "too skewed"
            )
        return rates / row_sums

    # -- characterization (Fig. 2 / Fig. 13) --------------------------------

    def sharing_degree_histogram(self) -> Tuple[np.ndarray, np.ndarray]:
        """Fraction of *pages* at each sharing degree (1..n_sockets)."""
        degrees = np.arange(1, self.n_sockets + 1)
        fractions = np.array([
            np.count_nonzero(self.sharer_count == degree) / self.n_pages
            for degree in degrees
        ])
        return degrees, fractions

    def access_share_by_degree(self) -> Tuple[np.ndarray, np.ndarray]:
        """Fraction of *accesses* going to pages of each sharing degree."""
        degrees = np.arange(1, self.n_sockets + 1)
        shares = np.array([
            float(self.weight[self.sharer_count == degree].sum())
            for degree in degrees
        ])
        return degrees, shares

    def read_write_split_by_degree(self) -> Tuple[np.ndarray, np.ndarray,
                                                  np.ndarray]:
        """Read and write access shares per sharing degree."""
        degrees = np.arange(1, self.n_sockets + 1)
        reads = np.zeros(degrees.size)
        writes = np.zeros(degrees.size)
        for index, degree in enumerate(degrees):
            mask = self.sharer_count == degree
            page_weight = self.weight[mask]
            page_writes = self.write_fraction[mask]
            writes[index] = float((page_weight * page_writes).sum())
            reads[index] = float((page_weight * (1 - page_writes)).sum())
        return degrees, reads, writes


def _class_sizes(profile: WorkloadProfile, n_pages: int) -> np.ndarray:
    """Pages per class by largest-remainder apportionment (sums exactly)."""
    targets = np.array([cls.page_fraction * n_pages
                        for cls in profile.sharing])
    sizes = np.floor(targets).astype(np.int64)
    remainder = n_pages - int(sizes.sum())
    if remainder:
        order = np.argsort(targets - sizes)[::-1]
        sizes[order[:remainder]] += 1
    if np.any(sizes == 0):
        raise ValueError(
            f"{profile.name}: a sharing class received zero pages; "
            "increase n_pages_sim"
        )
    return sizes


#: Pages per sharer-set block for narrowly shared classes: consecutive
#: pages of a producer/consumer buffer are shared by the *same* few
#: sockets, so sharer sets are drawn once per block. This is what keeps a
#: 512 KB migration region of a narrowly shared structure narrow, instead
#: of a per-page union that would make every region look like a vagabond.
SHARER_SET_BLOCK_PAGES = 128

#: Widest system a population can describe: sharer masks are uint32.
MAX_SOCKETS = 32


def _draw_sharer_masks(cls_sharers: int, affinity: float, size: int,
                       n_sockets: int, sockets_per_chassis: int,
                       rng: np.random.Generator) -> np.ndarray:
    """Sharer sets of a class, optionally chassis-contained.

    Classes narrower than the pool-eligibility degree draw one sharer set
    per :data:`SHARER_SET_BLOCK_PAGES` consecutive pages; widely shared
    classes draw per page (their regions are wide either way).

    Because intra-class weights are rank-ordered (hot first), per-block
    set choice must cover sockets evenly or the class head would pile on
    a few sockets and skew every socket's shared-access rate. Private
    (one-sharer) pages are therefore contiguous per-socket chunks --
    every thread has its own equally hot private working set -- and
    narrow shared classes rotate their member sets deterministically
    across blocks.
    """
    if cls_sharers == 1:
        # One contiguous, equally sized chunk per socket: threads of the
        # same program have statistically identical private working sets.
        chunk = -(-size // n_sockets)
        sockets = np.minimum(np.arange(size) // chunk, n_sockets - 1)
        return (np.uint32(1) << sockets.astype(np.uint32)).astype(np.uint32)

    block = SHARER_SET_BLOCK_PAGES if cls_sharers < 8 else 1
    if block == 1 and cls_sharers > sockets_per_chassis:
        # Never chassis-contained, so no rng.random() interleaves with
        # the per-page choices and they can be drawn as one batch.
        masks = _draw_page_masks(cls_sharers, size, n_sockets, rng)
        if masks is not None:
            return masks

    n_chassis = n_sockets // sockets_per_chassis
    n_blocks = -(-size // block)
    members = np.empty((n_blocks, cls_sharers), dtype=np.uint32)
    for block_index in range(n_blocks):
        contained = (cls_sharers <= sockets_per_chassis
                     and rng.random() < affinity)
        if contained:
            chassis = block_index % n_chassis
            base = chassis * sockets_per_chassis
            members[block_index] = base + rng.choice(
                sockets_per_chassis, size=cls_sharers, replace=False)
        elif block > 1:
            # Deterministic rotation: consecutive hot blocks land on
            # disjoint-ish member sets, covering all sockets uniformly.
            first = (block_index * cls_sharers) % n_sockets
            members[block_index] = (first + np.arange(cls_sharers)) % n_sockets
        else:
            members[block_index] = rng.choice(n_sockets, size=cls_sharers,
                                              replace=False)
    block_masks = np.bitwise_or.reduce(np.uint32(1) << members, axis=1)
    return np.repeat(block_masks, block)[:size]


def _lemire(words: np.ndarray, bound: int) -> Optional[np.ndarray]:
    """Lemire's bounded draws ``word * bound >> 32`` from 32-bit words.

    ``None`` if any word falls below the rejection threshold, where
    numpy would discard it and draw another.
    """
    scaled = words.astype(np.uint64) * np.uint64(bound)
    if np.any((scaled & np.uint64(0xFFFFFFFF)) < (2**32 - bound) % bound):
        return None
    return (scaled >> np.uint64(32)).astype(np.uint32)


def _draw_page_masks(k: int, size: int, n_sockets: int,
                     rng: np.random.Generator) -> Optional[np.ndarray]:
    """``size`` masks of ``rng.choice(n_sockets, k, replace=False)``, batched.

    ``choice`` on a small population runs Floyd's algorithm -- one draw
    in ``[0, j]`` for ``j = n-k .. n-1``, where ``j == 0`` reads no word
    and yields 0 -- then Fisher-Yates shuffles the ``k`` picks with
    draws in ``[0, i]`` for ``i = k-1 .. 1``. Each draw is one
    :func:`_lemire` step on a ``next_uint32`` word. The batch reads
    those words exactly as ``size`` successive calls would: the
    buffered half-word first, then both halves of each raw 64-bit
    output, low half first, leaving the same half buffered afterwards.
    A mask is the OR of Floyd's picks (a pick already taken inserts
    ``j`` instead); the shuffle words only advance the stream, since
    member order cannot change a mask. Words are scaled one column at a
    time, so no temporary outgrows the raw draw.

    If any word would fail Lemire's rejection test -- about one word in
    10^9 -- the generator is restored and ``None`` returned, so the
    caller can replay the class one ``choice`` at a time.
    """
    floyd = [j for j in range(n_sockets - k, n_sockets) if j > 0]
    bounds = [j + 1 for j in floyd] + list(range(k, 1, -1))
    bit_generator = rng.bit_generator
    snapshot = bit_generator.state
    n_words = size * len(bounds)
    buffered = int(snapshot["has_uint32"])
    raw = bit_generator.random_raw(-(-(n_words - buffered) // 2))
    halves = raw.astype("<u8", copy=False).view("<u4")
    if buffered:
        halves = np.concatenate(
            [np.array([snapshot["uinteger"]], dtype=np.uint32), halves])
    words = halves[:n_words].reshape(size, len(bounds))

    # With k == n, Floyd's j == 0 draw always picks socket 0.
    masks = np.full(size, int(len(floyd) < k), dtype=np.uint32)
    for column, bound in enumerate(bounds):
        picks = _lemire(words[:, column], bound)
        if picks is None:
            bit_generator.state = snapshot
            return None
        if column < len(floyd):
            bit = np.uint32(1) << picks
            taken = np.uint32(1 << floyd[column])
            masks |= np.where(masks & bit, taken, bit)

    state = bit_generator.state
    state["has_uint32"] = int(halves.size > n_words)
    if raw.size:
        state["uinteger"] = int(raw[-1] >> np.uint64(32))
    bit_generator.state = state
    return masks


def _class_weights(access_fraction: float, size: int, skew: float,
                   shuffle: bool, rng: np.random.Generator,
                   segments: int = 1) -> np.ndarray:
    """Zipf-like weights within a class, normalized to its access share.

    Rank order is kept by default: hot pages of a data structure are
    spatially clustered (degree-sorted vertex arrays, B-tree upper levels),
    which is what makes 512 KB migration regions usefully skewed. Pass
    ``shuffle`` to destroy that spatial locality (the interleaved-layout
    ablation). With ``segments`` > 1 the skew restarts per equal segment
    (used for private classes: each socket's chunk has its own hot head).
    """
    if segments < 1:
        raise ValueError(f"segments must be >= 1, got {segments}")
    segment_size = -(-size // segments)
    ranks = (np.arange(size, dtype=np.float64) % segment_size) + 1.0
    raw = ranks ** -skew if skew > 0 else np.ones(size)
    if shuffle:
        rng.shuffle(raw)
    return access_fraction * raw / raw.sum()


def build_population(profile: WorkloadProfile, n_sockets: int = 16,
                     sockets_per_chassis: int = 4,
                     seed: int = 0,
                     layout: str = "interleaved") -> PagePopulation:
    """Materialize a page population for ``profile``.

    ``layout`` controls how page classes map onto the address space:
    ``"interleaved"`` (default) permutes pages so migration regions mix
    classes, as real heaps do; ``"clustered"`` keeps each class contiguous
    (used by the region-sizing ablation).
    """
    if layout not in ("interleaved", "clustered"):
        raise ValueError(f"unknown layout {layout!r}")
    if n_sockets > MAX_SOCKETS:
        raise ValueError(
            f"n_sockets={n_sockets} exceeds {MAX_SOCKETS}: sharer masks "
            f"are {MAX_SOCKETS}-bit (uint32)")
    if n_sockets % sockets_per_chassis:
        raise ValueError("n_sockets must be a multiple of sockets_per_chassis")
    for cls in profile.sharing:
        if cls.sharers > n_sockets:
            raise ValueError(
                f"{profile.name}: class with {cls.sharers} sharers exceeds "
                f"{n_sockets} sockets"
            )

    rng = np.random.default_rng(seed)
    n_pages = profile.n_pages_sim
    sizes = _class_sizes(profile, n_pages)

    masks = np.zeros(n_pages, dtype=np.uint32)
    weight = np.zeros(n_pages, dtype=np.float64)
    write_fraction = np.zeros(n_pages, dtype=np.float64)
    class_id = np.zeros(n_pages, dtype=np.int16)

    cursor = 0
    for index, (cls, size) in enumerate(zip(profile.sharing, sizes)):
        size = int(size)
        view = slice(cursor, cursor + size)
        masks[view] = _draw_sharer_masks(
            cls.sharers, cls.chassis_affinity, size, n_sockets,
            sockets_per_chassis, rng,
        )
        weight[view] = _class_weights(
            cls.access_fraction, size, profile.weight_skew,
            layout == "interleaved", rng,
            segments=n_sockets if cls.sharers == 1 else 1,
        )
        write_fraction[view] = cls.write_fraction
        class_id[view] = index
        cursor += size

    weight /= weight.sum()

    if layout == "interleaved":
        order = rng.permutation(n_pages)
        masks, weight = masks[order], weight[order]
        write_fraction, class_id = write_fraction[order], class_id[order]

    sharer_count = _popcount(masks)
    return PagePopulation(
        profile=profile,
        n_sockets=n_sockets,
        sockets_per_chassis=sockets_per_chassis,
        sharer_mask=masks,
        sharer_count=sharer_count,
        weight=weight,
        write_fraction=write_fraction,
        class_id=class_id,
    )
