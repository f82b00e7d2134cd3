"""Per-block reference of Step A's sharer-set draws, the oracle for the batch.

The program draws every per-page (widely shared) class's sharer sets in
one vectorized batch that consumes the PCG64 stream word for word as
``Generator.choice(n, k, replace=False)`` would. This module keeps the
original loop -- one ``rng.choice`` per block, OR-ed bit by bit -- so the
batch can be pinned to it: identical masks and an identical generator
state afterwards.
"""

import numpy as np

from repro.workloads.population import SHARER_SET_BLOCK_PAGES


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
    masks = np.zeros(size, dtype=np.uint32)
    n_chassis = n_sockets // sockets_per_chassis
    if cls_sharers == 1:
        # One contiguous, equally sized chunk per socket: threads of the
        # same program have statistically identical private working sets.
        chunk = -(-size // n_sockets)
        sockets = np.minimum(np.arange(size) // chunk, n_sockets - 1)
        return (np.uint32(1) << sockets.astype(np.uint32)).astype(np.uint32)

    block = SHARER_SET_BLOCK_PAGES if cls_sharers < 8 else 1
    for block_index, start in enumerate(range(0, size, block)):
        contained = (cls_sharers <= sockets_per_chassis
                     and rng.random() < affinity)
        if contained:
            chassis = block_index % n_chassis
            base = chassis * sockets_per_chassis
            members = base + rng.choice(sockets_per_chassis,
                                        size=cls_sharers, replace=False)
        elif block > 1:
            # Deterministic rotation: consecutive hot blocks land on
            # disjoint-ish member sets, covering all sockets uniformly.
            first = (block_index * cls_sharers) % n_sockets
            members = (first + np.arange(cls_sharers)) % n_sockets
        else:
            members = rng.choice(n_sockets, size=cls_sharers, replace=False)
        mask = np.uint32(0)
        for member in members:
            mask |= np.uint32(1) << np.uint32(member)
        masks[start:start + block] = mask
    return masks
