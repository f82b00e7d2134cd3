"""M/D/1 waiting-time approximation for link and channel queueing.

Each link direction is modeled as a single-server queue with deterministic
service (a cache-block transfer takes ``block_bytes / capacity`` seconds)
and Poisson arrivals, giving the classic M/D/1 mean waiting time

    Wq = S * rho / (2 * (1 - rho))

Past ``MAX_STABLE_UTILIZATION`` the expression is extended linearly with a
matching first derivative. Real systems in that regime are throttled by
the cores' finite memory-level parallelism; the closed-loop timing model
(see :mod:`repro.sim.timing`) lowers IPC as the waiting time grows, which
pushes utilization back below 1 at the fixed point. The linear extension
simply keeps the iteration monotone and finite on the way there.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

from repro.config import units

#: Utilization at which the analytic M/D/1 curve hands over to the linear
#: extension.
MAX_STABLE_UTILIZATION = 0.95

#: Default arrival-burstiness multiplier on waiting times. LLC-miss
#: arrivals from out-of-order cores are far from Poisson -- misses cluster
#: at cache-line and page boundaries and behind ROB stalls -- so the
#: G/G/1-style correction (1 + Ca^2)/2 with a squared coefficient of
#: variation around 10 multiplies the M/D/1 wait. This single constant is
#: what lets a moderate mean utilization reproduce the heavy queueing
#: delays cycle-level simulation observes on coherent links.
DEFAULT_BURSTINESS = 6.0


def service_time_ns(block_bytes: float, capacity_gbps: float) -> float:
    """Service time of one ``block_bytes`` transfer on a link, nanoseconds.

    ``capacity_gbps`` is GB/s per direction; 1 GB/s moves one byte per
    nanosecond, so the service time is simply ``bytes / GBps``.
    """
    if capacity_gbps <= 0:
        raise ValueError(f"capacity must be positive, got {capacity_gbps}")
    if block_bytes < 0:
        raise ValueError(f"block size must be >= 0, got {block_bytes}")
    return units.transfer_time_ns(block_bytes, capacity_gbps)


def mdl_wait_ns(utilization: float, service_ns: float,
                max_utilization: float = MAX_STABLE_UTILIZATION,
                burstiness: float = 1.0) -> float:
    """Mean waiting time: burstiness x M/D/1, linear past saturation.

    Parameters
    ----------
    utilization:
        Offered load divided by capacity. May exceed 1 transiently during
        fixed-point iteration.
    service_ns:
        Deterministic service time of one transfer.
    max_utilization:
        Hand-over point to the linear extension (must be in (0, 1)).
    burstiness:
        G/G/1-style multiplier for non-Poisson arrivals (1.0 = Poisson;
        see :data:`DEFAULT_BURSTINESS`).
    """
    if service_ns < 0:
        raise ValueError(f"service time must be >= 0, got {service_ns}")
    if not 0.0 < max_utilization < 1.0:
        raise ValueError(
            f"max_utilization must be in (0, 1), got {max_utilization}"
        )
    if burstiness <= 0:
        raise ValueError(f"burstiness must be positive, got {burstiness}")
    if utilization <= 0.0:
        return 0.0
    if utilization < max_utilization:
        wait = service_ns * utilization / (2.0 * (1.0 - utilization))
    else:
        # Linear extension: value and slope of the M/D/1 curve at the
        # handover point. d/du [u / (2(1-u))] = 1 / (2 (1-u)^2).
        base = max_utilization / (2.0 * (1.0 - max_utilization))
        slope = 1.0 / (2.0 * (1.0 - max_utilization) ** 2)
        wait = service_ns * (base + slope * (utilization - max_utilization))
    return burstiness * wait


def mdl_wait_ns_array(utilization: np.ndarray, service_ns: np.ndarray,
                      max_utilization: float = MAX_STABLE_UTILIZATION,
                      burstiness: Union[float, np.ndarray] = 1.0,
                      out: Optional[np.ndarray] = None,
                      scratch: Optional[np.ndarray] = None,
                      mask: Optional[np.ndarray] = None) -> np.ndarray:
    """Whole-vector :func:`mdl_wait_ns` over per-slot arrays.

    Evaluates the identical expressions branch for branch -- analytic
    M/D/1 below the handover, the matching linear extension above, zero
    at or below zero utilization -- so each element agrees with the
    scalar function to the last bit.

    Shapes broadcast elementwise, and every operation is elementwise, so
    each element's value depends only on its own inputs.

    When ``out`` is given the result is written into it and no float
    arrays are allocated (``scratch`` provides the one intermediate
    buffer; it is allocated once if omitted). The ``out`` path performs
    the same IEEE operations in the same order as the allocating path,
    so the results are bit-identical. ``out`` and ``scratch`` must have
    the broadcast result shape and must not alias ``utilization`` or
    ``service_ns``; ``mask`` (same shape, bool) likewise avoids the two
    boolean temporaries of the branch selection.
    """
    if not 0.0 < max_utilization < 1.0:
        raise ValueError(
            f"max_utilization must be in (0, 1), got {max_utilization}"
        )
    if isinstance(burstiness, (int, float)):
        if burstiness <= 0.0:
            raise ValueError(
                f"burstiness must be positive, got {burstiness}"
            )
    elif np.any(np.asarray(burstiness) <= 0.0):
        raise ValueError(f"burstiness must be positive, got {burstiness}")
    utilization = np.asarray(utilization, dtype=np.float64)
    base = max_utilization / (2.0 * (1.0 - max_utilization))
    slope = 1.0 / (2.0 * (1.0 - max_utilization) ** 2)
    if out is None:
        # Clamp the analytic branch's denominator away from zero before the
        # division; np.where evaluates both branches, and the saturated
        # elements take the linear-extension value anyway.
        safe = np.minimum(utilization, max_utilization)
        analytic = service_ns * safe / (2.0 * (1.0 - safe))
        linear = service_ns * (base + slope * (utilization - max_utilization))
        wait = np.where(utilization < max_utilization, analytic, linear)
        return burstiness * np.where(utilization <= 0.0, 0.0, wait)
    if scratch is None:
        scratch = np.empty_like(out)
    # Allocation-free variant: the ufunc chain below reproduces the
    # expressions above operation for operation (reassociating only
    # across exactly-commutative float multiplies/adds), so every
    # element is bit-identical to the allocating path.
    np.minimum(utilization, max_utilization, out=scratch)       # safe
    np.multiply(service_ns, scratch, out=out)                   # service * safe
    np.subtract(1.0, scratch, out=scratch)                      # 1 - safe
    np.multiply(2.0, scratch, out=scratch)                      # 2 * (1 - safe)
    np.divide(out, scratch, out=out)                            # analytic
    np.subtract(utilization, max_utilization, out=scratch)
    np.multiply(slope, scratch, out=scratch)
    np.add(base, scratch, out=scratch)
    np.multiply(service_ns, scratch, out=scratch)               # linear
    if mask is None:
        np.copyto(out, scratch, where=utilization >= max_utilization)
        np.copyto(out, 0.0, where=utilization <= 0.0)
    else:
        np.greater_equal(utilization, max_utilization, out=mask)
        np.copyto(out, scratch, where=mask)
        np.less_equal(utilization, 0.0, out=mask)
        np.copyto(out, 0.0, where=mask)
    np.multiply(out, burstiness, out=out)
    return out
