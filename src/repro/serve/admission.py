"""Admission control: overload degrades predictably, never into OOM.

The controller enforces two bounds per the policy: a bounded
submission queue (jobs admitted but not yet running) and a per-client
in-flight cap (jobs queued or running per client identity). Every
submission is decided *before* any work is queued: a full queue or a
capped client is shed with 429 + ``Retry-After``, a draining server
sheds with 503. Decisions are counted (``serve.admit.*``) so overload
behavior is observable. The queue depth is not counted here but read
live from its owner (``queue_depth``, bound by the job manager to its
count of waiting jobs), so no exit path -- a crash requeue, a deadline
that lapses in the queue -- can leak or double-free a queue slot. A
job releases its client charge exactly once, on reaching a terminal
state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional

from repro.obs import OBS
from repro.serve.policy import ServePolicy


@dataclass(frozen=True)
class AdmissionDecision:
    """The verdict on one submission."""

    admitted: bool
    #: HTTP status to send when not admitted (429 or 503).
    status: int = 0
    #: One-line reason when not admitted.
    reason: str = ""
    #: Advisory retry delay for the shed response.
    retry_after_s: Optional[float] = None


class AdmissionController:
    """Bounded-queue and per-client accounting for submissions."""

    def __init__(self, policy: ServePolicy,
                 queue_depth: Callable[[], int] = lambda: 0) -> None:
        self.policy = policy
        #: Jobs admitted but not yet running, read at every decision.
        self.queue_depth = queue_depth
        self._inflight_by_client: Dict[str, int] = {}
        self.draining = False
        #: Totals, mirrored to obs counters.
        self.accepted = 0
        self.shed_queue_full = 0
        self.shed_client_cap = 0
        self.shed_draining = 0

    # -- decisions -----------------------------------------------------------

    def try_admit(self, client: str) -> AdmissionDecision:
        """Decide one submission; an admitted one MUST be released."""
        policy = self.policy
        if self.draining:
            self.shed_draining += 1
            OBS.counter("serve.admit.shed_draining")
            return AdmissionDecision(
                admitted=False, status=503,
                reason="server is draining; not accepting submissions",
                retry_after_s=policy.retry_after_s)
        if self.queue_depth() >= policy.max_queue:
            self.shed_queue_full += 1
            OBS.counter("serve.admit.shed_queue_full")
            return AdmissionDecision(
                admitted=False, status=429,
                reason=f"submission queue is full "
                       f"({policy.max_queue} waiting)",
                retry_after_s=policy.retry_after_s)
        inflight = self._inflight_by_client.get(client, 0)
        if inflight >= policy.max_inflight_per_client:
            self.shed_client_cap += 1
            OBS.counter("serve.admit.shed_client_cap")
            return AdmissionDecision(
                admitted=False, status=429,
                reason=f"client has {inflight} job(s) in flight "
                       f"(cap {policy.max_inflight_per_client})",
                retry_after_s=policy.retry_after_s)
        self._inflight_by_client[client] = inflight + 1
        self.accepted += 1
        OBS.counter("serve.admit.accepted")
        return AdmissionDecision(admitted=True)

    # -- reservation lifecycle ----------------------------------------------

    def release_client(self, client: str) -> None:
        """A client's job reached a terminal state."""
        count = self._inflight_by_client.get(client, 0)
        if count <= 1:
            self._inflight_by_client.pop(client, None)
        else:
            self._inflight_by_client[client] = count - 1

    # -- introspection -------------------------------------------------------

    def stats(self) -> Dict[str, object]:
        return {
            "queued": self.queue_depth(),
            "clients": len(self._inflight_by_client),
            "accepted": self.accepted,
            "shed_queue_full": self.shed_queue_full,
            "shed_client_cap": self.shed_client_cap,
            "shed_draining": self.shed_draining,
            "draining": self.draining,
        }
