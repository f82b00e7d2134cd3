"""Admission control decisions and the serve policy bounds."""

import pytest

from repro.serve import AdmissionController, ServePolicy

POLICY = ServePolicy(max_queue=2, max_inflight_per_client=2,
                     retry_after_s=0.5)


def admission_over(waiting, policy=POLICY):
    """A controller whose queue depth is the live length of ``waiting``."""
    return AdmissionController(policy, queue_depth=lambda: len(waiting))


class TestDecisions:
    def test_queue_fills_then_sheds_429(self):
        waiting = []
        admission = admission_over(waiting)
        for client in ("a", "b"):
            assert admission.try_admit(client).admitted
            waiting.append(client)
        verdict = admission.try_admit("c")
        assert not verdict.admitted
        assert verdict.status == 429
        assert "queue is full" in verdict.reason
        assert verdict.retry_after_s == 0.5
        assert admission.shed_queue_full == 1

    def test_per_client_cap_sheds_429(self):
        policy = ServePolicy(max_queue=16, max_inflight_per_client=2)
        admission = AdmissionController(policy)  # nothing ever waits
        for _ in range(2):
            assert admission.try_admit("greedy").admitted
        verdict = admission.try_admit("greedy")
        assert (verdict.admitted, verdict.status) == (False, 429)
        assert "cap 2" in verdict.reason
        assert admission.try_admit("patient").admitted

    def test_draining_sheds_503(self):
        admission = AdmissionController(POLICY)
        admission.draining = True
        verdict = admission.try_admit("a")
        assert (verdict.admitted, verdict.status) == (False, 503)

    def test_release_restores_capacity(self):
        waiting = []
        admission = admission_over(waiting)
        admission.try_admit("a")
        admission.try_admit("a")
        assert not admission.try_admit("a").admitted  # client cap
        admission.release_client("a")
        admission.release_client("a")
        assert admission.try_admit("a").admitted
        waiting.append("a")
        assert admission.stats()["queued"] == 1

    def test_queue_bound_reads_the_live_depth(self):
        waiting = ["x", "y"]
        admission = admission_over(waiting)
        assert not admission.try_admit("a").admitted
        waiting.pop()  # a job left the queue by any path
        assert admission.try_admit("a").admitted
        assert admission.stats()["queued"] == 1

    def test_stats_shape(self):
        waiting = []
        admission = admission_over(waiting)
        admission.try_admit("a")
        waiting.append("a")
        stats = admission.stats()
        assert stats["accepted"] == 1
        assert stats["queued"] == 1
        assert stats["clients"] == 1


class TestPolicy:
    def test_default_policy_is_valid(self):
        assert ServePolicy().validate() is None

    @pytest.mark.parametrize("kwargs", [
        {"max_workers": 0},
        {"max_queue": 0},
        {"max_inflight_per_client": 0},
        {"default_deadline_s": 0},
        {"heartbeat_timeout_s": 0},
        {"poll_interval_s": 0},
        {"max_job_strikes": 0},
        {"breaker_threshold": 0},
        {"drain_grace_s": -1},
    ])
    def test_nonsense_policies_get_one_line_complaints(self, kwargs):
        complaint = ServePolicy(**kwargs).validate()
        assert complaint is not None
        assert "\n" not in complaint
