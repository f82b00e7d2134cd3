"""Allocation-free evaluation paths must be bit-identical to allocating ones."""

import numpy as np
import pytest

from repro.interconnect.queueing import mdl_wait_ns, mdl_wait_ns_array


def sample_utilization(n=64, seed=3):
    rng = np.random.default_rng(seed)
    # Cover all three branches: idle, analytic, saturated.
    utilization = rng.uniform(-0.2, 1.4, size=n)
    service = rng.uniform(0.5, 12.0, size=n)
    return utilization, service


class TestMdlWaitOutPath:
    def test_bit_identical_to_allocating_path(self):
        utilization, service = sample_utilization()
        expected = mdl_wait_ns_array(utilization, service, burstiness=6.0)
        out = np.empty_like(expected)
        scratch = np.empty_like(expected)
        result = mdl_wait_ns_array(utilization, service, burstiness=6.0,
                                   out=out, scratch=scratch)
        assert result is out
        assert np.array_equal(result, expected)

    def test_matches_scalar_elementwise(self):
        utilization, service = sample_utilization()
        out = np.empty_like(utilization)
        mdl_wait_ns_array(utilization, service, burstiness=6.0, out=out)
        for u, s, w in zip(utilization, service, out):
            assert w == pytest.approx(
                mdl_wait_ns(float(u), float(s), burstiness=6.0), rel=1e-12)

    def test_lane_axis_broadcast_rows_match_solo(self):
        """(lanes, slots) stacked evaluation == per-lane evaluation."""
        lanes = []
        for seed in range(4):
            lanes.append(sample_utilization(n=32, seed=seed)[0])
        utilization = np.stack(lanes)
        service = sample_utilization(n=32, seed=99)[1]
        burstiness = np.array([[1.0], [2.0], [6.0], [9.5]])
        stacked = mdl_wait_ns_array(utilization, service,
                                    burstiness=burstiness)
        for row in range(4):
            solo = mdl_wait_ns_array(utilization[row], service,
                                     burstiness=float(burstiness[row, 0]))
            assert np.array_equal(stacked[row], solo)

    def test_out_path_broadcasts_lane_axis(self):
        utilization = np.stack([sample_utilization(n=16, seed=s)[0]
                                for s in range(3)])
        service = sample_utilization(n=16, seed=42)[1]
        expected = mdl_wait_ns_array(utilization, service, burstiness=6.0)
        out = np.empty_like(expected)
        scratch = np.empty_like(expected)
        mdl_wait_ns_array(utilization, service, burstiness=6.0,
                          out=out, scratch=scratch)
        assert np.array_equal(out, expected)

    def test_array_burstiness_validated(self):
        utilization, service = sample_utilization(n=4)
        with pytest.raises(ValueError, match="burstiness"):
            mdl_wait_ns_array(utilization, service,
                              burstiness=np.array([[1.0], [-2.0]]))

