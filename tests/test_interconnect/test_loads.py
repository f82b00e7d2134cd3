"""Tests for per-link traffic accounting.

Recording goes through the per-hop functions of the scalar oracle
(``tests/test_sim/scalar_oracle.py``), which write the same byte
vector the array charge fills.
"""

import pytest

from repro.interconnect import LinkLoads
from repro.topology import POOL_LOCATION
from tests.test_sim.scalar_oracle import (
    add,
    add_access_traffic,
    add_transfer_traffic,
    fill_delay_ns,
)


@pytest.fixture
def loads(star_topology):
    return LinkLoads(star_topology, burstiness=1.0)


class TestRecording:
    def test_add_accumulates(self, loads, star_routes):
        hop = star_routes.route(0, 2)[0]
        add(loads, hop, 100.0)
        add(loads, hop, 50.0)
        assert loads.offered_gbps(hop, window_ns=150.0) == pytest.approx(1.0)

    def test_directions_independent(self, loads, star_routes):
        hop = star_routes.route(0, 2)[0]
        add(loads, hop, 100.0)
        assert loads.offered_gbps(hop.reversed(), 100.0) == 0.0

    def test_dram_directions_alias(self, loads, star_routes):
        dram = star_routes.route(3, 3)[0]
        add(loads, dram, 60.0)
        add(loads, dram.reversed(), 40.0)
        assert loads.offered_gbps(dram, 100.0) == pytest.approx(1.0)

    def test_rejects_negative_bytes(self, loads, star_routes):
        with pytest.raises(ValueError):
            add(loads, star_routes.route(0, 2)[0], -1.0)

    def test_reset(self, loads, star_routes):
        hop = star_routes.route(0, 2)[0]
        add(loads, hop, 100.0)
        loads.reset()
        assert loads.offered_gbps(hop, 100.0) == 0.0


class TestAccessTraffic:
    def test_fill_heavier_than_request(self, loads, star_routes):
        route = star_routes.route(0, 15)
        add_access_traffic(loads, route, accesses=1000, writeback_fraction=0.0)
        hop = route[0]
        request = loads.offered_gbps(hop, 1000.0)
        fill = loads.offered_gbps(hop.reversed(), 1000.0)
        assert fill > request

    def test_writebacks_add_forward_traffic(self, star_topology, star_routes):
        dry = LinkLoads(star_topology)
        wet = LinkLoads(star_topology)
        route = star_routes.route(0, 15)
        add_access_traffic(dry, route, 1000, writeback_fraction=0.0)
        add_access_traffic(wet, route, 1000, writeback_fraction=0.5)
        hop = route[0]
        assert (wet.offered_gbps(hop, 1000.0)
                > dry.offered_gbps(hop, 1000.0))
        # Fill direction unchanged by writebacks.
        assert wet.offered_gbps(hop.reversed(), 1000.0) == pytest.approx(
            dry.offered_gbps(hop.reversed(), 1000.0)
        )

    def test_rejects_bad_writeback_fraction(self, loads, star_routes):
        with pytest.raises(ValueError):
            add_access_traffic(loads, star_routes.route(0, 1), 10,
                               writeback_fraction=1.5)

    def test_rejects_negative_accesses(self, loads, star_routes):
        with pytest.raises(ValueError):
            add_access_traffic(loads, star_routes.route(0, 1), -5, 0.0)

    def test_transfer_traffic_forward_heavy(self, loads, star_routes):
        route = star_routes.block_transfer_route(0, 9, POOL_LOCATION)
        add_transfer_traffic(loads, route, transfers=100)
        owner_up = route[0]
        assert (loads.offered_gbps(owner_up, 100.0)
                > loads.offered_gbps(owner_up.reversed(), 100.0))


class TestDelays:
    def test_delay_zero_when_idle(self, loads, star_routes):
        assert loads.delay_ns(star_routes.route(0, 2)[0], 100.0) == 0.0

    def test_delay_grows_with_load(self, loads, star_routes):
        hop = star_routes.route(0, 2)[0]
        add(loads, hop, 50.0)
        low = loads.delay_ns(hop, 100.0)
        add(loads, hop, 100.0)
        high = loads.delay_ns(hop, 100.0)
        assert high > low > 0

    def test_fill_delay_sums_reverse_hops(self, loads, star_routes):
        route = star_routes.route(0, 15)
        add_access_traffic(loads, route, 2000, writeback_fraction=0.3)
        assert fill_delay_ns(loads, route, 1000.0) > 0

    def test_window_must_be_positive(self, loads, star_routes):
        with pytest.raises(ValueError):
            loads.offered_gbps(star_routes.route(0, 2)[0], 0.0)

    def test_burstiness_multiplies_delay(self, star_topology, star_routes):
        calm = LinkLoads(star_topology, burstiness=1.0)
        bursty = LinkLoads(star_topology, burstiness=4.0)
        hop = star_routes.route(0, 2)[0]
        add(calm, hop, 100.0)
        add(bursty, hop, 100.0)
        assert bursty.delay_ns(hop, 100.0) == pytest.approx(
            4.0 * calm.delay_ns(hop, 100.0)
        )

    def test_rejects_bad_burstiness(self, star_topology):
        with pytest.raises(ValueError):
            LinkLoads(star_topology, burstiness=0.0)


class TestDiagnostics:
    def test_sample_fields(self, loads, star_routes):
        hop = star_routes.route(0, 2)[0]
        add(loads, hop, 150.0)
        sample = loads.sample(hop, 100.0)
        assert sample.link_id == "upi:s0-s2"
        assert sample.offered_gbps == pytest.approx(1.5)
        assert sample.utilization == pytest.approx(1.5 / 3.0)

    def test_busiest_sorted(self, loads, star_routes):
        add(loads, star_routes.route(0, 2)[0], 300.0)
        add(loads, star_routes.route(0, 1)[0], 100.0)
        top = loads.busiest(100.0, top=2)
        assert top[0].utilization >= top[1].utilization
        assert top[0].link_id == "upi:s0-s2"
