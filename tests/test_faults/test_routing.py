"""Route recomputation around failed links, per link kind."""

import pytest

from repro.faults import (
    FaultEvent,
    FaultKind,
    FaultSchedule,
    FaultState,
    PartitionedTopologyError,
    faulted_topology,
)
from repro.topology import RouteTable
from repro.topology.model import LinkKind
from repro.topology.routing import NOMINAL_HOPS


def routes_under(topology, *events):
    state = FaultSchedule(list(events)).state_at(max(e.phase for e in events))
    return RouteTable(faulted_topology(topology, state))


def link_ids(route):
    return [hop.link.link_id for hop in route]


class TestUpiPeerFailure:
    def test_detours_through_chassis_asic(self, star_topology, star_routes):
        routes = routes_under(
            star_topology,
            FaultEvent(FaultKind.LINK_FAIL, link_id="upi:s0-s1"),
        )
        direct = link_ids(star_routes.route(0, 1))
        detoured = link_ids(routes.route(0, 1))
        assert direct == ["upi:s0-s1", "dram:s1"]
        assert detoured == ["upi:s0-flex0", "upi:s1-flex0", "dram:s1"]
        assert routes.detour_penalty_ns(0, 1) > 0.0

    def test_unrelated_routes_untouched(self, star_topology, star_routes):
        routes = routes_under(
            star_topology,
            FaultEvent(FaultKind.LINK_FAIL, link_id="upi:s0-s1"),
        )
        assert link_ids(routes.route(2, 3)) == link_ids(
            star_routes.route(2, 3))
        assert routes.detour_penalty_ns(2, 3) == 0.0


class TestNumalinkFailure:
    def test_detours_through_third_chassis(self, star_topology):
        routes = routes_under(
            star_topology,
            FaultEvent(FaultKind.LINK_FAIL, link_id="numa:c0-c1"),
        )
        # Socket 0 (chassis 0) -> socket 4 (chassis 1) must now transit a
        # surviving chassis' ASIC: two NUMALink traversals.
        route = routes.route(0, 4)
        numalinks = [hop.link.link_id for hop in route
                     if hop.link.kind is LinkKind.NUMALINK]
        assert len(numalinks) == 2
        assert "numa:c0-c1" not in link_ids(route)
        assert routes.detour_penalty_ns(0, 4) > 0.0


class TestCxlFailure:
    def test_pool_reached_via_neighbour_socket(self, star_topology):
        routes = routes_under(
            star_topology,
            FaultEvent(FaultKind.LINK_FAIL, link_id="cxl:s0"),
        )
        route = routes.route(0, -1)
        ids = link_ids(route)
        assert ids[0].startswith("upi:")  # hop to a neighbour first
        assert any(link.startswith("cxl:") for link in ids)
        assert "cxl:s0" not in ids
        # Other sockets keep their direct CXL route.
        assert link_ids(routes.route(1, -1)) == ["cxl:s1", "dram:pool"]

    def test_block_transfer_avoids_dead_cxl(self, star_topology):
        routes = routes_under(
            star_topology,
            FaultEvent(FaultKind.LINK_FAIL, link_id="cxl:s0"),
        )
        transfer = routes.block_transfer_route(0, 5, -1)
        assert "cxl:s0" not in link_ids(transfer)


class TestAsicFailure:
    def test_chassis_loses_interchassis_reach(self, star_topology):
        state = FaultSchedule([
            FaultEvent(FaultKind.ASIC_FAIL, chassis=0),
        ]).state_at(0)
        with pytest.raises(PartitionedTopologyError) as info:
            RouteTable(faulted_topology(star_topology, state))
        error = info.value
        assert error.requester in range(star_topology.n_sockets)
        assert error.failed_links
        assert any(link.startswith("upi:") and "flex0" in link
                   for link in error.failed_links)

    def test_error_message_lists_failed_links(self, star_topology):
        state = FaultSchedule([
            FaultEvent(FaultKind.ASIC_FAIL, chassis=0),
        ]).state_at(0)
        with pytest.raises(PartitionedTopologyError, match="flex0"):
            RouteTable(faulted_topology(star_topology, state))


class TestCleanStateIsFree:
    def test_clean_state_returns_base_topology(self, star_topology):
        state = FaultSchedule().state_at(0)
        assert faulted_topology(star_topology, state) is star_topology

    def test_clean_routes_have_no_detours(self, star_routes, star_topology):
        for requester in star_topology.sockets():
            for location in star_topology.locations():
                assert star_routes.detour_penalty_ns(
                    requester, location) == 0.0


class TestEverySingleLinkFailure:
    def test_partitions_or_detours_at_a_positive_penalty(self,
                                                         star_topology):
        """Each coherent link's failure on the 16-socket pool fabric."""
        coherent = [link_id for link_id, link in star_topology.links.items()
                    if link.kind is not LinkKind.DRAM]
        for link_id in coherent:
            topology = faulted_topology(
                star_topology, FaultState(failed_links=frozenset([link_id])))
            try:
                routes = RouteTable(topology)
            except PartitionedTopologyError as error:
                assert link_id in error.failed_links
                continue
            detours = 0
            for requester in topology.sockets():
                for location in topology.locations():
                    route = routes.route(requester, location)
                    assert link_id not in link_ids(route)
                    hops = routes.interconnect_hops(requester, location)
                    nominal = NOMINAL_HOPS[
                        topology.classify(requester, location)]
                    penalty = routes.detour_penalty_ns(requester, location)
                    assert hops >= nominal
                    if hops > nominal:
                        assert penalty > 0.0
                        detours += 1
                    else:
                        assert penalty == 0.0
            assert routes.n_detours() == detours > 0
