"""Tests for route construction."""

import pytest

from repro.config import baseline_config, starnuma_config
from repro.experiments.ext_scale import thirty_two_socket_config
from repro.topology import LinkKind, POOL_LOCATION, RouteTable, Topology
from repro.topology.routing import (
    NOMINAL_HOPS,
    average_block_transfer_latency_ns,
)

IDEAL_FABRICS = {
    "16-no-pool": baseline_config,
    "16-pool": starnuma_config,
    "32-no-pool": lambda: thirty_two_socket_config().without_pool("b32"),
    "32-pool": thirty_two_socket_config,
}


class TestRoutes:
    def test_local_route_is_dram_only(self, star_routes):
        route = star_routes.route(3, 3)
        assert len(route) == 1
        assert route[0].link.kind is LinkKind.DRAM
        assert route[0].link.link_id == "dram:s3"

    def test_intra_chassis_route(self, star_routes):
        route = star_routes.route(0, 2)
        kinds = [hop.link.kind for hop in route]
        assert kinds == [LinkKind.UPI, LinkKind.DRAM]
        assert route[0].link.link_id == "upi:s0-s2"

    def test_inter_chassis_route(self, star_routes):
        route = star_routes.route(1, 14)
        ids = [hop.link.link_id for hop in route]
        assert ids == ["upi:s1-flex0", "numa:c0-c3", "upi:s14-flex3",
                       "dram:s14"]

    def test_pool_route(self, star_routes):
        route = star_routes.route(7, POOL_LOCATION)
        ids = [hop.link.link_id for hop in route]
        assert ids == ["cxl:s7", "dram:pool"]

    def test_route_direction_orientation(self, star_routes):
        # Peer link forward means low-id -> high-id.
        forward = star_routes.route(0, 2)[0]
        backward = star_routes.route(2, 0)[0]
        assert forward.forward
        assert not backward.forward

    def test_numalink_orientation(self, star_routes):
        down = star_routes.route(0, 15)[1]
        up = star_routes.route(15, 0)[1]
        assert down.forward
        assert not up.forward

    def test_unknown_route_rejected(self, base_routes):
        with pytest.raises(ValueError):
            base_routes.route(0, POOL_LOCATION)

    def test_interconnect_hops(self, star_routes):
        assert star_routes.interconnect_hops(0, 0) == 0
        assert star_routes.interconnect_hops(0, 1) == 1
        assert star_routes.interconnect_hops(0, 15) == 3
        assert star_routes.interconnect_hops(0, POOL_LOCATION) == 1

    @pytest.mark.parametrize("fabric", sorted(IDEAL_FABRICS))
    def test_ideal_routes_take_nominal_hops(self, fabric):
        topology = Topology(IDEAL_FABRICS[fabric]())
        routes = RouteTable(topology)
        pairs = [(requester, location) for requester in topology.sockets()
                 for location in topology.locations()]
        assert len(pairs) == topology.n_sockets * (
            topology.n_sockets + topology.has_pool)
        for requester, location in pairs:
            kind = topology.classify(requester, location)
            assert (routes.interconnect_hops(requester, location)
                    == NOMINAL_HOPS[kind])
            assert routes.detour_penalty_ns(requester, location) == 0.0
        assert routes.n_detours() == 0

    def test_reversed_hop(self, star_routes):
        hop = star_routes.route(0, 2)[0]
        assert hop.reversed().forward != hop.forward
        assert hop.reversed().link is hop.link


class TestBlockTransferRoutes:
    def test_pool_home_uses_two_cxl_links(self, star_routes):
        route = star_routes.block_transfer_route(requester=0, owner=9,
                                                 home=POOL_LOCATION)
        ids = [hop.link.link_id for hop in route]
        assert ids == ["cxl:s9", "cxl:s0"]
        # Owner pushes up (forward), requester receives down (reverse).
        assert route[0].forward
        assert not route[1].forward

    def test_socket_home_is_owner_to_requester(self, star_routes):
        route = star_routes.block_transfer_route(requester=0, owner=15,
                                                 home=3)
        ids = [hop.link.link_id for hop in route]
        assert ids == ["upi:s15-flex3", "numa:c0-c3", "upi:s0-flex0"]

    def test_same_socket_transfer_is_empty(self, star_routes):
        assert star_routes.block_transfer_route(4, 4, 7) == ()

    def test_pool_home_requires_pool(self, base_routes):
        with pytest.raises(ValueError):
            base_routes.block_transfer_route(0, 1, POOL_LOCATION)


class TestLatencyAnchor:
    def test_average_3hop_matches_paper(self, star_topology):
        # Paper derives 333 ns; our averaging lands within 2%.
        average = average_block_transfer_latency_ns(star_topology)
        assert average == pytest.approx(333.0, rel=0.02)
