/**
 * @file
 * FabricTopology property tests: route validity (adjacent-tile
 * steps, endpoints, determinism), XY dimension order, ring
 * shorter-arc selection with the fixed tie-break, hopCount() ==
 * route length on every kind, and the adjacency relation the thermal
 * exchange runs over.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "fabric/topology.hh"

namespace nanobus {
namespace {

bool
adjacentInTopology(const FabricTopology &topo, unsigned a, unsigned b)
{
    const std::vector<unsigned> &adj = topo.neighbors(a);
    return std::find(adj.begin(), adj.end(), b) != adj.end();
}

TEST(TopologyNames, RoundTrip)
{
    for (TopologyKind kind :
         {TopologyKind::Ring, TopologyKind::Mesh2D,
          TopologyKind::Crossbar}) {
        auto parsed = parseTopologyKind(topologyKindName(kind));
        ASSERT_TRUE(parsed.has_value());
        EXPECT_EQ(*parsed, kind);
    }
    EXPECT_FALSE(parseTopologyKind("torus").has_value());
}

TEST(MeshTopology, CountsAndNeighbors)
{
    const FabricTopology topo = FabricTopology::mesh(3, 4);
    EXPECT_EQ(topo.numTiles(), 12u);
    EXPECT_EQ(topo.numSegments(), 12u);

    // Corner, edge, and interior degrees of the 4-neighbourhood.
    EXPECT_EQ(topo.neighbors(0).size(), 2u);
    EXPECT_EQ(topo.neighbors(1).size(), 3u);
    EXPECT_EQ(topo.neighbors(5).size(), 4u);

    // Symmetric, sorted, no self-loops.
    for (unsigned s = 0; s < topo.numSegments(); ++s) {
        const std::vector<unsigned> &adj = topo.neighbors(s);
        EXPECT_TRUE(std::is_sorted(adj.begin(), adj.end()));
        for (unsigned j : adj) {
            EXPECT_NE(j, s);
            EXPECT_TRUE(adjacentInTopology(topo, j, s));
        }
    }
}

TEST(MeshTopology, XYRouteGoesColumnsFirst)
{
    const FabricTopology topo = FabricTopology::mesh(3, 4);
    std::vector<unsigned> route;
    // Tile 1 = (0,1); tile 11 = (2,3): X to column 3, then Y down.
    topo.route(1, 11, route);
    const std::vector<unsigned> expected = {1, 2, 3, 7, 11};
    EXPECT_EQ(route, expected);

    route.clear();
    topo.route(11, 1, route);
    const std::vector<unsigned> reversed = {11, 10, 9, 5, 1};
    EXPECT_EQ(route, reversed);
}

TEST(MeshTopology, RoutePropertiesForAllPairs)
{
    const FabricTopology topo = FabricTopology::mesh(4, 3);
    std::vector<unsigned> route;
    for (unsigned src = 0; src < topo.numTiles(); ++src) {
        for (unsigned dst = 0; dst < topo.numTiles(); ++dst) {
            route.clear();
            topo.route(src, dst, route);
            ASSERT_FALSE(route.empty());
            EXPECT_EQ(route.front(), src);
            EXPECT_EQ(route.back(), dst);
            EXPECT_EQ(route.size(), topo.hopCount(src, dst));
            // Every step crosses one physical link.
            for (size_t i = 1; i < route.size(); ++i)
                EXPECT_TRUE(adjacentInTopology(topo, route[i - 1],
                                               route[i]))
                    << src << "->" << dst << " step " << i;
            // Minimal: Manhattan distance plus the source hop.
            const unsigned r1 = src / 3, c1 = src % 3;
            const unsigned r2 = dst / 3, c2 = dst % 3;
            const unsigned manhattan =
                (r1 > r2 ? r1 - r2 : r2 - r1) +
                (c1 > c2 ? c1 - c2 : c2 - c1);
            EXPECT_EQ(route.size(), manhattan + 1);
        }
    }
}

// BusFabric sizes its hop and last-cycle bookkeeping from hopCount()
// and its segment queues from route(), so the two must agree for
// every pair on every kind (the mesh is covered above).
TEST(HopCount, MatchesRouteLengthOnRingsAndCrossbars)
{
    std::vector<unsigned> route;
    for (const FabricTopology &topo :
         {FabricTopology::ring(1), FabricTopology::ring(2),
          FabricTopology::ring(6), FabricTopology::ring(7),
          FabricTopology::crossbar(1), FabricTopology::crossbar(5)}) {
        SCOPED_TRACE(std::string(topologyKindName(topo.kind())) +
                     std::to_string(topo.numTiles()));
        for (unsigned src = 0; src < topo.numTiles(); ++src) {
            for (unsigned dst = 0; dst < topo.numTiles(); ++dst) {
                route.clear();
                topo.route(src, dst, route);
                EXPECT_EQ(route.size(), topo.hopCount(src, dst))
                    << src << "->" << dst;
            }
        }
    }
}

TEST(RingTopology, ShorterArcWithDeterministicTie)
{
    const FabricTopology topo = FabricTopology::ring(6);
    std::vector<unsigned> route;

    topo.route(0, 2, route);
    EXPECT_EQ(route, (std::vector<unsigned>{0, 1, 2}));

    route.clear();
    topo.route(0, 4, route);
    EXPECT_EQ(route, (std::vector<unsigned>{0, 5, 4}));

    // Exact half: the tie goes forward (increasing index).
    route.clear();
    topo.route(0, 3, route);
    EXPECT_EQ(route, (std::vector<unsigned>{0, 1, 2, 3}));

    route.clear();
    topo.route(5, 2, route);
    EXPECT_EQ(route, (std::vector<unsigned>{5, 0, 1, 2}));
}

TEST(RingTopology, NeighborsWrapWithoutDuplicates)
{
    const FabricTopology ring6 = FabricTopology::ring(6);
    EXPECT_EQ(ring6.neighbors(0), (std::vector<unsigned>{1, 5}));
    EXPECT_EQ(ring6.neighbors(3), (std::vector<unsigned>{2, 4}));

    // A 2-ring has one physical link; the neighbour appears once.
    const FabricTopology ring2 = FabricTopology::ring(2);
    EXPECT_EQ(ring2.neighbors(0), (std::vector<unsigned>{1}));
    EXPECT_EQ(ring2.neighbors(1), (std::vector<unsigned>{0}));

    // A 1-ring has no links at all.
    const FabricTopology ring1 = FabricTopology::ring(1);
    EXPECT_TRUE(ring1.neighbors(0).empty());
}

TEST(CrossbarTopology, DirectRoutesBundleAdjacency)
{
    const FabricTopology topo = FabricTopology::crossbar(5);
    std::vector<unsigned> route;
    topo.route(1, 4, route);
    EXPECT_EQ(route, (std::vector<unsigned>{1, 4}));
    EXPECT_EQ(topo.hopCount(1, 4), 2u);

    route.clear();
    topo.route(3, 3, route);
    EXPECT_EQ(route, (std::vector<unsigned>{3}));
    EXPECT_EQ(topo.hopCount(3, 3), 1u);

    // Thermal adjacency is the parallel-bundle index neighbourhood.
    EXPECT_EQ(topo.neighbors(0), (std::vector<unsigned>{1}));
    EXPECT_EQ(topo.neighbors(2), (std::vector<unsigned>{1, 3}));
    EXPECT_EQ(topo.neighbors(4), (std::vector<unsigned>{3}));
}

TEST(SelfSends, OccupyOnlyTheSourceSegment)
{
    std::vector<unsigned> route;
    for (const FabricTopology &topo :
         {FabricTopology::mesh(3, 3), FabricTopology::ring(5),
          FabricTopology::crossbar(4)}) {
        route.clear();
        topo.route(2, 2, route);
        EXPECT_EQ(route, std::vector<unsigned>{2});
        EXPECT_EQ(topo.hopCount(2, 2), 1u);
    }
}

TEST(RouteDeterminism, RepeatCallsAppendIdenticalRoutes)
{
    const FabricTopology topo = FabricTopology::mesh(4, 4);
    std::vector<unsigned> first, second;
    topo.route(1, 14, first);
    topo.route(1, 14, second);
    EXPECT_EQ(first, second);

    // route() appends, so a caller can accumulate several routes.
    std::vector<unsigned> combined;
    topo.route(1, 14, combined);
    topo.route(0, 3, combined);
    EXPECT_EQ(combined.size(), first.size() + 4);
}

} // namespace
} // namespace nanobus
