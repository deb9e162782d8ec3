/**
 * @file
 * BusFabric pins.
 *
 *  - Oracle bit-identity: a single-segment fabric driven by a
 *    transaction stream must match the same stream replayed through
 *    the TwinBusSimulator per-record oracle, memcmp-level, for all
 *    seven paper schemes under both thermal solvers; every segment
 *    of an uncoupled mesh must match a standalone BusSimulator fed
 *    its serially routed hops, at pools 1/2/4.
 *  - Determinism: a 6x6 mesh run is bit-identical across pool sizes
 *    1/2/hardware, under both thermal solvers.
 *  - Physics: lateral coupling moves heat from a driven segment
 *    into its idle neighbour, conserves the pairwise exchange, and
 *    switches off cleanly (coupling-off == standalone, bitwise).
 *  - Continuation: two sequential run() calls equal one combined
 *    run, bitwise.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "exec/thread_pool.hh"
#include "fabric/fabric.hh"
#include "fabric/traffic.hh"
#include "fabric_test_util.hh"
#include "sim/experiment.hh"
#include "tech/technology.hh"
#include "trace/record.hh"

namespace nanobus {
namespace {

using fabric_test::busFingerprint;
using fabric_test::fabricFingerprint;
using fabric_test::firstDivergence;
using fabric_test::identical;

const TechnologyNode &tech130 = itrsNode(ItrsNode::Nm130);

/** Both thermal integrators: the exact modal update (the default)
 *  and the RK4 oracle. */
constexpr ThermalSolver kSolvers[] = {ThermalSolver::Rk4,
                                      ThermalSolver::Modal};

/** A bursty single-tile stream whose cycles straddle several
 *  interval closes and end mid-interval. */
std::vector<FabricTransaction>
selfSendStream(size_t n, uint64_t interval_cycles)
{
    std::vector<FabricTransaction> txs;
    txs.reserve(n);
    Rng rng(0x5eed);
    uint64_t cycle = rng.below(10);
    uint32_t payload = static_cast<uint32_t>(rng.next());
    for (size_t i = 0; i < n; ++i) {
        txs.push_back({cycle, 0, 0, payload});
        cycle += rng.chance(0.8)
                     ? 1 + rng.below(4)
                     : interval_cycles / 3 + rng.below(interval_cycles);
        payload = rng.chance(0.6)
                      ? payload + 4
                      : static_cast<uint32_t>(rng.next());
    }
    return txs;
}

BusSimConfig
smallSegmentConfig(EncodingScheme scheme)
{
    BusSimConfig config;
    config.scheme = scheme;
    config.data_width = 16;
    config.interval_cycles = 400;
    config.record_samples = true;
    return config;
}

TEST(FabricOracle, SingleSegmentMatchesTwinForAllSchemes)
{
    const std::vector<FabricTransaction> txs = selfSendStream(500, 400);
    exec::ThreadPool pool(2);

    for (ThermalSolver solver : kSolvers) {
        for (EncodingScheme scheme : paperSchemes()) {
            SCOPED_TRACE(schemeName(scheme));
            SCOPED_TRACE(thermalSolverName(solver));

            FabricConfig config;
            config.topology = TopologyKind::Crossbar;
            config.tiles = 1;
            config.segment = smallSegmentConfig(scheme);
            config.segment.thermal.solver = solver;
            BusFabric fabric(tech130, config);

            VectorTrafficSource source(txs);
            Result<FabricRunStats> stats = fabric.run(source, pool);
            ASSERT_TRUE(stats.ok());
            EXPECT_EQ(stats.value().transactions, txs.size());
            EXPECT_EQ(stats.value().hops, txs.size());

            // Oracle: the same stream as instruction fetches through
            // the per-record twin replay. The data bus sees nothing.
            std::vector<TraceRecord> records;
            records.reserve(txs.size());
            for (const FabricTransaction &tx : txs)
                records.push_back({tx.cycle, tx.payload,
                                   AccessKind::InstructionFetch});
            TwinBusSimulator twin(tech130, config.segment);
            VectorTraceSource trace(std::move(records));
            EXPECT_EQ(twin.runPerRecord(trace), txs.size());

            const std::vector<double> fabric_fp =
                busFingerprint(fabric.segment(0));
            const std::vector<double> oracle_fp =
                busFingerprint(twin.instructionBus());
            EXPECT_TRUE(identical(fabric_fp, oracle_fp))
                << "fingerprints diverge at index "
                << firstDivergence(fabric_fp, oracle_fp);
            EXPECT_EQ(twin.dataBus().transmissions(), 0u);
        }
    }
}

FabricConfig
meshConfig(ThermalSolver solver = ThermalSolver::Modal)
{
    FabricConfig config;
    config.topology = TopologyKind::Mesh2D;
    config.rows = 6;
    config.cols = 6;
    config.segment = smallSegmentConfig(EncodingScheme::BusInvert);
    config.segment.interval_cycles = 300;
    config.segment.thermal.solver = solver;
    return config;
}

TrafficConfig
meshTraffic()
{
    TrafficConfig traffic;
    traffic.pattern = TrafficPattern::Hotspot;
    traffic.hotspot_tile = 14;
    traffic.hotspot_fraction = 0.4;
    traffic.injection_rate = 0.2;
    traffic.seed = 77;
    traffic.max_transactions = 3000;
    return traffic;
}

std::vector<double>
runMesh(unsigned pool_size, ThermalSolver solver,
        FabricRunStats *stats_out = nullptr)
{
    BusFabric fabric(tech130, meshConfig(solver));
    SyntheticTraffic traffic(fabric.topology(), meshTraffic());
    exec::ThreadPool pool(pool_size);
    Result<FabricRunStats> stats = fabric.run(traffic, pool);
    EXPECT_TRUE(stats.ok());
    if (stats.ok() && stats_out)
        *stats_out = stats.takeValue();
    return fabricFingerprint(fabric);
}

TEST(FabricDeterminism, MeshBitIdenticalAcrossPoolSizes)
{
    for (ThermalSolver solver : kSolvers) {
        SCOPED_TRACE(thermalSolverName(solver));
        FabricRunStats serial_stats;
        const std::vector<double> serial =
            runMesh(1, solver, &serial_stats);
        EXPECT_EQ(serial_stats.transactions, 3000u);
        EXPECT_GT(serial_stats.hops, serial_stats.transactions);
        EXPECT_GT(serial_stats.epochs, 0u);

        const unsigned hw = exec::ThreadPool::defaultThreads();
        for (unsigned pool_size : {2u, hw}) {
            SCOPED_TRACE("pool=" + std::to_string(pool_size));
            const std::vector<double> parallel =
                runMesh(pool_size, solver);
            EXPECT_TRUE(identical(serial, parallel))
                << "diverges at index "
                << firstDivergence(serial, parallel);
        }
    }
}

TEST(FabricCoupling, HeatFlowsIntoIdleNeighbor)
{
    // Two crossbar segments, traffic only ever self-sent on tile 0:
    // segment 1 transmits nothing and can only warm up through the
    // lateral exchange.
    std::vector<FabricTransaction> txs;
    uint64_t cycle = 0;
    Rng rng(123);
    for (size_t i = 0; i < 4000; ++i) {
        txs.push_back(
            {cycle, 0, 0, static_cast<uint32_t>(rng.next())});
        cycle += 1 + rng.below(2);
    }

    FabricConfig config;
    config.topology = TopologyKind::Crossbar;
    config.tiles = 2;
    config.segment = smallSegmentConfig(EncodingScheme::Unencoded);
    config.segment.interval_cycles = 500;
    config.segment_resistance = KelvinMetersPerWatt{5.0};
    exec::ThreadPool pool(2);

    BusFabric coupled(tech130, config);
    VectorTrafficSource source_a(txs);
    coupled.run(source_a, pool);

    config.segment_coupling = false;
    BusFabric isolated(tech130, config);
    VectorTrafficSource source_b(txs);
    isolated.run(source_b, pool);

    const double coupled_idle =
        coupled.segment(1).thermalNetwork().averageTemperature().raw();
    const double isolated_idle = isolated.segment(1)
                                     .thermalNetwork()
                                     .averageTemperature()
                                     .raw();
    const double coupled_hot =
        coupled.segment(0).thermalNetwork().averageTemperature().raw();
    const double isolated_hot = isolated.segment(0)
                                    .thermalNetwork()
                                    .averageTemperature()
                                    .raw();

    EXPECT_EQ(coupled.segment(1).transmissions(), 0u);
    // With coupling the idle segment warms past its isolated self
    // (which only relaxes toward the network's boundary)...
    EXPECT_GT(coupled_idle, isolated_idle);
    // ...the donor runs cooler than its isolated self, and the pair
    // orders hot > idle (heat flows down the gradient).
    EXPECT_LT(coupled_hot, isolated_hot);
    EXPECT_GT(coupled_hot, coupled_idle);
}

TEST(FabricCoupling, CouplingOffMatchesStandaloneBitwise)
{
    // With segment_coupling disabled each segment must be exactly a
    // standalone BusSimulator: run tile-0 self-sends next to an
    // active neighbour and compare against a lone simulator fed the
    // identical word stream.
    std::vector<FabricTransaction> txs = selfSendStream(300, 400);

    FabricConfig config;
    config.topology = TopologyKind::Crossbar;
    config.tiles = 3;
    config.segment_coupling = false;
    config.segment =
        smallSegmentConfig(EncodingScheme::CouplingDrivenBusInvert);
    exec::ThreadPool pool(3);
    BusFabric fabric(tech130, config);
    VectorTrafficSource source(txs);
    Result<FabricRunStats> stats = fabric.run(source, pool);
    ASSERT_TRUE(stats.ok());

    BusSimulator standalone(tech130, config.segment);
    for (const FabricTransaction &tx : txs)
        standalone.transmit(tx.cycle, tx.payload);
    standalone.advanceTo(stats.value().last_cycle);

    const std::vector<double> fabric_fp =
        busFingerprint(fabric.segment(0));
    const std::vector<double> lone_fp = busFingerprint(standalone);
    EXPECT_TRUE(identical(fabric_fp, lone_fp))
        << "diverges at index "
        << firstDivergence(fabric_fp, lone_fp);
}

TEST(FabricOracle, UncoupledMeshSegmentsMatchStandaloneBitwise)
{
    // Pool-independent oracle for the chunked ingest: with coupling
    // off, every mesh segment must equal a standalone BusSimulator
    // fed that segment's hops, built here by serial route() and a
    // stable sort by cycle, one transmit() per word. 2400
    // transactions make the ingest's full 64 chunks, and hotspot
    // traffic puts many same-cycle words on one segment, so a chunk
    // written out of order or at a wrong offset shows.
    FabricConfig config;
    config.topology = TopologyKind::Mesh2D;
    config.rows = 4;
    config.cols = 4;
    config.hop_latency_cycles = 2;
    config.segment_coupling = false;
    config.segment = smallSegmentConfig(EncodingScheme::BusInvert);
    config.segment.interval_cycles = 150;

    const FabricTopology topo = FabricTopology::mesh(4, 4);
    TrafficConfig traffic;
    traffic.pattern = TrafficPattern::Hotspot;
    traffic.hotspot_tile = 5;
    traffic.hotspot_fraction = 0.5;
    traffic.injection_rate = 0.25;
    traffic.seed = 91;
    traffic.max_transactions = 2400;
    std::vector<FabricTransaction> txs;
    SyntheticTraffic stream(topo, traffic);
    for (FabricTransaction tx; stream.next(tx);)
        txs.push_back(tx);
    ASSERT_EQ(txs.size(), 2400u);

    struct Hop
    {
        uint64_t cycle;
        uint32_t payload;
    };
    std::vector<std::vector<Hop>> hops(topo.numSegments());
    uint64_t last_cycle = 0;
    std::vector<unsigned> route;
    for (const FabricTransaction &tx : txs) {
        route.clear();
        topo.route(tx.src, tx.dst, route);
        uint64_t cycle = tx.cycle;
        for (unsigned seg : route) {
            hops[seg].push_back({cycle, tx.payload});
            last_cycle = std::max(last_cycle, cycle);
            cycle += config.hop_latency_cycles;
        }
    }
    std::vector<std::vector<double>> expected;
    for (std::vector<Hop> &queue : hops) {
        std::stable_sort(queue.begin(), queue.end(),
                         [](const Hop &a, const Hop &b) {
                             return a.cycle < b.cycle;
                         });
        BusSimulator standalone(tech130, config.segment);
        for (const Hop &hop : queue)
            standalone.transmit(hop.cycle, hop.payload);
        standalone.advanceTo(last_cycle);
        expected.push_back(busFingerprint(standalone));
    }

    for (unsigned pool_size : {1u, 2u, 4u}) {
        SCOPED_TRACE("pool=" + std::to_string(pool_size));
        exec::ThreadPool pool(pool_size);
        BusFabric fabric(tech130, config);
        VectorTrafficSource source(txs);
        Result<FabricRunStats> stats = fabric.run(source, pool);
        ASSERT_TRUE(stats.ok());
        EXPECT_EQ(stats.value().last_cycle, last_cycle);
        for (unsigned s = 0; s < fabric.numSegments(); ++s) {
            SCOPED_TRACE("segment=" + std::to_string(s));
            const std::vector<double> fabric_fp =
                busFingerprint(fabric.segment(s));
            EXPECT_EQ(fabric.segment(s).transmissions(),
                      hops[s].size());
            EXPECT_TRUE(identical(fabric_fp, expected[s]))
                << "diverges at index "
                << firstDivergence(fabric_fp, expected[s]);
        }
    }
}

TEST(FabricContinuation, SplitRunsMatchCombinedRun)
{
    FabricConfig config = meshConfig();
    config.rows = 3;
    config.cols = 3;
    exec::ThreadPool pool(4);

    TrafficConfig traffic_config = meshTraffic();
    traffic_config.hotspot_tile = 4; // centre of the 3x3
    // Sparse enough that the stream has natural drain points — a
    // continuation run's cycles must not precede the previous run's
    // last *hop* cycle, so the cut must fall in an idle gap wider
    // than the longest in-flight route.
    traffic_config.injection_rate = 0.02;
    traffic_config.max_transactions = 600;
    const FabricTopology topo = FabricTopology::mesh(3, 3);
    std::vector<FabricTransaction> all;
    {
        SyntheticTraffic source(topo, traffic_config);
        FabricTransaction tx;
        while (source.next(tx))
            all.push_back(tx);
    }
    ASSERT_EQ(all.size(), 600u);

    BusFabric combined(tech130, config);
    VectorTrafficSource whole(all);
    combined.run(whole, pool);

    // First cut past one-third of the stream where everything
    // injected before it has finished its last hop.
    size_t cut = 0;
    uint64_t drained = 0;
    for (size_t i = 0; i < all.size(); ++i) {
        if (i >= all.size() / 3 && all[i].cycle >= drained) {
            cut = i;
            break;
        }
        const uint64_t hops = topo.hopCount(all[i].src, all[i].dst);
        const uint64_t last_hop =
            all[i].cycle + (hops - 1) * config.hop_latency_cycles;
        drained = std::max(drained, last_hop);
    }
    ASSERT_GT(cut, 0u) << "stream never drains; lower the rate";

    BusFabric split(tech130, config);
    VectorTrafficSource first(
        std::vector<FabricTransaction>(all.begin(),
                                       all.begin() +
                                           static_cast<long>(cut)));
    VectorTrafficSource second(
        std::vector<FabricTransaction>(all.begin() +
                                           static_cast<long>(cut),
                                       all.end()));
    split.run(first, pool);
    split.run(second, pool);

    const std::vector<double> a = fabricFingerprint(combined);
    const std::vector<double> b = fabricFingerprint(split);
    EXPECT_TRUE(identical(a, b))
        << "diverges at index " << firstDivergence(a, b);
}

TEST(FabricRouting, HopsLandHopLatencyApart)
{
    FabricConfig config;
    config.topology = TopologyKind::Mesh2D;
    config.rows = 1;
    config.cols = 4;
    config.hop_latency_cycles = 7;
    config.segment = smallSegmentConfig(EncodingScheme::Unencoded);
    exec::ThreadPool pool(1);
    BusFabric fabric(tech130, config);

    // One transaction end to end: tile 0 -> 3 is 4 hops.
    std::vector<FabricTransaction> txs = {{10, 0, 3, 0xdead}};
    VectorTrafficSource source(txs);
    Result<FabricRunStats> stats = fabric.run(source, pool);
    ASSERT_TRUE(stats.ok());
    EXPECT_EQ(stats.value().hops, 4u);
    EXPECT_EQ(stats.value().last_cycle, 10u + 3u * 7u);
    for (unsigned s = 0; s < 4; ++s) {
        EXPECT_EQ(fabric.segment(s).transmissions(), 1u);
        EXPECT_EQ(fabric.segment(s).currentCycle(), 31u);
    }
}

TEST(FabricSupervised, WholeRunJobReportsAndRetriesCleanly)
{
    FabricConfig config = meshConfig();
    config.rows = 2;
    config.cols = 2;
    TrafficConfig traffic = meshTraffic();
    traffic.hotspot_tile = 3; // the 2x2 corner
    traffic.max_transactions = 400;

    exec::ThreadPool pool(2);
    exec::FabricSupervisor::Options options;
    options.max_retries = 1;
    const exec::FabricSupervisor supervisor(pool, options);

    std::vector<exec::SupervisedFabricJob> jobs;
    jobs.push_back(
        supervisedFabricRunJob("cell0", tech130, config, traffic));
    jobs.push_back(
        supervisedFabricRunJob("cell1", tech130, config, traffic));

    const exec::SupervisedFabricReport report = supervisor.run(jobs);
    EXPECT_TRUE(report.allSucceeded());
    ASSERT_EQ(report.reports.size(), 2u);
    // Identical (config, traffic) cells must produce identical
    // physics — the supervised wrapper adds no nondeterminism.
    EXPECT_EQ(report.reports[0].stats.transactions, 400u);
    EXPECT_EQ(report.reports[0].stats.hops,
              report.reports[1].stats.hops);
    ASSERT_EQ(report.reports[0].segments.size(), 4u);
    EXPECT_TRUE(fabric_test::sameBits(
        report.reports[0].total_energy.total().raw(),
        report.reports[1].total_energy.total().raw()));
}

} // namespace
} // namespace nanobus
