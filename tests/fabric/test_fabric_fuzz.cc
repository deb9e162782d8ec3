/**
 * @file
 * Randomized differential harness for BusFabric, extending the
 * pipeline fuzz pattern (tests/sim/test_pipeline_fuzz.cc) to many
 * segments: every case draws a random topology (mesh / ring /
 * crossbar), encoding scheme, bus width, interval length, traffic
 * pattern and rate, hop latency, coupling setting, and pool size,
 * then requires the run to be BIT-identical to the serial reference
 * execution (pool 1) of the same (config, stream). Single-tile
 * draws are additionally pinned against a standalone BusSimulator
 * fed the identical word stream.
 *
 * Reproducing a failure: every case logs its seed via SCOPED_TRACE;
 * replay one case with
 *
 *   NANOBUS_FUZZ_SEED=<seed> ./tests/test_fabric_fuzz \
 *       --gtest_filter='FabricFuzz.*'
 *
 * NANOBUS_FUZZ_CASES overrides the case count (default 60 — fabric
 * cases step many simulators, so the default is smaller than the
 * pipeline harness's 200).
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "exec/thread_pool.hh"
#include "fabric/fabric.hh"
#include "fabric/traffic.hh"
#include "fabric_test_util.hh"
#include "util/random.hh"
#include "util/result.hh"

namespace nanobus {
namespace {

using fabric_test::busFingerprint;
using fabric_test::fabricFingerprint;
using fabric_test::firstDivergence;
using fabric_test::identical;

const TechnologyNode &tech130 = itrsNode(ItrsNode::Nm130);

/** One randomly drawn differential case (pure function of the
 *  seed, so a logged seed replays the identical case). */
struct FuzzCase
{
    uint64_t seed = 0;
    FabricConfig fabric;
    TrafficConfig traffic;
    unsigned pool_size = 1;

    std::string describe() const
    {
        std::string shape;
        switch (fabric.topology) {
          case TopologyKind::Mesh2D:
            shape = "mesh" + std::to_string(fabric.rows) + "x" +
                    std::to_string(fabric.cols);
            break;
          case TopologyKind::Ring:
            shape = "ring" + std::to_string(fabric.tiles);
            break;
          case TopologyKind::Crossbar:
            shape = "xbar" + std::to_string(fabric.tiles);
            break;
        }
        return std::string("seed=") + std::to_string(seed) +
               " topo=" + shape +
               " scheme=" + schemeName(fabric.segment.scheme) +
               " width=" +
               std::to_string(fabric.segment.data_width) +
               " interval=" +
               std::to_string(fabric.segment.interval_cycles) +
               " hop=" + std::to_string(fabric.hop_latency_cycles) +
               " coupling=" + (fabric.segment_coupling ? "1" : "0") +
               " pattern=" +
               trafficPatternName(traffic.pattern) +
               " rate=" + std::to_string(traffic.injection_rate) +
               " txs=" + std::to_string(traffic.max_transactions) +
               " pool=" + std::to_string(pool_size);
    }
};

FuzzCase
makeCase(uint64_t seed)
{
    Rng rng(seed);
    FuzzCase c;
    c.seed = seed;

    const uint64_t topo_draw = rng.below(3);
    if (topo_draw == 0) {
        c.fabric.topology = TopologyKind::Mesh2D;
        c.fabric.rows = static_cast<unsigned>(1 + rng.below(4));
        c.fabric.cols = static_cast<unsigned>(1 + rng.below(4));
    } else if (topo_draw == 1) {
        c.fabric.topology = TopologyKind::Ring;
        c.fabric.tiles = static_cast<unsigned>(1 + rng.below(8));
    } else {
        c.fabric.topology = TopologyKind::Crossbar;
        c.fabric.tiles = static_cast<unsigned>(1 + rng.below(6));
    }

    const std::vector<EncodingScheme> &schemes = paperSchemes();
    c.fabric.segment.scheme = schemes[rng.below(schemes.size())];
    c.fabric.segment.data_width =
        static_cast<unsigned>(4 + rng.below(29));
    c.fabric.segment.interval_cycles = 50 + rng.below(900);
    c.fabric.segment.record_samples = true;
    c.fabric.hop_latency_cycles = 1 + rng.below(5);
    c.fabric.segment_coupling = rng.chance(0.75);
    c.fabric.segment_resistance =
        KelvinMetersPerWatt{2.0 + static_cast<double>(rng.below(80))};
    (void)rng.below(9); // retired group-size draw: keeps seeds stable

    const TrafficPattern patterns[] = {TrafficPattern::Uniform,
                                       TrafficPattern::Hotspot,
                                       TrafficPattern::Neighbor};
    c.traffic.pattern = patterns[rng.below(3)];
    c.traffic.injection_rate =
        0.05 + 0.3 * static_cast<double>(rng.below(10)) / 10.0;
    c.traffic.seed = rng.next();
    c.traffic.max_transactions = 50 + rng.below(1200);

    const unsigned pools[] = {1, 2, 4};
    c.pool_size = pools[rng.below(3)];
    (void)rng.below(3); // retired pinning draw: keeps seeds stable
    return c;
}

unsigned
numTilesOf(const FabricConfig &config)
{
    return config.topology == TopologyKind::Mesh2D
               ? config.rows * config.cols
               : config.tiles;
}

void
runCase(uint64_t seed)
{
    FuzzCase c = makeCase(seed);
    if (c.traffic.pattern == TrafficPattern::Hotspot)
        c.traffic.hotspot_tile =
            numTilesOf(c.fabric) > 1 ? numTilesOf(c.fabric) - 1 : 0;
    SCOPED_TRACE("replay: NANOBUS_FUZZ_SEED=" + std::to_string(seed) +
                 " ./tests/test_fabric_fuzz"
                 " --gtest_filter='FabricFuzz.*'  [" +
                 c.describe() + "]");

    // Record the stream once so the reference, the case under test,
    // and the single-segment oracle all replay the identical
    // transactions.
    std::vector<FabricTransaction> txs;
    {
        const FabricTopology probe_topo =
            c.fabric.topology == TopologyKind::Mesh2D
                ? FabricTopology::mesh(c.fabric.rows, c.fabric.cols)
            : c.fabric.topology == TopologyKind::Ring
                ? FabricTopology::ring(c.fabric.tiles)
                : FabricTopology::crossbar(c.fabric.tiles);
        SyntheticTraffic source(probe_topo, c.traffic);
        FabricTransaction tx;
        while (source.next(tx))
            txs.push_back(tx);
    }
    ASSERT_EQ(txs.size(), c.traffic.max_transactions);

    // Reference: serial execution of the same config.
    BusFabric reference(tech130, c.fabric);
    exec::ThreadPool ref_pool(1);
    VectorTrafficSource ref_source(txs);
    Result<FabricRunStats> ref_stats =
        reference.run(ref_source, ref_pool);
    ASSERT_TRUE(ref_stats.ok()) << ref_stats.error().describe();

    // Case under test: the drawn pool size.
    BusFabric fabric(tech130, c.fabric);
    exec::ThreadPool pool(c.pool_size);
    VectorTrafficSource source(txs);
    Result<FabricRunStats> stats = fabric.run(source, pool);
    ASSERT_TRUE(stats.ok()) << stats.error().describe();

    EXPECT_EQ(stats.value().transactions,
              ref_stats.value().transactions);
    EXPECT_EQ(stats.value().hops, ref_stats.value().hops);
    EXPECT_EQ(stats.value().last_cycle,
              ref_stats.value().last_cycle);

    const std::vector<double> ref_fp = fabricFingerprint(reference);
    const std::vector<double> fp = fabricFingerprint(fabric);
    ASSERT_TRUE(identical(ref_fp, fp))
        << "fingerprints diverge at index "
        << firstDivergence(ref_fp, fp);

    // Single-tile draws double as oracle pins: the lone segment must
    // match a standalone BusSimulator fed the identical word stream.
    if (numTilesOf(c.fabric) == 1) {
        BusSimulator standalone(tech130, c.fabric.segment);
        for (const FabricTransaction &tx : txs)
            standalone.transmit(tx.cycle, tx.payload);
        standalone.advanceTo(stats.value().last_cycle);
        const std::vector<double> lone_fp =
            busFingerprint(standalone);
        const std::vector<double> seg_fp =
            busFingerprint(fabric.segment(0));
        EXPECT_TRUE(identical(lone_fp, seg_fp))
            << "single-segment oracle diverges at index "
            << firstDivergence(lone_fp, seg_fp);
    }
}

uint64_t
envU64(const char *name, uint64_t fallback)
{
    const char *env = std::getenv(name);
    if (!env || *env == '\0')
        return fallback;
    char *end = nullptr;
    const uint64_t value = std::strtoull(env, &end, 10);
    return end == env ? fallback : value;
}

TEST(FabricFuzz, DifferentialAgainstSerialReference)
{
    // A pinned NANOBUS_FUZZ_SEED replays exactly one case; otherwise
    // run NANOBUS_FUZZ_CASES (default 60) consecutive seeds off a
    // fixed base, so CI failures always name a reproducible seed.
    if (const char *pinned = std::getenv("NANOBUS_FUZZ_SEED")) {
        if (*pinned != '\0') {
            runCase(envU64("NANOBUS_FUZZ_SEED", 0));
            return;
        }
    }
    const uint64_t cases = envU64("NANOBUS_FUZZ_CASES", 60);
    const uint64_t base = envU64("NANOBUS_FUZZ_BASE", 0xfab51c00);
    for (uint64_t i = 0; i < cases; ++i) {
        runCase(base + i);
        if (::testing::Test::HasFatalFailure() ||
            ::testing::Test::HasNonfatalFailure())
            break; // the SCOPED_TRACE above already named the seed
    }
}

} // namespace
} // namespace nanobus
