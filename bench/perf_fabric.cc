/**
 * @file
 * perf_fabric — scaling study of the many-segment bus fabric
 * (src/fabric): segment counts 4 / 36 / 256 / 1024 (meshes 2x2,
 * 6x6, 16x16, 32x32), millions of routed transactions, sharded over
 * the exec ThreadPool.
 *
 * Protocol (same discipline as perf_exec / perf_pipeline): every
 * timing result is gated on correctness pins run first —
 *
 *  1. single-segment oracle: a 1-tile fabric must be bit-identical
 *     to a standalone BusSimulator fed the identical word stream,
 *     for the four Fig 3 schemes;
 *  2. determinism: a 6x6 mesh must produce bit-identical
 *     fingerprints at pool sizes 1, 2, and hw.
 *
 * The timed cells then sweep the mesh sizes, and the target cell
 * (--segments, default 256, >= 1M transactions) additionally runs
 * under exec supervision; its per-segment energy/thermal rollup and
 * the pool stats land in BENCH_fabric.json.
 *
 * Flags: --topology=mesh|ring|crossbar --segments=N
 *        --pattern=uniform|hotspot|neighbor --transactions=N
 *        --rate=F --interval=CYCLES --threads=N --json=PATH
 *        --retries=N --deadline=MS
 *        --solver=rk4|tr-bdf2 (thermal integrator for the timed
 *        cells; the correctness pins always pin the RK4 oracle)
 *        --smoke (small meshes, few transactions)
 */

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "exec/thread_pool.hh"
#include "fabric/fabric.hh"
#include "fabric/topology.hh"
#include "fabric/traffic.hh"
#include "tech/technology.hh"
#include "util/logging.hh"
#include "util/random.hh"

using namespace nanobus;

namespace {

BusSimConfig
segmentConfig(EncodingScheme scheme, uint64_t interval_cycles,
              ThermalSolver solver = ThermalSolver::Rk4)
{
    BusSimConfig config;
    config.scheme = scheme;
    config.data_width = 32;
    config.interval_cycles = interval_cycles;
    config.record_samples = true;
    config.thermal.solver = solver;
    return config;
}

/** Every observable of one segment flattened for bitwise
 *  comparison (the same discipline as perf_pipeline). */
std::vector<double>
segmentFingerprint(const BusSimulator &bus)
{
    std::vector<double> fp;
    fp.push_back(static_cast<double>(bus.transmissions()));
    fp.push_back(static_cast<double>(bus.currentCycle()));
    fp.push_back(bus.totalEnergy().self.raw());
    fp.push_back(bus.totalEnergy().coupling.raw());
    for (double e : bus.lineEnergies())
        fp.push_back(e);
    fp.push_back(static_cast<double>(bus.thermalFaults().size()));
    fp.push_back(static_cast<double>(bus.samples().size()));
    for (const IntervalSample &s : bus.samples()) {
        fp.push_back(static_cast<double>(s.end_cycle));
        fp.push_back(static_cast<double>(s.transmissions));
        fp.push_back(s.energy.self.raw());
        fp.push_back(s.energy.coupling.raw());
        fp.push_back(s.avg_temperature.raw());
        fp.push_back(s.max_temperature.raw());
        fp.push_back(s.avg_current.raw());
    }
    return fp;
}

std::vector<double>
fabricFingerprint(const BusFabric &fabric)
{
    std::vector<double> fp;
    for (unsigned s = 0; s < fabric.numSegments(); ++s) {
        const std::vector<double> seg =
            segmentFingerprint(fabric.segment(s));
        fp.insert(fp.end(), seg.begin(), seg.end());
    }
    return fp;
}

bool
identicalBits(const std::vector<double> &a,
              const std::vector<double> &b)
{
    return a.size() == b.size() &&
           (a.empty() || std::memcmp(a.data(), b.data(),
                                     a.size() * sizeof(double)) == 0);
}

/**
 * Single-segment oracle pin: a crossbar(1) fabric carrying
 * self-sends must be bit-identical to a standalone BusSimulator fed
 * the identical words, per scheme.
 */
bool
pinSingleSegmentOracle(const TechnologyNode &tech)
{
    std::vector<FabricTransaction> txs;
    Rng rng(0xfab0);
    uint64_t cycle = 0;
    for (size_t i = 0; i < 2000; ++i) {
        txs.push_back({cycle, 0, 0,
                       static_cast<uint32_t>(rng.next())});
        cycle += 1 + rng.below(5);
    }

    const std::vector<EncodingScheme> pin_schemes = {
        EncodingScheme::Unencoded,
        EncodingScheme::BusInvert,
        EncodingScheme::OddEvenBusInvert,
        EncodingScheme::CouplingDrivenBusInvert,
    };
    exec::ThreadPool pool(2);
    for (EncodingScheme scheme : pin_schemes) {
        FabricConfig config;
        config.topology = TopologyKind::Crossbar;
        config.tiles = 1;
        config.segment = segmentConfig(scheme, 1000);
        BusFabric fabric(tech, config);
        VectorTrafficSource source(txs);
        const FabricRunStats stats = fabric.run(source, pool);

        BusSimulator standalone(tech, config.segment);
        for (const FabricTransaction &tx : txs)
            standalone.transmit(tx.cycle, tx.payload);
        standalone.advanceTo(stats.last_cycle);

        if (!identicalBits(segmentFingerprint(fabric.segment(0)),
                           segmentFingerprint(standalone))) {
            std::fprintf(stderr,
                         "FAIL: %s single-segment fabric diverges "
                         "from the standalone simulator\n",
                         schemeName(scheme));
            return false;
        }
    }
    std::printf("oracle pin: 1-segment fabric bit-identical to the "
                "standalone simulator (%zu schemes)\n",
                pin_schemes.size());
    return true;
}

/**
 * Determinism pin: a 6x6 mesh run must be bit-identical across pool
 * sizes 1/2/hw.
 */
bool
pinMeshDeterminism(const TechnologyNode &tech)
{
    FabricConfig config;
    config.topology = TopologyKind::Mesh2D;
    config.rows = 6;
    config.cols = 6;
    config.segment = segmentConfig(EncodingScheme::BusInvert, 500);

    TrafficConfig traffic;
    traffic.pattern = TrafficPattern::Hotspot;
    traffic.hotspot_tile = 21;
    traffic.injection_rate = 0.2;
    traffic.seed = 99;
    traffic.max_transactions = 4000;

    auto runOnce = [&](unsigned pool_size) {
        BusFabric fabric(tech, config);
        SyntheticTraffic source(fabric.topology(), traffic);
        exec::ThreadPool pool(pool_size);
        fabric.run(source, pool);
        return fabricFingerprint(fabric);
    };

    const std::vector<double> reference = runOnce(1);
    const unsigned hw = exec::ThreadPool::defaultThreads();
    for (unsigned pool_size : {2u, hw}) {
        if (!identicalBits(reference, runOnce(pool_size))) {
            std::fprintf(stderr,
                         "FAIL: 6x6 mesh diverges at pool=%u\n",
                         pool_size);
            return false;
        }
    }
    std::printf("determinism pin: 6x6 mesh bit-identical across "
                "pool sizes 1, 2 and %u\n\n",
                hw);
    return true;
}

/** Mesh edge for a segment-count cell (4 -> 2x2, 1024 -> 32x32). */
unsigned
meshEdge(uint64_t segments)
{
    const unsigned edge = static_cast<unsigned>(
        std::llround(std::sqrt(static_cast<double>(segments))));
    return edge > 0 ? edge : 1;
}

FabricConfig
cellConfig(TopologyKind topology, uint64_t segments,
           uint64_t interval_cycles, ThermalSolver solver)
{
    FabricConfig config;
    config.topology = topology;
    if (topology == TopologyKind::Mesh2D) {
        config.rows = meshEdge(segments);
        config.cols = config.rows;
    } else {
        config.tiles = static_cast<unsigned>(segments);
    }
    config.segment = segmentConfig(EncodingScheme::BusInvert,
                                   interval_cycles, solver);
    return config;
}

TrafficConfig
cellTraffic(const FabricConfig &config, TrafficPattern pattern,
            double rate, uint64_t transactions)
{
    TrafficConfig traffic;
    traffic.pattern = pattern;
    traffic.injection_rate = rate;
    traffic.seed = 0xfab51c;
    traffic.max_transactions = transactions;
    const unsigned tiles = config.topology == TopologyKind::Mesh2D
                               ? config.rows * config.cols
                               : config.tiles;
    traffic.hotspot_tile = tiles / 2;
    return traffic;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    bench::Flags flags(argc, argv);
    const bool smoke = flags.has("smoke");

    const std::string topo_name = flags.get("topology", "mesh");
    const auto topology = parseTopologyKind(topo_name);
    if (!topology) {
        std::fprintf(stderr,
                     "--topology=%s: expected mesh, ring, or "
                     "crossbar\n",
                     topo_name.c_str());
        return 2;
    }
    const std::string pattern_name = flags.get("pattern", "hotspot");
    const auto pattern = parseTrafficPattern(pattern_name);
    if (!pattern) {
        std::fprintf(stderr,
                     "--pattern=%s: expected uniform, hotspot, or "
                     "neighbor\n",
                     pattern_name.c_str());
        return 2;
    }
    const uint64_t target_segments =
        flags.getU64("segments", smoke ? 36 : 256);
    const uint64_t transactions =
        flags.getU64("transactions", smoke ? 4000 : 1000000);
    const double rate = flags.getF64("rate", 0.2);
    const uint64_t interval =
        flags.getU64("interval", smoke ? 500 : 2000);
    const ThermalSolver solver =
        bench::thermalSolverFromFlags(flags, ThermalSolver::Rk4);
    const std::string json_path = flags.get("json", "");

    bench::banner("fabric scaling (src/fabric)",
                  "Many-segment bus fabric: routed traffic + lateral "
                  "thermal coupling (equivalence-gated)");

    const TechnologyNode &tech = itrsNode(ItrsNode::Nm130);
    bench::WallTimer total_timer;

    // ------------------------------------------------------------
    // Correctness pins before any timing.
    // ------------------------------------------------------------
    if (!pinSingleSegmentOracle(tech) || !pinMeshDeterminism(tech))
        return 1;

    exec::ThreadPool pool(bench::threadsFromFlags(flags));
    bench::RunMeta meta("fabric", pool.size());
    meta.setWorkload(topologyKindName(*topology), target_segments,
                     trafficPatternName(*pattern));

    // ------------------------------------------------------------
    // Scaling cells: the ISSUE's segment ladder, the target cell
    // last (its rollup feeds the JSON).
    // ------------------------------------------------------------
    std::vector<uint64_t> ladder =
        smoke ? std::vector<uint64_t>{4, 36}
              : std::vector<uint64_t>{4, 36, 256, 1024};
    bool target_in_ladder = false;
    for (uint64_t segments : ladder)
        target_in_ladder |= segments == target_segments;
    if (!target_in_ladder)
        ladder.push_back(target_segments);

    std::printf("scaling cells (%s, %s traffic, %s thermal solver, "
                "%u threads):\n",
                topologyKindName(*topology),
                trafficPatternName(*pattern),
                thermalSolverName(solver), pool.size());
    std::unique_ptr<BusFabric> target_fabric;
    FabricRunStats target_stats;
    for (uint64_t segments : ladder) {
        const bool is_target = segments == target_segments;
        // The target cell carries the full transaction budget; the
        // other rungs scale theirs by segment count so every cell
        // sees comparable per-segment load.
        const uint64_t cell_txs = is_target
            ? transactions
            : std::max<uint64_t>(
                  1000, transactions * segments / target_segments);
        FabricConfig config =
            cellConfig(*topology, segments, interval, solver);
        auto fabric = std::make_unique<BusFabric>(tech, config);
        SyntheticTraffic source(
            fabric->topology(),
            cellTraffic(config, *pattern, rate, cell_txs));
        bench::WallTimer timer;
        const FabricRunStats run = fabric->run(source, pool);
        const double wall = timer.ms();
        const double hops_per_s = wall > 0.0
            ? static_cast<double>(run.hops) / (wall / 1000.0)
            : 0.0;
        char label[64];
        std::snprintf(label, sizeof(label), "segments%llu",
                      static_cast<unsigned long long>(
                          fabric->numSegments()));
        std::printf("  %-14s %9llu txs %10llu hops %9.2f ms "
                    "%12.0f hops/s\n",
                    label,
                    static_cast<unsigned long long>(
                        run.transactions),
                    static_cast<unsigned long long>(run.hops), wall,
                    hops_per_s);
        meta.addShard(label, wall);
        if (is_target) {
            target_stats = run;
            target_fabric = std::move(fabric);
        }
    }
    if (!target_fabric)
        fatal("perf_fabric: target cell (%llu segments) never ran",
              static_cast<unsigned long long>(target_segments));

    // ------------------------------------------------------------
    // Supervised re-run of the target cell: the whole-fabric job
    // under retry/deadline supervision; tallies land in the JSON
    // "supervisor" block.
    // ------------------------------------------------------------
    const double deadline_ms = flags.getF64("deadline", 0.0);
    const unsigned retries =
        static_cast<unsigned>(flags.getU64("retries", 1));
    {
        FabricConfig config = cellConfig(
            *topology,
            smoke ? target_segments : std::min<uint64_t>(
                                          target_segments, 36),
            interval, solver);
        const uint64_t sup_txs = smoke ? 2000 : 20000;
        exec::FabricSupervisor::Options options;
        options.max_retries = retries;
        options.deadline_ms = deadline_ms;
        const exec::FabricSupervisor supervisor(pool, options);
        std::vector<exec::SupervisedFabricJob> jobs;
        jobs.push_back(supervisedFabricRunJob(
            "fabric-target", tech, config,
            cellTraffic(config, *pattern, rate, sup_txs)));
        const exec::SupervisedFabricReport sup = supervisor.run(jobs);
        std::printf("\nsupervised cell: %s attempts=%u "
                    "transactions=%llu\n",
                    exec::jobOutcomeName(sup.records[0].outcome),
                    sup.records[0].attempts,
                    static_cast<unsigned long long>(
                        sup.reports[0].stats.transactions));
        bench::SupervisorSummary summary;
        summary.enabled = true;
        summary.ok = sup.ok_count;
        summary.retried = sup.retried_count;
        summary.timed_out = sup.timed_out_count;
        summary.quarantined = sup.quarantined_count;
        summary.max_retries = retries;
        summary.deadline_ms = deadline_ms;
        meta.setSupervisor(summary);
        if (!sup.allSucceeded()) {
            std::fprintf(stderr, "FAIL: supervised fabric cell did "
                                 "not complete\n");
            return 1;
        }
    }

    // ------------------------------------------------------------
    // Target-cell rollup: per-segment energy/thermal summaries into
    // the JSON "segments_summary" array.
    // ------------------------------------------------------------
    const BusFabric &fabric = *target_fabric;
    std::string rollup = "[\n";
    char buf[224];
    for (unsigned s = 0; s < fabric.numSegments(); ++s) {
        const SegmentSummary summary = fabric.summarize(s);
        std::snprintf(
            buf, sizeof(buf),
            "    {\"segment\": %u, \"transmissions\": %llu, "
            "\"energy_self_j\": %.6e, \"energy_coupling_j\": %.6e, "
            "\"avg_temp_k\": %.4f, \"max_temp_k\": %.4f, "
            "\"thermal_faults\": %zu}%s\n",
            summary.segment,
            static_cast<unsigned long long>(summary.transmissions),
            summary.energy.self.raw(), summary.energy.coupling.raw(),
            summary.avg_temperature.raw(),
            summary.max_temperature.raw(), summary.thermal_faults,
            s + 1 < fabric.numSegments() ? "," : "");
        rollup += buf;
    }
    rollup += "  ]";
    meta.addSection("segments_summary", rollup);
    std::snprintf(
        buf, sizeof(buf),
        "{\"transactions\": %llu, \"hops\": %llu, "
        "\"last_cycle\": %llu, \"epochs\": %llu, "
        "\"total_energy_j\": %.6e, \"max_temp_k\": %.4f, "
        "\"thermal_faults\": %zu}",
        static_cast<unsigned long long>(target_stats.transactions),
        static_cast<unsigned long long>(target_stats.hops),
        static_cast<unsigned long long>(target_stats.last_cycle),
        static_cast<unsigned long long>(target_stats.epochs),
        fabric.totalEnergy().total().raw(),
        fabric.maxTemperature().raw(), fabric.thermalFaultCount());
    meta.addSection("target", buf);

    std::printf("\ntarget cell: %u segments, %llu transactions, "
                "%llu hops, %llu epochs, E=%.3e J, Tmax=%.2f K\n",
                fabric.numSegments(),
                static_cast<unsigned long long>(
                    target_stats.transactions),
                static_cast<unsigned long long>(target_stats.hops),
                static_cast<unsigned long long>(target_stats.epochs),
                fabric.totalEnergy().total().raw(),
                fabric.maxTemperature().raw());

    meta.setCounters(pool.counters());
    const std::string written =
        meta.writeJson(total_timer.ms(), json_path);
    if (!written.empty())
        std::printf("wrote %s\n", written.c_str());
    meta.printSummary(total_timer.ms());
    return 0;
}
