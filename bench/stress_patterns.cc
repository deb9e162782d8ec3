/**
 * @file
 * Stress-pattern study: bounds the energy/thermal envelope of a
 * 32-bit bus with the deterministic worst-case patterns Sec 3.3
 * reasons about, and contrasts them with the uniform-random traffic
 * prior encoding studies used and with a real (synthetic SPEC-like)
 * address stream — quantifying how misleading random traffic is as a
 * proxy for real workloads, which is one of the paper's core
 * arguments.
 *
 * Every pattern is an independent simulation, so the patterns are
 * sharded across the exec ThreadPool (--threads) and printed in a
 * fixed order afterwards — output is identical at any thread count.
 */

#include <cstdio>
#include <memory>
#include <vector>

#include "bench_common.hh"
#include "exec/parallel.hh"
#include "exec/thread_pool.hh"
#include "fabric/bus_sim.hh"
#include "trace/batch.hh"
#include "trace/patterns.hh"
#include "trace/profile.hh"
#include "trace/synthetic.hh"

using namespace nanobus;

namespace {

struct RunResult
{
    double energy = 0.0;
    double per_cycle = 0.0;
    double max_temp = 0.0;
};

RunResult
runSource(const TechnologyNode &tech, TraceSource &source,
          uint64_t cycles)
{
    BusSimConfig config;
    config.data_width = 32;
    config.interval_cycles = 10000;
    config.record_samples = false;
    config.thermal.stack_mode = StackMode::None; // isolate switching
    BusSimulator sim(tech, config);

    uint64_t last = 0;
    forEachBatch(source, [&](const RecordBatch &batch) {
        for (const TraceRecord &r : batch) {
            if (r.kind == AccessKind::InstructionFetch)
                continue;
            sim.transmit(r.cycle, r.address);
            last = r.cycle;
        }
    });
    sim.advanceTo(last);

    RunResult out;
    out.energy = sim.totalEnergy().total().raw();
    out.per_cycle = out.energy / static_cast<double>(cycles);
    out.max_temp = sim.thermalNetwork().maxTemperature().raw();
    return out;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    bench::Flags flags(argc, argv);
    const uint64_t cycles = flags.getU64("cycles", 300000);
    std::string json_path = flags.get("json", "");
    const bool want_json = flags.has("json") || !json_path.empty();

    exec::ThreadPool pool(bench::threadsFromFlags(flags));

    bench::banner("Stress patterns (Sec 3.3 extension)",
                  "Worst-case vs random vs real traffic on a 32-bit "
                  "bus at 130 nm");
    std::printf("%llu cycles per pattern; thermal rise from "
                "switching only (no Eq 7 offset); %u thread(s)\n\n",
                static_cast<unsigned long long>(cycles),
                pool.size());

    const TechnologyNode &tech = itrsNode(ItrsNode::Nm130);

    // Shard list: every stress pattern plus the real address stream.
    const auto &patterns = allStressPatterns();
    const size_t n_shards = patterns.size() + 1;
    std::vector<RunResult> results(n_shards);
    std::vector<double> shard_ms(n_shards, 0.0);

    bench::WallTimer run_timer;
    bench::RunMeta meta("stress_patterns", pool.size());
    const exec::ExecCounters counters_before = pool.counters();

    exec::parallelFor(
        pool, n_shards,
        [&](size_t begin, size_t end) {
            for (size_t i = begin; i < end; ++i) {
                bench::WallTimer shard;
                if (i < patterns.size()) {
                    PatternTraceSource source(patterns[i], 32,
                                              cycles);
                    results[i] = runSource(tech, source, cycles);
                } else {
                    // Real traffic: the data-address stream of a
                    // SPEC-like profile.
                    SyntheticCpu cpu(benchmarkProfile("eon"), 1,
                                     cycles);
                    results[i] = runSource(tech, cpu, cycles);
                }
                shard_ms[i] = shard.ms();
            }
        },
        1);

    std::printf("%-18s %14s %14s %12s\n", "Traffic",
                "energy (J)", "pJ/cycle", "max temp (K)");
    bench::rule(64);
    for (size_t i = 0; i < n_shards; ++i) {
        const char *label = i < patterns.size()
            ? stressPatternName(patterns[i])
            : "eon DA stream";
        const RunResult &r = results[i];
        std::printf("%-18s %14.5e %14.4f %12.3f\n", label, r.energy,
                    r.per_cycle * 1e12, r.max_temp);
        meta.addShard(label, shard_ms[i]);
    }

    meta.setCounters(pool.counters() - counters_before);
    std::printf("\n");
    meta.printSummary(run_timer.ms());
    if (want_json) {
        std::string written = meta.writeJson(run_timer.ms(),
                                             json_path);
        if (!written.empty())
            std::printf("Shard timing JSON written to %s\n",
                        written.c_str());
    }

    std::printf("\n[check] alternating-all bounds the envelope; "
                "random traffic dissipates several\n"
                "        times more than a real address stream — "
                "the paper's argument for evaluating\n"
                "        encodings on real traces rather than "
                "random patterns.\n");
    return 0;
}
