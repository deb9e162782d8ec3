/**
 * @file
 * perf_pipeline — throughput study of the batched streaming replay
 * pipeline (sim/pipeline.hh) against the per-record reference loop.
 *
 * Protocol (same discipline as perf_exec): every timing result is
 * gated on a correctness pin. The driver first replays a synthetic
 * SPEC-like trace per-record (TwinBusSimulator::runPerRecord, the
 * oracle) and then through SimPipeline at pool sizes 1, 2, and the
 * hardware concurrency, for each of the paper's four Fig 3 encoding
 * schemes and BOTH transition kernels (scalar and packed — the
 * oracle runs the same kernel, so each pin is bitwise), and requires
 * the full result fingerprint — energies, per-line energies,
 * interval samples, thermal faults — to match BIT-identically. The
 * two kernels are additionally cross-checked against each other to
 * FP rounding. Only then does it time per-record vs. batched vs.
 * batched+prefetch replay across batch sizes and both kernels and
 * emit the records/s trajectory into BENCH_pipeline.json.
 *
 * The kernel gate: the packed kernel must replay an in-memory trace
 * at batch 1024 at least 5x faster than the scalar kernel (best of
 * --gate-reps runs each; in-memory so the gate measures the
 * transition kernels, not trace-file parsing). The verdict lands in
 * the JSON "kernel_gate" block and a miss fails the full run;
 * `tools/check_bench.py pipeline` re-checks it from the JSON. Under
 * --smoke (the ctest, often run beside a loaded `ctest -j`) the gate
 * is advisory: speedup and verdict are still reported, but a miss
 * does not fail the run, because host load must not decide a test.
 *
 * Two robustness pins ride along (docs/ROBUSTNESS.md): a
 * checkpoint/resume pin per kernel (a run snapshotting every
 * --checkpoint-every batches must leave a file a fresh simulator
 * resumes from with a bit-identical final fingerprint; packed
 * snapshots carry the v2 count payload) and a supervised sweep of
 * the four schemes under exec::Supervisor, whose outcome tallies
 * land in the JSON "supervisor" block.
 *
 * Flags: --cycles=N --threads=N --json=PATH --trace=PATH
 *        --checkpoint=PATH --checkpoint-every=BATCHES
 *        --deadline=MS --retries=N --gate-reps=N
 *        --keep-trace --smoke (small trace, single batch size)
 */

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "sim/sweep.hh"
#include "exec/thread_pool.hh"
#include "fabric/bus_sim.hh"
#include "sim/experiment.hh"
#include "sim/pipeline.hh"
#include "tech/technology.hh"
#include "trace/io.hh"
#include "trace/profile.hh"
#include "trace/synthetic.hh"
#include "util/logging.hh"

using namespace nanobus;

namespace {

BusSimConfig
makeConfig(EncodingScheme scheme,
           TransitionKernel kernel = TransitionKernel::Scalar)
{
    BusSimConfig config;
    config.scheme = scheme;
    config.data_width = 32;
    // Small intervals so every batch straddles several interval
    // closes — the pin covers the bookkeeping path, not just the
    // per-word energy path. Thermal stays at its (dynamic) default.
    config.interval_cycles = 5000;
    config.record_samples = true;
    config.kernel = kernel;
    return config;
}

/** Everything observable about one bus after a replay, flattened to
 *  doubles/integers for bitwise comparison. */
struct BusFingerprint
{
    std::vector<double> values;

    void add(double v) { values.push_back(v); }
    void add(uint64_t v) { values.push_back(static_cast<double>(v)); }

    static BusFingerprint capture(const BusSimulator &bus)
    {
        BusFingerprint fp;
        fp.add(bus.totalEnergy().self.raw());
        fp.add(bus.totalEnergy().coupling.raw());
        fp.add(bus.transmissions());
        fp.add(bus.currentCycle());
        for (double e : bus.lineEnergies())
            fp.add(e);
        fp.add(static_cast<uint64_t>(bus.samples().size()));
        for (const IntervalSample &s : bus.samples()) {
            fp.add(s.end_cycle);
            fp.add(s.transmissions);
            fp.add(s.energy.self.raw());
            fp.add(s.energy.coupling.raw());
            fp.add(s.avg_temperature.raw());
            fp.add(s.max_temperature.raw());
            fp.add(s.avg_current.raw());
        }
        fp.add(static_cast<uint64_t>(bus.thermalFaults().size()));
        return fp;
    }

    /** Bitwise equality (memcmp, so -0.0 != 0.0 and NaN == NaN). */
    bool identical(const BusFingerprint &other) const
    {
        return values.size() == other.values.size() &&
            (values.empty() ||
             std::memcmp(values.data(), other.values.data(),
                         values.size() * sizeof(double)) == 0);
    }
};

struct ReplayFingerprint
{
    uint64_t records = 0;
    BusFingerprint ia;
    BusFingerprint da;

    bool identical(const ReplayFingerprint &other) const
    {
        return records == other.records &&
            ia.identical(other.ia) && da.identical(other.da);
    }
};

ReplayFingerprint
capture(const TwinBusSimulator &twin, uint64_t records)
{
    ReplayFingerprint fp;
    fp.records = records;
    fp.ia = BusFingerprint::capture(twin.instructionBus());
    fp.da = BusFingerprint::capture(twin.dataBus());
    return fp;
}

/** Per-record oracle replay of the trace file. */
ReplayFingerprint
replayPerRecord(const std::string &trace, const TechnologyNode &tech,
                EncodingScheme scheme, TransitionKernel kernel,
                double *wall_ms = nullptr)
{
    TraceReader reader(trace);
    TwinBusSimulator twin(tech, makeConfig(scheme, kernel));
    bench::WallTimer timer;
    const uint64_t records = twin.runPerRecord(reader);
    if (wall_ms)
        *wall_ms = timer.ms();
    return capture(twin, records);
}

/** Batched pipeline replay of the trace file. */
ReplayFingerprint
replayPipeline(const std::string &trace, const TechnologyNode &tech,
               EncodingScheme scheme, TransitionKernel kernel,
               exec::ThreadPool &pool,
               const SimPipeline::Config &pipe_config,
               double *wall_ms = nullptr)
{
    TraceReader reader(trace);
    TwinBusSimulator twin(tech, makeConfig(scheme, kernel));
    SimPipeline pipeline(twin, pool, pipe_config);
    bench::WallTimer timer;
    Result<uint64_t> records = pipeline.run(reader);
    if (wall_ms)
        *wall_ms = timer.ms();
    if (!records.ok())
        fatal("perf_pipeline: replay failed: %s",
              records.error().describe().c_str());
    return capture(twin, records.value());
}

/**
 * Batched pipeline replay of an in-memory record vector — the
 * kernel-gate workload. A zero-copy SpanBatchSource removes trace
 * parsing AND per-record ingest dispatch from the measurement, so
 * the scalar/packed ratio reflects the transition kernels rather
 * than I/O.
 */
ReplayFingerprint
replayMemory(const std::vector<TraceRecord> &records,
             const TechnologyNode &tech, const BusSimConfig &config,
             exec::ThreadPool &pool,
             const SimPipeline::Config &pipe_config,
             double *wall_ms = nullptr)
{
    SpanBatchSource source(records, pipe_config.batch_size);
    TwinBusSimulator twin(tech, config);
    SimPipeline pipeline(twin, pool, pipe_config);
    bench::WallTimer timer;
    Result<uint64_t> count = pipeline.runBatches(source);
    if (wall_ms)
        *wall_ms = timer.ms();
    if (!count.ok())
        fatal("perf_pipeline: in-memory replay failed: %s",
              count.error().describe().c_str());
    return capture(twin, count.value());
}

/** Load the whole trace file into memory (kernel-gate input). */
std::vector<TraceRecord>
loadTrace(const std::string &path)
{
    TraceReader reader(path);
    std::vector<TraceRecord> records;
    TraceRecord record;
    while (reader.next(record)) // NOLINT(raw-trace-next)
        records.push_back(record);
    return records;
}

/** Generate the synthetic SPEC-like trace file; returns record
 *  count. */
uint64_t
generateTrace(const std::string &path, uint64_t cycles)
{
    SyntheticCpu cpu(benchmarkProfile("swim"), /*seed=*/1, cycles);
    TraceWriter writer(path);
    writer.comment("perf_pipeline synthetic trace (swim profile)");
    TraceRecord record;
    uint64_t count = 0;
    // Generation, not replay — the batch readers are for consumers.
    while (cpu.next(record)) { // NOLINT(raw-trace-next)
        writer.write(record);
        ++count;
    }
    writer.flush();
    return count;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    bench::Flags flags(argc, argv);
    const bool smoke = flags.has("smoke");
    const uint64_t cycles =
        flags.getU64("cycles", smoke ? 20000 : 200000);
    const unsigned threads = bench::threadsFromFlags(flags);
    const std::string trace_path =
        flags.get("trace", "perf_pipeline_trace.tmp");
    const std::string json_path = flags.get("json", "");

    bench::banner("pipeline throughput",
                  "Batched streaming replay vs per-record reference "
                  "(equivalence-gated)");

    const TechnologyNode &tech = itrsNode(ItrsNode::Nm65);
    bench::WallTimer total_timer;
    const uint64_t records = generateTrace(trace_path, cycles);
    std::printf("trace: %s (%llu records, %llu cycles)\n\n",
                trace_path.c_str(),
                static_cast<unsigned long long>(records),
                static_cast<unsigned long long>(cycles));

    // ------------------------------------------------------------
    // Equivalence pins: batched replay must be bit-identical to the
    // per-record oracle (same kernel) at pool sizes 1, 2, and hw,
    // for all four paper schemes and both transition kernels,
    // before any timing is reported. The two kernels' oracles are
    // cross-checked against each other to FP rounding — the only
    // check that does not share code with the path it validates.
    // ------------------------------------------------------------
    const unsigned hw = exec::ThreadPool::defaultThreads();
    std::vector<unsigned> pin_pools = {1, 2};
    if (hw > 2)
        pin_pools.push_back(hw);
    const std::vector<EncodingScheme> pin_schemes = {
        EncodingScheme::Unencoded,
        EncodingScheme::BusInvert,
        EncodingScheme::OddEvenBusInvert,
        EncodingScheme::CouplingDrivenBusInvert,
    };
    const TransitionKernel kernels[] = {TransitionKernel::Scalar,
                                        TransitionKernel::Packed};
    const double cross_tolerance = 1e-9;

    std::printf("equivalence pins (pool sizes 1/2/%u, both "
                "kernels):\n",
                hw);
    unsigned pins = 0;
    double cross_dev = 0.0;
    for (EncodingScheme scheme : pin_schemes) {
        double scheme_totals[2] = {0.0, 0.0};
        for (TransitionKernel kernel : kernels) {
            const ReplayFingerprint oracle =
                replayPerRecord(trace_path, tech, scheme, kernel);
            scheme_totals[kernel == TransitionKernel::Packed] =
                oracle.ia.values[0] + oracle.ia.values[1] +
                oracle.da.values[0] + oracle.da.values[1];
            for (unsigned pool_size : pin_pools) {
                exec::ThreadPool pool(pool_size);
                for (bool prefetch : {false, true}) {
                    SimPipeline::Config pipe_config;
                    pipe_config.batch_size = 1024;
                    pipe_config.prefetch = prefetch;
                    const ReplayFingerprint got = replayPipeline(
                        trace_path, tech, scheme, kernel, pool,
                        pipe_config);
                    if (!got.identical(oracle)) {
                        std::fprintf(
                            stderr,
                            "FAIL: %s kernel=%s pool=%u prefetch=%d "
                            "diverges from per-record replay\n",
                            schemeName(scheme),
                            transitionKernelName(kernel), pool_size,
                            prefetch ? 1 : 0);
                        std::remove(trace_path.c_str());
                        return 1;
                    }
                    ++pins;
                }
            }
        }
        const double rel =
            std::abs(scheme_totals[1] - scheme_totals[0]) /
            std::abs(scheme_totals[0]);
        cross_dev = std::max(cross_dev, rel);
        std::printf("  %-28s bit-identical per kernel "
                    "(cross-kernel rel dev %.2e)\n",
                    schemeName(scheme), rel);
        if (rel > cross_tolerance) {
            std::fprintf(stderr,
                         "FAIL: %s scalar and packed totals "
                         "diverge beyond %.0e\n",
                         schemeName(scheme), cross_tolerance);
            std::remove(trace_path.c_str());
            return 1;
        }
    }
    std::printf("all %u equivalence pins passed\n\n", pins);

    exec::ThreadPool pool(threads);
    const EncodingScheme timing_scheme = EncodingScheme::BusInvert;

    // ------------------------------------------------------------
    // Checkpoint/resume pin: a run that snapshots every
    // --checkpoint-every batches must leave a file a fresh twin can
    // resume from, and the resumed replay must be bit-identical to
    // the uninterrupted one (docs/ROBUSTNESS.md, "Checkpoint
    // format").
    // ------------------------------------------------------------
    const std::string ckpt_path =
        flags.get("checkpoint", trace_path + ".ckpt");
    const uint64_t ckpt_every = flags.getU64("checkpoint-every", 4);
    for (TransitionKernel kernel : kernels) {
        SimPipeline::Config ckpt_config;
        ckpt_config.batch_size = 1024;
        ckpt_config.checkpoint_path = ckpt_path;
        ckpt_config.checkpoint_every_batches = ckpt_every;
        const ReplayFingerprint full =
            replayPipeline(trace_path, tech, timing_scheme, kernel,
                           pool, ckpt_config);

        SimPipeline::Config resume_config;
        resume_config.batch_size = 1024;
        resume_config.checkpoint_path = ckpt_path;
        resume_config.resume = true;
        const ReplayFingerprint resumed =
            replayPipeline(trace_path, tech, timing_scheme, kernel,
                           pool, resume_config);
        if (!resumed.identical(full)) {
            std::fprintf(stderr,
                         "FAIL: kernel=%s resume from %s diverges "
                         "from the uninterrupted replay\n",
                         transitionKernelName(kernel),
                         ckpt_path.c_str());
            std::remove(trace_path.c_str());
            std::remove(ckpt_path.c_str());
            return 1;
        }
        std::printf("checkpoint/resume pin (%s kernel): resume from "
                    "%s (every %llu batches) is bit-identical\n",
                    transitionKernelName(kernel), ckpt_path.c_str(),
                    static_cast<unsigned long long>(ckpt_every));
    }
    std::printf("\n");

    // ------------------------------------------------------------
    // Timing: per-record vs batched vs batched+prefetch.
    // ------------------------------------------------------------
    bench::RunMeta meta("pipeline", threads);

    auto report = [&](const char *label, double wall_ms) {
        const double rate = wall_ms > 0.0
            ? static_cast<double>(records) / (wall_ms / 1000.0)
            : 0.0;
        std::printf("  %-22s %9.2f ms  %12.0f records/s\n", label,
                    wall_ms, rate);
        meta.addShard(label, wall_ms);
    };

    std::printf("timing (%s, %u threads):\n",
                schemeName(timing_scheme), threads);
    double wall = 0.0;
    for (TransitionKernel kernel : kernels) {
        replayPerRecord(trace_path, tech, timing_scheme, kernel,
                        &wall);
        char label[64];
        std::snprintf(label, sizeof(label), "%s/per-record",
                      transitionKernelName(kernel));
        report(label, wall);
    }

    std::vector<size_t> batch_sizes =
        smoke ? std::vector<size_t>{1024}
              : std::vector<size_t>{1024, kDefaultTraceBatchSize,
                                    65536};
    for (TransitionKernel kernel : kernels) {
        for (size_t batch : batch_sizes) {
            for (bool prefetch : {false, true}) {
                SimPipeline::Config pipe_config;
                pipe_config.batch_size = batch;
                pipe_config.prefetch = prefetch;
                replayPipeline(trace_path, tech, timing_scheme,
                               kernel, pool, pipe_config, &wall);
                char label[64];
                std::snprintf(label, sizeof(label), "%s/batch%zu%s",
                              transitionKernelName(kernel), batch,
                              prefetch ? "+prefetch" : "");
                report(label, wall);
            }
        }
    }

    // ------------------------------------------------------------
    // Kernel gate: packed must beat scalar by >= 5x on the
    // in-memory replay at batch 1024 (best of --gate-reps runs per
    // kernel). In-memory removes trace parsing from the measurement
    // — the gate is about the transition kernels.
    // ------------------------------------------------------------
    const unsigned gate_reps =
        static_cast<unsigned>(flags.getU64("gate-reps", 3));
    const double gate_threshold = 5.0;
    // The gate workload isolates the transition kernels from
    // kernel-independent shared stages that would dilute the ratio:
    // Unencoded (the bus-invert majority vote is per-word sequential
    // in both kernels), rare interval closes (each close runs a
    // thermal ODE advance identical under both kernels), and a
    // cache-resident record slice (a trace larger than LLC turns
    // the fast kernel memory-bound).
    const EncodingScheme gate_scheme = EncodingScheme::Unencoded;
    std::vector<TraceRecord> memory_trace = loadTrace(trace_path);
    constexpr size_t kGateSliceRecords = 32768;
    if (memory_trace.size() > kGateSliceRecords)
        memory_trace.resize(kGateSliceRecords);
    double best_ms[2] = {0.0, 0.0};
    std::printf("\nkernel gate (%s, in-memory, %zu records, batch "
                "1024, best of %u):\n",
                schemeName(gate_scheme), memory_trace.size(),
                gate_reps);
    for (TransitionKernel kernel : kernels) {
        BusSimConfig gate_config = makeConfig(gate_scheme, kernel);
        gate_config.interval_cycles = 1u << 30;
        gate_config.record_samples = false;
        double best = 0.0;
        for (unsigned rep = 0; rep < gate_reps; ++rep) {
            SimPipeline::Config pipe_config;
            pipe_config.batch_size = 1024;
            replayMemory(memory_trace, tech, gate_config, pool,
                         pipe_config, &wall);
            if (rep == 0 || wall < best)
                best = wall;
        }
        best_ms[kernel == TransitionKernel::Packed] = best;
        const double rate = best > 0.0
            ? static_cast<double>(memory_trace.size()) /
                (best / 1000.0)
            : 0.0;
        std::printf("  %-22s %9.2f ms  %12.0f records/s\n",
                    transitionKernelName(kernel), best, rate);
    }
    const double speedup =
        best_ms[1] > 0.0 ? best_ms[0] / best_ms[1] : 0.0;
    const bool gate_passed = speedup >= gate_threshold;
    std::printf("  speedup %.1fx (gate: >= %.0fx) -> %s%s\n", speedup,
                gate_threshold, gate_passed ? "PASS" : "FAIL",
                smoke ? " (advisory under --smoke)" : "");

    {
        char gate_json[512];
        std::snprintf(
            gate_json, sizeof(gate_json),
            "{\"batch\": 1024, \"reps\": %u, \"cells\": ["
            "{\"kernel\": \"scalar\", \"wall_ms\": %.3f}, "
            "{\"kernel\": \"packed\", \"wall_ms\": %.3f}], "
            "\"speedup\": %.3f, \"threshold\": %.1f, "
            "\"passed\": %s, \"smoke\": %s}",
            gate_reps, best_ms[0], best_ms[1], speedup,
            gate_threshold, gate_passed ? "true" : "false",
            smoke ? "true" : "false");
        meta.addSection("kernel_gate", gate_json);
    }
    {
        char equiv_json[256];
        std::snprintf(equiv_json, sizeof(equiv_json),
                      "{\"pins\": %u, "
                      "\"cross_kernel_rel_dev\": %.3e, "
                      "\"cross_kernel_tolerance\": %.1e, "
                      "\"passed\": true}",
                      pins, cross_dev, cross_tolerance);
        meta.addSection("equivalence", equiv_json);
    }

    // ------------------------------------------------------------
    // Supervised sweep: the four schemes as supervised shards under
    // --retries/--deadline; outcome tallies land in the JSON
    // "supervisor" block (docs/ROBUSTNESS.md, "Supervision &
    // retry").
    // ------------------------------------------------------------
    const double deadline_ms = flags.getF64("deadline", 0.0);
    const unsigned retries =
        static_cast<unsigned>(flags.getU64("retries", 2));
    exec::Supervisor::Options sup_options;
    sup_options.max_retries = retries;
    sup_options.deadline_ms = deadline_ms;
    exec::Supervisor supervisor(pool, sup_options);
    std::vector<exec::SupervisedJob> jobs;
    for (EncodingScheme scheme : pin_schemes)
        jobs.push_back(supervisedTraceSweepJob(
            schemeName(scheme), trace_path, tech,
            makeConfig(scheme)));
    const exec::SupervisedReport sup = supervisor.run(jobs);
    std::printf("\nsupervised sweep (retries=%u, deadline=%s):\n",
                retries,
                deadline_ms > 0.0 ? "armed" : "off");
    for (size_t i = 0; i < jobs.size(); ++i)
        std::printf("  %-28s %-11s attempts=%u records=%llu\n",
                    jobs[i].label.c_str(),
                    exec::jobOutcomeName(sup.records[i].outcome),
                    sup.records[i].attempts,
                    static_cast<unsigned long long>(
                        sup.reports[i].records));
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
        std::fprintf(stderr,
                     "FAIL: %zu shard(s) did not complete under "
                     "supervision\n",
                     sup.timed_out_count + sup.quarantined_count);
        std::remove(trace_path.c_str());
        std::remove(ckpt_path.c_str());
        return 1;
    }

    meta.setCounters(pool.counters());
    const std::string written = meta.writeJson(total_timer.ms(),
                                               json_path);
    if (!written.empty())
        std::printf("\nwrote %s\n", written.c_str());
    meta.printSummary(total_timer.ms());

    if (!flags.has("keep-trace")) {
        std::remove(trace_path.c_str());
        std::remove(ckpt_path.c_str());
    }
    if (!gate_passed && !smoke) {
        std::fprintf(stderr,
                     "FAIL: packed kernel speedup %.2fx is below "
                     "the %.0fx gate\n",
                     speedup, gate_threshold);
        return 1;
    }
    return 0;
}
