/**
 * @file
 * The five workloads (README.md has the catalogue and why each one
 * exists). Every workload leaves the kernel, the thermal solver and
 * the batch size at the library defaults; `oracle` pins Scalar + RK4
 * for the reference writer and for in-process oracle checks.
 */

#include <algorithm>
#include <filesystem>
#include <system_error>

#include "bench_common.hh"
#include "e2e.hh"
#include "exec/parallel.hh"
#include "fabric/fabric.hh"
#include "replay.hh"
#include "sim/experiment.hh"
#include "sim/pipeline.hh"
#include "sim/snapshot.hh"
#include "trace/batch.hh"
#include "trace/io.hh"
#include "trace/profile.hh"
#include "trace/synthetic.hh"

namespace nanobus {
namespace e2e {

namespace {

double
seconds(const bench::WallTimer &timer)
{
    return timer.ms() * 1e-3;
}

BusSimConfig
libraryConfig(bool oracle)
{
    BusSimConfig config;
    if (oracle) {
        config.kernel = TransitionKernel::Scalar;
        config.thermal.solver = ThermalSolver::Rk4;
    }
    return config;
}

/** The Fig 4 bus: 130 nm, 32-bit, Unencoded, 100k-cycle intervals,
 *  dynamic stack with a 2 ms time constant (the bench default for
 *  short traces). */
BusSimConfig
fig4Config(bool oracle)
{
    BusSimConfig config = libraryConfig(oracle);
    config.data_width = 32;
    config.scheme = EncodingScheme::Unencoded;
    config.interval_cycles = 100000;
    config.thermal.stack_mode = StackMode::Dynamic;
    config.thermal.stack_time_constant = Seconds{0.002};
    return config;
}

const TechnologyNode &
node130()
{
    return itrsNode(ItrsNode::Nm130);
}

/** A simulator's outputs as a Cell; the peak is taken over every
 *  recorded interval close and the final state. */
Cell
busCell(const BusSimulator &bus, const std::string &label, unsigned op)
{
    Cell c;
    c.label = label;
    c.op = op;
    c.count = bus.transmissions();
    c.intervals = bus.currentStats().count();
    c.self = bus.totalEnergy().self.raw();
    c.coupling = bus.totalEnergy().coupling.raw();
    c.avg_temp = bus.thermalNetwork().averageTemperature().raw();
    c.max_temp = bus.thermalNetwork().maxTemperature().raw();
    for (const IntervalSample &s : bus.samples())
        c.max_temp = std::max(c.max_temp, s.max_temperature.raw());
    return c;
}

struct StreamCounts
{
    uint64_t fetches = 0;
    uint64_t data = 0;
    uint64_t last_cycle = 0;

    uint64_t records() const { return fetches + data; }
};

/** Drain a source through a BatchReader, counting records by bus and
 *  optionally writing them to a trace file. */
StreamCounts
countStream(TraceSource &source, TraceWriter *writer = nullptr)
{
    StreamCounts counts;
    forEachBatch(source, [&](const RecordBatch &batch) {
        for (const TraceRecord &record : batch) {
            if (writer)
                writer->write(record);
            if (record.kind == AccessKind::InstructionFetch)
                ++counts.fetches;
            else
                ++counts.data;
            counts.last_cycle = record.cycle;
        }
    });
    return counts;
}

/** Expected IA/DA cells of one twin stream idled to `end_cycle`. */
void
addTwinExpectation(Expected &expected, const std::string &prefix,
                   unsigned op, const StreamCounts &counts,
                   uint64_t end_cycle, uint64_t interval)
{
    Cell ia;
    ia.label = prefix + "IA";
    ia.op = op;
    ia.count = counts.fetches;
    ia.intervals = end_cycle / interval;
    Cell da = ia;
    da.label = prefix + "DA";
    da.count = counts.data;
    expected.cells.push_back(ia);
    expected.cells.push_back(da);
    expected.words += counts.records();
}

// ------------------------------------------------------------------ //
// fig3-grid: 4 nodes x 4 schemes x 8 profiles x radius {1, 31}.

struct Fig3Job
{
    ItrsNode node;
    EncodingScheme scheme;
    std::string profile;
    unsigned radius;
    std::string label;
};

/** runEnergyStudy's bus configuration, with the oracle pin. */
BusSimConfig
studyConfig(const Fig3Job &job, bool oracle)
{
    BusSimConfig config = libraryConfig(oracle);
    config.scheme = job.scheme;
    config.coupling_radius = job.radius;
    config.record_samples = false;
    config.thermal.stack_mode = StackMode::None;
    return config;
}

class Fig3Grid;

class Fig3Instance final : public Instance
{
  public:
    Fig3Instance(const Fig3Grid &workload, unsigned threads,
                 bool oracle);

    void run() override;
    RunResult collect() const override;
    exec::ThreadPool &pool() override { return pool_; }

  private:
    const Fig3Grid &workload_;
    bool oracle_;
    exec::ThreadPool pool_;
    /** One size-1 pool per job: each study runs serially inside its
     *  shard, so the outer pool is the only parallelism. */
    std::vector<std::unique_ptr<exec::ThreadPool>> serial_;
    std::vector<EnergyCell> cells_;
    std::vector<double> op_seconds_;
};

class Fig3Grid final : public Workload
{
  public:
    Fig3Grid(uint64_t seed, Scale scale)
        : seed_(seed), cycles_(scale == Scale::Full ? 30000 : 2000)
    {
        for (ItrsNode node : allItrsNodes())
            for (EncodingScheme scheme : paperSchemes())
                for (const std::string &profile : allBenchmarkNames())
                    for (unsigned radius : {1u, 31u})
                        jobs_.push_back(
                            {node, scheme, profile, radius,
                             std::string(itrsNodeName(node)) + "/" +
                                 schemeName(scheme) + "/" + profile +
                                 "/r" + std::to_string(radius) + "/"});
    }

    Status prepare(exec::ThreadPool &pool) override
    {
        std::vector<StreamCounts> counts(jobs_.size());
        exec::parallelFor(
            pool, jobs_.size(),
            [&](size_t begin, size_t end) {
                for (size_t i = begin; i < end; ++i) {
                    SyntheticCpu cpu(benchmarkProfile(jobs_[i].profile),
                                     seed_, cycles_);
                    counts[i] = countStream(cpu);
                }
            },
            1);
        for (size_t i = 0; i < jobs_.size(); ++i) {
            // runEnergyStudy reports simulated cycles per cell; the
            // transmissions are kept aside for the replay check.
            for (const char *bus : {"IA", "DA"}) {
                Cell c;
                c.label = jobs_[i].label + bus;
                c.op = static_cast<unsigned>(i);
                c.count = cycles_;
                expected_.cells.push_back(c);
            }
            expected_.words += counts[i].records();
            transmissions_.push_back(counts[i].fetches);
            transmissions_.push_back(counts[i].data);
        }
        expected_.counts["jobs"] = jobs_.size();
        expected_.counts["cycles"] = jobs_.size() * cycles_;
        expected_.ops = static_cast<unsigned>(jobs_.size());
        return Status();
    }

    const Expected &expected() const override { return expected_; }

    std::unique_ptr<Instance> setup(unsigned threads,
                                    bool oracle) override
    {
        return std::make_unique<Fig3Instance>(*this, threads, oracle);
    }

    void replay(Instance &instance, LayerStats &stats) override
    {
        const RunResult run = instance.collect();
        for (size_t i = 0; i < jobs_.size(); ++i) {
            const Fig3Job &job = jobs_[i];
            SyntheticCpu cpu(benchmarkProfile(job.profile), seed_,
                             cycles_);
            const TwinReplay twin = replayTwin(
                cpu, itrsNode(job.node), studyConfig(job, false), 0,
                job.label, static_cast<unsigned>(i), stats);
            // runEnergyStudy reports energies and cycles only: the
            // replayed transmissions are checked against the prep
            // counts, the energies against the run, and no thermal
            // state exists to compare.
            for (unsigned bus = 0; bus < 2; ++bus) {
                Cell reported = run.cells[2 * i + bus];
                reported.count = transmissions_[2 * i + bus];
                checkReplay(bus == 0 ? twin.ia : twin.da, reported,
                            -1.0, stats);
            }
        }
    }

    const std::vector<Fig3Job> &jobs() const { return jobs_; }
    uint64_t seed() const { return seed_; }
    uint64_t cycles() const { return cycles_; }

  private:
    uint64_t seed_;
    uint64_t cycles_;
    std::vector<Fig3Job> jobs_;
    Expected expected_;
    std::vector<uint64_t> transmissions_;
};

Fig3Instance::Fig3Instance(const Fig3Grid &workload, unsigned threads,
                           bool oracle)
    : workload_(workload), oracle_(oracle), pool_(threads)
{
    const size_t n = workload_.jobs().size();
    serial_.reserve(n);
    for (size_t i = 0; i < n; ++i)
        serial_.push_back(std::make_unique<exec::ThreadPool>(1));
    cells_.resize(n);
    op_seconds_.assign(n, 0.0);
}

void
Fig3Instance::run()
{
    const std::vector<Fig3Job> &jobs = workload_.jobs();
    exec::parallelFor(
        pool_, jobs.size(),
        [&](size_t begin, size_t end) {
            for (size_t i = begin; i < end; ++i) {
                const Fig3Job &job = jobs[i];
                const TechnologyNode &tech = itrsNode(job.node);
                bench::WallTimer timer;
                if (oracle_) {
                    // runEnergyStudy cannot pin the kernel; this is
                    // its body with the oracle configuration.
                    TwinBusSimulator twin(tech, studyConfig(job, true));
                    SyntheticCpu cpu(benchmarkProfile(job.profile),
                                     workload_.seed(),
                                     workload_.cycles());
                    twin.run(cpu, *serial_[i]);
                    cells_[i].instruction =
                        twin.instructionBus().totalEnergy();
                    cells_[i].data = twin.dataBus().totalEnergy();
                    cells_[i].cycles = workload_.cycles();
                } else {
                    cells_[i] = runEnergyStudy(
                        job.profile, tech, job.scheme, job.radius,
                        workload_.cycles(), workload_.seed(),
                        serial_[i].get());
                }
                op_seconds_[i] = seconds(timer);
            }
        },
        1);
}

RunResult
Fig3Instance::collect() const
{
    RunResult out;
    const std::vector<Fig3Job> &jobs = workload_.jobs();
    uint64_t cycles = 0;
    for (size_t i = 0; i < jobs.size(); ++i) {
        for (unsigned bus = 0; bus < 2; ++bus) {
            const EnergyBreakdown &e =
                bus == 0 ? cells_[i].instruction : cells_[i].data;
            Cell c;
            c.label = jobs[i].label + (bus == 0 ? "IA" : "DA");
            c.op = static_cast<unsigned>(i);
            c.count = cells_[i].cycles;
            c.self = e.self.raw();
            c.coupling = e.coupling.raw();
            out.cells.push_back(c);
        }
        cycles += cells_[i].cycles;
    }
    out.counts["jobs"] = jobs.size();
    out.counts["cycles"] = cycles;
    out.op_seconds = op_seconds_;
    out.op_errors.assign(jobs.size(), "");
    return out;
}

// ------------------------------------------------------------------ //
// fig4-trace-file: eon then swim from text trace files.

constexpr uint64_t kCheckpointEveryBatches = 4;

class Fig4TraceFile;

class Fig4Instance final : public Instance
{
  public:
    Fig4Instance(const Fig4TraceFile &workload, unsigned threads,
                 bool oracle);

    void run() override;
    RunResult collect() const override;
    exec::ThreadPool &pool() override { return pool_; }

    const TwinBusSimulator &twin(size_t i) const { return *twins_[i]; }

  private:
    const Fig4TraceFile &workload_;
    exec::ThreadPool pool_;
    std::vector<std::unique_ptr<TwinBusSimulator>> twins_;
    std::vector<std::unique_ptr<TraceReader>> readers_;
    std::vector<uint64_t> records_;
    std::vector<double> op_seconds_;
    std::vector<std::string> op_errors_;
};

class Fig4TraceFile final : public Workload
{
  public:
    Fig4TraceFile(uint64_t seed, Scale scale, std::string tmp_dir)
        : seed_(seed), cycles_(scale == Scale::Full ? 1000000 : 300000),
          tmp_dir_(std::move(tmp_dir))
    {
    }

    Status prepare(exec::ThreadPool &) override
    {
        uint64_t records = 0;
        for (size_t i = 0; i < profiles().size(); ++i) {
            const std::string path = tracePath(i);
            SyntheticCpu cpu(benchmarkProfile(profiles()[i]), seed_,
                             cycles_);
            TraceWriter writer(path);
            const StreamCounts counts = countStream(cpu, &writer);
            writer.flush();
            std::error_code ec;
            const uintmax_t bytes =
                std::filesystem::file_size(path, ec);
            if (ec)
                return Status::failure(ErrorCode::IoError,
                                       "cannot stat " + path);
            trace_bytes_ += bytes;
            addTwinExpectation(expected_, profiles()[i] + "/",
                               static_cast<unsigned>(i), counts,
                               counts.last_cycle,
                               fig4Config(false).interval_cycles);
            const uint64_t batches =
                (counts.records() + kDefaultTraceBatchSize - 1) /
                kDefaultTraceBatchSize;
            checkpoints_.push_back(batches / kCheckpointEveryBatches);
            records += counts.records();
        }
        expected_.counts["records"] = records;
        expected_.ops = static_cast<unsigned>(profiles().size());
        return Status();
    }

    const Expected &expected() const override { return expected_; }

    std::unique_ptr<Instance> setup(unsigned threads,
                                    bool oracle) override
    {
        return std::make_unique<Fig4Instance>(*this, threads, oracle);
    }

    void replay(Instance &instance, LayerStats &stats) override
    {
        const RunResult run = instance.collect();
        const auto &fig4 = static_cast<const Fig4Instance &>(instance);
        stats.trace_bytes += trace_bytes_;
        for (size_t i = 0; i < profiles().size(); ++i) {
            TraceReader reader(tracePath(i));
            const TwinReplay twin = replayTwin(
                reader, node130(), fig4Config(false), 0,
                profiles()[i] + "/", static_cast<unsigned>(i), stats);
            checkReplay(twin.ia, run.cells[2 * i], 1e-6, stats);
            checkReplay(twin.da, run.cells[2 * i + 1], 1e-6, stats);

            // saveTwinCheckpoint as many times as the run wrote one.
            ++stats.replays;
            const uint64_t writes = twin.batches / kCheckpointEveryBatches;
            if (writes != checkpoints_[i]) {
                ++stats.failed_replays;
                stats.mismatches.push_back(
                    profiles()[i] + ": " + std::to_string(writes) +
                    " checkpoint writes vs " +
                    std::to_string(checkpoints_[i]) + " expected");
            }
            const std::string path = tmp_dir_ + "/replay.ckpt";
            for (uint64_t k = 0; k < writes; ++k) {
                bench::WallTimer timer;
                const Status saved = saveTwinCheckpoint(
                    path, fig4.twin(i),
                    SimCheckpoint{twin.records, twin.last_cycle});
                stats.checkpoint_s += seconds(timer);
                std::error_code ec;
                const uintmax_t bytes =
                    std::filesystem::file_size(path, ec);
                if (!saved.ok() || ec) {
                    ++stats.failed_replays;
                    stats.mismatches.push_back(
                        profiles()[i] + ": checkpoint replay failed");
                    break;
                }
                ++stats.checkpoint_writes;
                stats.checkpoint_bytes += bytes;
            }
        }
    }

    static const std::vector<std::string> &profiles()
    {
        static const std::vector<std::string> names = {"eon", "swim"};
        return names;
    }

    std::string tracePath(size_t i) const
    {
        return tmp_dir_ + "/" + profiles()[i] + ".trace";
    }

    std::string checkpointPath(size_t i) const
    {
        return tmp_dir_ + "/" + profiles()[i] + ".ckpt";
    }

  private:
    uint64_t seed_;
    uint64_t cycles_;
    std::string tmp_dir_;
    Expected expected_;
    std::vector<uint64_t> checkpoints_;
    uint64_t trace_bytes_ = 0;
};

Fig4Instance::Fig4Instance(const Fig4TraceFile &workload,
                           unsigned threads, bool oracle)
    : workload_(workload), pool_(threads)
{
    const size_t n = Fig4TraceFile::profiles().size();
    for (size_t i = 0; i < n; ++i) {
        twins_.push_back(std::make_unique<TwinBusSimulator>(
            node130(), fig4Config(oracle)));
        readers_.push_back(
            std::make_unique<TraceReader>(workload_.tracePath(i)));
    }
    records_.assign(n, 0);
    op_seconds_.assign(n, 0.0);
    op_errors_.assign(n, "");
}

void
Fig4Instance::run()
{
    for (size_t i = 0; i < twins_.size(); ++i) {
        bench::WallTimer timer;
        SimPipeline::Config config;
        config.checkpoint_path = workload_.checkpointPath(i);
        config.checkpoint_every_batches = kCheckpointEveryBatches;
        SimPipeline pipeline(*twins_[i], pool_, config);
        Result<uint64_t> records = pipeline.run(*readers_[i]);
        if (records.ok())
            records_[i] = records.value();
        else
            op_errors_[i] = records.error().describe();
        op_seconds_[i] = seconds(timer);
    }
}

RunResult
Fig4Instance::collect() const
{
    RunResult out;
    uint64_t records = 0;
    for (size_t i = 0; i < twins_.size(); ++i) {
        const std::string prefix = Fig4TraceFile::profiles()[i] + "/";
        const unsigned op = static_cast<unsigned>(i);
        out.cells.push_back(
            busCell(twins_[i]->instructionBus(), prefix + "IA", op));
        out.cells.push_back(
            busCell(twins_[i]->dataBus(), prefix + "DA", op));
        records += records_[i];
    }
    out.counts["records"] = records;
    out.op_seconds = op_seconds_;
    out.op_errors = op_errors_;
    return out;
}

// ------------------------------------------------------------------ //
// idle-thermal: swim in 100k-cycle bursts between long idle windows.

class IdleThermal;

class IdleInstance final : public Instance
{
  public:
    IdleInstance(const IdleThermal &workload, unsigned threads,
                 bool oracle);

    void run() override;
    RunResult collect() const override;
    exec::ThreadPool &pool() override { return pool_; }

  private:
    const IdleThermal &workload_;
    exec::ThreadPool pool_;
    TwinBusSimulator twin_;
    SyntheticCpu cpu_;
    IdleInjector injector_;
    uint64_t records_ = 0;
    double op_seconds_ = 0.0;
};

class IdleThermal final : public Workload
{
  public:
    IdleThermal(uint64_t seed, Scale scale)
        : seed_(seed),
          active_(scale == Scale::Full ? 1500000 : 300000),
          idle_(scale == Scale::Full ? 4900000 : 400000)
    {
    }

    static constexpr uint64_t kBurst = 100000;

    /** Simulated horizon: every burst followed by its idle window. */
    uint64_t horizon() const
    {
        return active_ / kBurst * (kBurst + idle_);
    }

    Status prepare(exec::ThreadPool &) override
    {
        SyntheticCpu cpu(benchmarkProfile("swim"), seed_, active_);
        IdleInjector injector(cpu, kBurst, idle_);
        const StreamCounts counts = countStream(injector);
        addTwinExpectation(expected_, "swim/", 0, counts, horizon(),
                           fig4Config(false).interval_cycles);
        expected_.counts["records"] = counts.records();
        expected_.ops = 1;
        return Status();
    }

    const Expected &expected() const override { return expected_; }

    std::unique_ptr<Instance> setup(unsigned threads,
                                    bool oracle) override
    {
        return std::make_unique<IdleInstance>(*this, threads, oracle);
    }

    void replay(Instance &instance, LayerStats &stats) override
    {
        const RunResult run = instance.collect();
        SyntheticCpu cpu(benchmarkProfile("swim"), seed_, active_);
        IdleInjector injector(cpu, kBurst, idle_);
        const TwinReplay twin =
            replayTwin(injector, node130(), fig4Config(false),
                       horizon(), "swim/", 0, stats);
        checkReplay(twin.ia, run.cells[0], 1e-6, stats);
        checkReplay(twin.da, run.cells[1], 1e-6, stats);
    }

    uint64_t seed() const { return seed_; }
    uint64_t active() const { return active_; }
    uint64_t idle() const { return idle_; }

  private:
    uint64_t seed_;
    uint64_t active_;
    uint64_t idle_;
    Expected expected_;
};

IdleInstance::IdleInstance(const IdleThermal &workload,
                           unsigned threads, bool oracle)
    : workload_(workload), pool_(threads),
      twin_(node130(), fig4Config(oracle)),
      cpu_(benchmarkProfile("swim"), workload.seed(), workload.active()),
      injector_(cpu_, IdleThermal::kBurst, workload.idle())
{
}

void
IdleInstance::run()
{
    bench::WallTimer timer;
    records_ = twin_.run(injector_, pool_);
    twin_.finish(workload_.horizon());
    op_seconds_ = seconds(timer);
}

RunResult
IdleInstance::collect() const
{
    RunResult out;
    out.cells.push_back(busCell(twin_.instructionBus(), "swim/IA", 0));
    out.cells.push_back(busCell(twin_.dataBus(), "swim/DA", 0));
    out.counts["records"] = records_;
    out.op_seconds = {op_seconds_};
    out.op_errors = {""};
    return out;
}

// ------------------------------------------------------------------ //
// fabric-coarse / fabric-fine: 16x16 BusInvert mesh, hotspot traffic.

class FabricWorkload;

class FabricInstance final : public Instance
{
  public:
    FabricInstance(const FabricWorkload &workload, unsigned threads,
                   bool oracle);

    void run() override;
    RunResult collect() const override;
    exec::ThreadPool &pool() override { return pool_; }

  private:
    exec::ThreadPool pool_;
    BusFabric fabric_;
    SyntheticTraffic traffic_;
    FabricRunStats stats_;
    double op_seconds_ = 0.0;
    std::string op_error_;
};

class FabricWorkload final : public Workload
{
  public:
    FabricWorkload(uint64_t epoch_cycles, uint64_t seed, Scale scale)
        : epoch_cycles_(epoch_cycles), seed_(seed),
          edge_(scale == Scale::Full ? 16 : 4),
          transactions_(scale == Scale::Full ? 250000 : 5000)
    {
    }

    FabricConfig config(bool oracle) const
    {
        FabricConfig config;
        config.topology = TopologyKind::Mesh2D;
        config.rows = edge_;
        config.cols = edge_;
        config.segment = libraryConfig(oracle);
        config.segment.scheme = EncodingScheme::BusInvert;
        config.segment.interval_cycles = epoch_cycles_;
        return config;
    }

    TrafficConfig traffic() const
    {
        TrafficConfig traffic;
        traffic.pattern = TrafficPattern::Hotspot;
        traffic.injection_rate = 0.2;
        traffic.hotspot_tile = edge_ * edge_ / 2;
        traffic.hotspot_fraction = 0.5;
        traffic.seed = seed_;
        traffic.max_transactions = transactions_;
        return traffic;
    }

    Status prepare(exec::ThreadPool &) override
    {
        const FabricTopology topology = FabricTopology::mesh(edge_, edge_);
        const uint64_t hop = config(false).hop_latency_cycles;
        SyntheticTraffic source(topology, traffic());
        std::vector<uint64_t> words(topology.numSegments(), 0);
        std::vector<unsigned> route;
        uint64_t transactions = 0;
        uint64_t hops = 0;
        uint64_t last_cycle = 0;
        FabricTransaction tx;
        // Traffic generation: SyntheticTraffic is a TrafficSource,
        // which has no batch reader.
        while (source.next(tx)) { // NOLINT(raw-trace-next)
            route.clear();
            topology.route(tx.src, tx.dst, route);
            for (unsigned seg : route)
                ++words[seg];
            hops += route.size();
            last_cycle = std::max(last_cycle,
                                  tx.cycle + hop * (route.size() - 1));
            ++transactions;
        }
        const uint64_t epochs = last_cycle / epoch_cycles_;
        for (unsigned s = 0; s < topology.numSegments(); ++s) {
            Cell c;
            c.label = "seg" + std::to_string(s);
            c.count = words[s];
            c.intervals = epochs;
            expected_.cells.push_back(c);
        }
        expected_.counts["transactions"] = transactions;
        expected_.counts["hops"] = hops;
        expected_.counts["epochs"] = epochs;
        expected_.words = hops;
        expected_.ops = 1;
        return Status();
    }

    const Expected &expected() const override { return expected_; }

    std::unique_ptr<Instance> setup(unsigned threads,
                                    bool oracle) override
    {
        return std::make_unique<FabricInstance>(*this, threads, oracle);
    }

    void replay(Instance &instance, LayerStats &stats) override;

  private:
    uint64_t epoch_cycles_;
    uint64_t seed_;
    unsigned edge_;
    uint64_t transactions_;
    Expected expected_;
};

void
FabricWorkload::replay(Instance &instance, LayerStats &stats)
{
    const RunResult run = instance.collect();
    const FabricConfig fabric_config = config(false);
    const FabricTopology topology = FabricTopology::mesh(edge_, edge_);

    bench::WallTimer trace_timer;
    SyntheticTraffic source(topology, traffic());
    std::vector<FabricTransaction> txs;
    FabricTransaction tx;
    while (source.next(tx)) // NOLINT(raw-trace-next) generation loop
        txs.push_back(tx);
    stats.trace_s += seconds(trace_timer);
    stats.records += txs.size();

    // Route with BusFabric's hop timing, then the stable cycle sort
    // that fixes each segment's word order. Copied from BusFabric::
    // ingest and BusFabric::run (src/fabric/fabric.cc); keep in step.
    struct Word
    {
        uint64_t cycle;
        uint32_t payload;
    };
    bench::WallTimer route_timer;
    std::vector<std::vector<Word>> pending(topology.numSegments());
    std::vector<unsigned> route;
    uint64_t last_cycle = 0;
    for (const FabricTransaction &t : txs) {
        route.clear();
        topology.route(t.src, t.dst, route);
        uint64_t cycle = t.cycle;
        for (unsigned seg : route) {
            pending[seg].push_back({cycle, t.payload});
            cycle += fabric_config.hop_latency_cycles;
        }
        last_cycle = std::max(
            last_cycle,
            t.cycle + fabric_config.hop_latency_cycles *
                          (route.size() - 1));
    }
    for (std::vector<Word> &words : pending)
        std::stable_sort(words.begin(), words.end(),
                         [](const Word &a, const Word &b) {
                             return a.cycle < b.cycle;
                         });
    stats.route_s += seconds(route_timer);
    txs = {};

    // Each segment clocks in one window per epoch, exactly as
    // BusFabric::run's epoch loop and BusFabric::stepSegments feed it
    // (keep in step with both); the lateral exchange term is not
    // replayed, so temperatures are not compared.
    for (unsigned s = 0; s < topology.numSegments(); ++s) {
        BusReplay bus(node130(), fabric_config.segment, stats);
        const std::vector<Word> &words = pending[s];
        size_t cursor = 0;
        BusBatch batch;
        auto feed = [&](uint64_t window_end) {
            batch.clear();
            while (cursor < words.size() &&
                   words[cursor].cycle < window_end) {
                batch.add(words[cursor].cycle, words[cursor].payload);
                ++cursor;
            }
            if (!batch.empty()) {
                bus.transmit(batch);
                ++stats.segment_epochs;
            }
        };
        for (uint64_t boundary = epoch_cycles_; boundary <= last_cycle;
             boundary += epoch_cycles_) {
            feed(boundary);
            bus.advanceTo(boundary);
        }
        feed(last_cycle + 1);
        bus.advanceTo(last_cycle);
        checkReplay(bus.cell("seg" + std::to_string(s), 0), run.cells[s],
                    -1.0, stats);
        pending[s] = {};
    }
}

FabricInstance::FabricInstance(const FabricWorkload &workload,
                               unsigned threads, bool oracle)
    : pool_(threads), fabric_(node130(), workload.config(oracle)),
      traffic_(fabric_.topology(), workload.traffic())
{
}

void
FabricInstance::run()
{
    bench::WallTimer timer;
    Result<FabricRunStats> stats = fabric_.run(traffic_, pool_);
    if (stats.ok())
        stats_ = stats.takeValue();
    else
        op_error_ = stats.error().describe();
    op_seconds_ = seconds(timer);
}

RunResult
FabricInstance::collect() const
{
    RunResult out;
    for (unsigned s = 0; s < fabric_.numSegments(); ++s)
        out.cells.push_back(
            busCell(fabric_.segment(s), "seg" + std::to_string(s), 0));
    out.counts["transactions"] = stats_.transactions;
    out.counts["hops"] = stats_.hops;
    out.counts["epochs"] = stats_.epochs;
    out.op_seconds = {op_seconds_};
    out.op_errors = {op_error_};
    return out;
}

} // namespace

const char *
scaleName(Scale scale)
{
    return scale == Scale::Full ? "full" : "smoke";
}

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "fig3-grid", "fig4-trace-file", "idle-thermal",
        "fabric-coarse", "fabric-fine"};
    return names;
}

std::unique_ptr<Workload>
makeWorkload(const std::string &name, uint64_t seed, Scale scale,
             const std::string &tmp_dir)
{
    if (name == "fig3-grid")
        return std::make_unique<Fig3Grid>(seed, scale);
    if (name == "fig4-trace-file")
        return std::make_unique<Fig4TraceFile>(seed, scale, tmp_dir);
    if (name == "idle-thermal")
        return std::make_unique<IdleThermal>(seed, scale);
    if (name == "fabric-coarse")
        return std::make_unique<FabricWorkload>(2000, seed, scale);
    if (name == "fabric-fine")
        return std::make_unique<FabricWorkload>(20, seed, scale);
    return nullptr;
}

bool
defaultsAreOracle()
{
    return BusSimConfig().kernel == TransitionKernel::Scalar &&
        ThermalConfig().solver == ThermalSolver::Rk4;
}

const char *
defaultKernelName()
{
    return transitionKernelName(BusSimConfig().kernel);
}

const char *
defaultSolverName()
{
    return thermalSolverName(ThermalConfig().solver);
}

} // namespace e2e
} // namespace nanobus
