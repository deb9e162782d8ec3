#include "sim/experiment.hh"

#include <algorithm>
#include <chrono>

#include "exec/parallel.hh"
#include "exec/thread_pool.hh"
#include "sim/pipeline.hh"
#include "trace/io.hh"
#include "trace/profile.hh"
#include "trace/synthetic.hh"
#include "util/logging.hh"

namespace nanobus {

TwinBusSimulator::TwinBusSimulator(const TechnologyNode &tech,
                                   const BusSimConfig &config,
                                   const CapacitanceMatrix *caps)
    : ia_(std::make_unique<BusSimulator>(tech, config, caps)),
      da_(std::make_unique<BusSimulator>(tech, config, caps))
{
}

void
TwinBusSimulator::accept(const TraceRecord &record)
{
    last_cycle_ = record.cycle;
    if (record.kind == AccessKind::InstructionFetch)
        ia_->transmit(record.cycle, record.address);
    else
        da_->transmit(record.cycle, record.address);
}

uint64_t
TwinBusSimulator::run(TraceSource &source)
{
    return run(source, exec::ThreadPool::global());
}

uint64_t
TwinBusSimulator::run(TraceSource &source, exec::ThreadPool &pool)
{
    // The batch pipeline handles every pool size uniformly
    // (parallelFor and the prefetch submit degrade to inline serial
    // execution at size 1) and is bit-identical to runPerRecord();
    // see sim/pipeline.hh and docs/PIPELINE.md.
    SimPipeline pipeline(*this, pool);
    Result<uint64_t> records = pipeline.run(source);
    if (!records.ok()) {
        // Sources reached through this convenience wrapper fail only
        // on environment-level trouble (the robust path reports
        // recoverable trace defects before they get here), so
        // escalate per the docs/ROBUSTNESS.md taxonomy. Callers that
        // want the error as a value drive SimPipeline directly.
        fatal("TwinBusSimulator::run: trace stream failed (%s)",
              records.error().describe().c_str());
    }
    last_cycle_ = std::max(ia_->currentCycle(), da_->currentCycle());
    return records.value();
}

uint64_t
TwinBusSimulator::runPerRecord(TraceSource &source)
{
    TraceRecord record;
    uint64_t count = 0;
    // The reference per-record loop the batch pipeline is pinned
    // against; hot paths go through SimPipeline instead.
    while (source.next(record)) { // NOLINT(raw-trace-next)
        accept(record);
        ++count;
    }
    finish(last_cycle_);
    return count;
}

void
TwinBusSimulator::finish(uint64_t cycle)
{
    ia_->advanceTo(cycle);
    da_->advanceTo(cycle);
}

EnergyCell
runEnergyStudy(const std::string &benchmark,
               const TechnologyNode &tech, EncodingScheme scheme,
               unsigned coupling_radius, uint64_t cycles,
               uint64_t seed, exec::ThreadPool *pool)
{
    BusSimConfig config;
    config.scheme = scheme;
    config.coupling_radius = coupling_radius;
    config.record_samples = false;
    config.thermal.stack_mode = StackMode::None;

    TwinBusSimulator twin(tech, config);
    SyntheticCpu cpu(benchmarkProfile(benchmark), seed, cycles);
    twin.run(cpu, pool ? *pool : exec::ThreadPool::global());

    EnergyCell cell;
    cell.instruction = twin.instructionBus().totalEnergy();
    cell.data = twin.dataBus().totalEnergy();
    cell.cycles = cycles;
    return cell;
}

Result<SweepReport>
tryRobustTraceSweep(const std::string &trace_path,
                    const TechnologyNode &tech,
                    const BusSimConfig &config, const Matrix *maxwell,
                    const RobustSweepOptions &options,
                    exec::ThreadPool *pool)
{
    const auto t_start = std::chrono::steady_clock::now();
    SweepReport report;

    // Resolve the physical bus width up front so a mis-sized
    // extraction can be rejected before construction fatals.
    const unsigned bus_width =
        makeEncoder(config.scheme, config.data_width)->busWidth();

    CapacitanceMatrix caps(1);
    const CapacitanceMatrix *caps_ptr = nullptr;
    if (maxwell) {
        MaxwellValidation validation;
        Result<CapacitanceMatrix> built =
            CapacitanceMatrix::tryFromMaxwell(*maxwell, &validation);
        for (const std::string &warning : validation.warnings)
            report.warnings.push_back(warning);
        if (!built.ok()) {
            report.warnings.push_back(
                "capacitance matrix rejected (" +
                built.error().describe() +
                "); using analytical matrix");
            report.analytical_fallback = true;
        } else if (built.value().size() != bus_width) {
            report.warnings.push_back(
                "capacitance matrix is for " +
                std::to_string(built.value().size()) +
                " wires but the physical bus has " +
                std::to_string(bus_width) +
                "; using analytical matrix");
            report.analytical_fallback = true;
        } else {
            caps = built.takeValue();
            caps_ptr = &caps;
        }
    }

    exec::ThreadPool &run_pool =
        pool ? *pool : exec::ThreadPool::global();
    TraceReader reader(trace_path, options.trace_error_budget);
    TwinBusSimulator twin(tech, config, caps_ptr);

    // Drive the pipeline directly (instead of TwinBusSimulator::run)
    // so stream-level failures come back as values a supervisor can
    // classify and retry rather than escalating to fatal().
    SimPipeline::Config pipeline_config;
    pipeline_config.checkpoint_path = options.checkpoint_path;
    pipeline_config.checkpoint_every_batches =
        options.checkpoint_every_batches;
    pipeline_config.resume = options.resume;
    SimPipeline pipeline(twin, run_pool, pipeline_config);
    Result<uint64_t> records = pipeline.run(reader);
    if (!records.ok())
        return records.error();

    report.records = records.value();
    report.skipped_lines = reader.skippedLines();
    report.instruction_faults = twin.instructionBus().thermalFaults();
    report.data_faults = twin.dataBus().thermalFaults();
    report.instruction_energy = twin.instructionBus().totalEnergy();
    report.data_energy = twin.dataBus().totalEnergy();
    report.completed = true;
    report.exec.threads = run_pool.size();
    report.exec.wall_ms = std::chrono::duration<double, std::milli>(
        std::chrono::steady_clock::now() - t_start).count();
    return report;
}

} // namespace nanobus
