/**
 * @file
 * Experiment drivers: route an address trace into the paper's two
 * buses (instruction address and data address) and collect results.
 */

#ifndef NANOBUS_SIM_EXPERIMENT_HH
#define NANOBUS_SIM_EXPERIMENT_HH

#include <memory>
#include <string>

#include "exec/stats.hh"
#include "fabric/bus_sim.hh"
#include "trace/record.hh"
#include "util/result.hh"

namespace nanobus {

namespace exec {
class ThreadPool;
} // namespace exec

/**
 * Owns an instruction-address and a data-address BusSimulator and
 * feeds them from one trace stream, exactly as the paper's setup:
 * fetches drive the IA bus, loads and stores drive the DA bus, and
 * each bus idles (holding its last address) when it has no
 * transaction in a cycle.
 */
class TwinBusSimulator
{
  public:
    /**
     * Both buses share the technology node, configuration, and
     * (optionally) an explicit capacitance matrix; `caps == nullptr`
     * uses the ITRS-calibrated analytical matrix.
     */
    TwinBusSimulator(const TechnologyNode &tech,
                     const BusSimConfig &config,
                     const CapacitanceMatrix *caps = nullptr);

    /** Route one record to the right bus. */
    void accept(const TraceRecord &record);

    /**
     * Consume a whole source, then advance both buses to the last
     * cycle seen (flushing trailing idle time). Returns the number
     * of records consumed.
     *
     * Both overloads drive the batch-oriented SimPipeline
     * (sim/pipeline.hh): records stream in fixed-size batches with
     * the next batch's I/O prefetched on the pool while the two
     * (independent) buses simulate the current one. Each bus sees
     * exactly the record subsequence it would see from per-record
     * routing, so the results are bit-identical to runPerRecord()
     * at any pool size, including 1. The pool-less overload uses
     * ThreadPool::global().
     */
    uint64_t run(TraceSource &source);
    uint64_t run(TraceSource &source, exec::ThreadPool &pool);

    /**
     * Reference per-record replay: one accept() per source record,
     * no batching, no pool. The oracle the pipeline equivalence
     * pins in tests/sim compare against.
     */
    uint64_t runPerRecord(TraceSource &source);

    /** Flush both buses' idle time up to `cycle`. */
    void finish(uint64_t cycle);

    /** Instruction-address bus simulator. */
    BusSimulator &instructionBus() { return *ia_; }
    const BusSimulator &instructionBus() const { return *ia_; }

    /** Data-address bus simulator. */
    BusSimulator &dataBus() { return *da_; }
    const BusSimulator &dataBus() const { return *da_; }

  private:
    std::unique_ptr<BusSimulator> ia_;
    std::unique_ptr<BusSimulator> da_;
    uint64_t last_cycle_ = 0;
};

/**
 * Energy-only study result for one (benchmark, node, scheme,
 * coupling-mode) cell of Fig 3.
 */
struct EnergyCell
{
    EnergyBreakdown instruction;
    EnergyBreakdown data;
    uint64_t cycles = 0;
};

/**
 * Run a synthetic benchmark through twin buses for `cycles` cycles
 * with the given configuration and return the accumulated energies.
 * Thermal simulation is disabled (record_samples off, stack mode
 * None) since Fig 3 is an energy-only study.
 *
 * @param pool Pool feeding the twin buses (nullptr = global);
 *        results are bit-identical at every pool size.
 */
EnergyCell runEnergyStudy(const std::string &benchmark,
                          const TechnologyNode &tech,
                          EncodingScheme scheme,
                          unsigned coupling_radius, uint64_t cycles,
                          uint64_t seed = 1,
                          exec::ThreadPool *pool = nullptr);

/**
 * Outcome of a fault-tolerant trace sweep (tryRobustTraceSweep).
 *
 * `completed` is true whenever the sweep ran to the end of the
 * trace, even if it had to skip malformed lines, fall back to the
 * analytical capacitance matrix, or clamp thermal excursions — the
 * point of the robust path is that one bad input degrades the
 * result's fidelity, visibly, rather than killing the batch.
 */
struct SweepReport
{
    /** Records routed into the buses. */
    uint64_t records = 0;
    /** Malformed trace lines skipped. */
    uint64_t skipped_lines = 0;
    /** Capacitance validation and condition-number warnings. */
    std::vector<std::string> warnings;
    /** Thermal faults contained on the instruction-address bus. */
    std::vector<ThermalFault> instruction_faults;
    /** Thermal faults contained on the data-address bus. */
    std::vector<ThermalFault> data_faults;
    /** The supplied Maxwell matrix was unusable and the analytical
     *  matrix was used instead. */
    bool analytical_fallback = false;
    /** The sweep consumed the whole trace. */
    bool completed = false;
    /** Accumulated instruction-address bus energy. */
    EnergyBreakdown instruction_energy;
    /** Accumulated data-address bus energy. */
    EnergyBreakdown data_energy;
    /**
     * Execution counters for this sweep: wall-clock and pool size.
     * Zero-initialized threads == 1 means the sweep never touched
     * the parallel runtime.
     */
    exec::ExecStats exec;

    /** Total contained anomalies of any kind. */
    size_t faultCount() const
    {
        return skipped_lines + warnings.size() +
            instruction_faults.size() + data_faults.size();
    }
};

/** Knobs for tryRobustTraceSweep beyond the core configuration. */
struct RobustSweepOptions
{
    /** Malformed trace lines to skip before giving up. */
    size_t trace_error_budget = 1000;
    /** Checkpoint file for the underlying SimPipeline (empty
     *  disables; see SimPipeline::Config::checkpoint_path). */
    std::string checkpoint_path;
    /** Ingest batches between checkpoint writes (0 disables). */
    uint64_t checkpoint_every_batches = 0;
    /** Resume from `checkpoint_path` (must exist and match). */
    bool resume = false;
};

/**
 * Run a trace file through twin buses, degrading gracefully instead
 * of aborting: malformed trace lines are skipped up to
 * `options.trace_error_budget`, a defective `maxwell` extraction is
 * repaired or replaced by the analytical matrix (with warnings), and
 * thermal anomalies are clamped and reported. Stream-level failures
 * (an injected transient I/O fault, a checkpoint that cannot be
 * written or restored) come back as a typed Error — the seam the
 * exec::Supervisor retry loop is built on. Only environment-level
 * misconfiguration (null encoder factory, unreadable trace file)
 * remains fatal().
 *
 * @param maxwell Optional raw Maxwell capacitance matrix for the
 *        physical bus; validated via tryFromMaxwell.
 * @param pool Thread pool feeding the twin buses (nullptr =
 *        ThreadPool::global()). Results are bit-identical at every
 *        pool size; see docs/PARALLELISM.md.
 */
Result<SweepReport> tryRobustTraceSweep(
    const std::string &trace_path, const TechnologyNode &tech,
    const BusSimConfig &config, const Matrix *maxwell = nullptr,
    const RobustSweepOptions &options = RobustSweepOptions(),
    exec::ThreadPool *pool = nullptr);

} // namespace nanobus

#endif // NANOBUS_SIM_EXPERIMENT_HH
