/**
 * @file
 * nanobus_e2e — the end-to-end benchmark's shared model.
 *
 * A Workload is one set of inputs run through the library's public
 * run APIs (runEnergyStudy, SimPipeline, TwinBusSimulator::run,
 * BusFabric::run) exactly as a user would call them, with kernel,
 * thermal solver and batch size left at the library defaults. Each
 * rep is setup (timed as setup_s) followed by the run (run_s); the
 * run's observable outputs are flattened into Cells and checked
 * against the expected simulated counts and the Scalar+RK4 oracle.
 * A traced run (--traced) additionally replays every layer's entry
 * point single-threaded on the inputs that layer saw (LayerStats).
 */

#ifndef NANOBUS_BENCH_E2E_E2E_HH
#define NANOBUS_BENCH_E2E_E2E_HH

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "exec/thread_pool.hh"
#include "util/result.hh"

namespace nanobus {
namespace e2e {

/**
 * One simulated bus, fabric segment or Fig 3 cell: every value the
 * reference pins. `count` is the simulated count the run reports —
 * transmissions for a bus or segment, simulated cycles for a Fig 3
 * cell (runEnergyStudy reports no transmissions). Temperatures are 0
 * where the workload runs no thermal model.
 */
struct Cell
{
    std::string label;
    /** Op (job, replay or fabric run) the cell belongs to. */
    unsigned op = 0;
    uint64_t count = 0;
    /** Thermal intervals closed. */
    uint64_t intervals = 0;
    double self = 0.0;
    double coupling = 0.0;
    /** Final mean wire temperature [K]. */
    double avg_temp = 0.0;
    /** Peak wire temperature over every interval close [K]. */
    double max_temp = 0.0;
};

/** Observable outputs of one end-to-end call. */
struct RunResult
{
    std::vector<Cell> cells;
    /** Workload-level simulated counts (records, hops, epochs...). */
    std::map<std::string, uint64_t> counts;
    /** Wall time of each op, timed at the bench's call sites [s]. */
    std::vector<double> op_seconds;
    /** Per-op error text; empty when the op succeeded. */
    std::vector<std::string> op_errors;
};

/**
 * What a correct run must report, derived from the inputs alone
 * (prep pass): per-cell counts and intervals, workload counts, and
 * the simulated bus words words_per_s divides by.
 */
struct Expected
{
    std::vector<Cell> cells;
    std::map<std::string, uint64_t> counts;
    uint64_t words = 0;
    unsigned ops = 0;
};

/** Per-layer numbers of the traced run's single-threaded replays. */
struct LayerStats
{
    uint64_t records = 0;
    /** Trace text parsed (trace-file workloads only). */
    uint64_t trace_bytes = 0;
    double trace_s = 0.0;
    double route_s = 0.0;
    uint64_t encoded_words = 0;
    double encode_s = 0.0;
    uint64_t energy_words = 0;
    uint64_t energy_calls = 0;
    double energy_s = 0.0;
    uint64_t networks = 0;
    uint64_t intervals = 0;
    uint64_t faults = 0;
    double thermal_s = 0.0;
    uint64_t checkpoint_writes = 0;
    uint64_t checkpoint_bytes = 0;
    double checkpoint_s = 0.0;
    /** Segment-epochs with traffic (fabric only). */
    uint64_t segment_epochs = 0;
    /** Exactness failures, one line each; empty = every replay
     *  matched the run. */
    std::vector<std::string> mismatches;
    /** Replays attempted (one per bus, segment or checkpoint set). */
    uint64_t replays = 0;
    /** Replays that failed an exactness check. */
    uint64_t failed_replays = 0;

    double busySeconds() const
    {
        return trace_s + route_s + encode_s + energy_s + thermal_s +
            checkpoint_s;
    }
};

/** One rep's live state: built by setup, consumed by run. */
class Instance
{
  public:
    virtual ~Instance() = default;

    /** The end-to-end call; failures land in the result's op_errors. */
    virtual void run() = 0;

    /** Flatten the run's outputs. */
    virtual RunResult collect() const = 0;

    /** The pool the run used. */
    virtual exec::ThreadPool &pool() = 0;
};

/** Workload sizes; `Smoke` runs each in well under a second. */
enum class Scale { Full, Smoke };

const char *scaleName(Scale scale);

/** A benchmark workload (README.md has the catalogue). */
class Workload
{
  public:
    virtual ~Workload() = default;

    /**
     * Generate inputs (trace files go under the temp dir) and derive
     * the expected counts. Not timed as setup: reported as prep_s.
     */
    virtual Status prepare(exec::ThreadPool &pool) = 0;

    virtual const Expected &expected() const = 0;

    /**
     * Build a rep's pool and simulators. `oracle` pins the Scalar
     * kernel and the RK4 solver; otherwise both stay at the library
     * defaults.
     */
    virtual std::unique_ptr<Instance> setup(unsigned threads,
                                            bool oracle) = 0;

    /** Replay every layer of `run` single-threaded (traced run). */
    virtual void replay(Instance &run, LayerStats &stats) = 0;
};

/** The five workload names, in catalogue order. */
const std::vector<std::string> &workloadNames();

/** Build a workload by name; nullptr when unknown. */
std::unique_ptr<Workload> makeWorkload(const std::string &name,
                                       uint64_t seed, Scale scale,
                                       const std::string &tmp_dir);

/** True when the library defaults are the oracle (Scalar + RK4). */
bool defaultsAreOracle();

/** Library-default kernel and solver names, for the report. */
const char *defaultKernelName();
const char *defaultSolverName();

/** One stored oracle result (reference.txt entry). */
struct ReferenceEntry
{
    std::string workload;
    std::string scale;
    uint64_t seed = 0;
    std::map<std::string, uint64_t> counts;
    std::vector<Cell> cells;
};

/** Load every entry of a reference file. */
Result<std::vector<ReferenceEntry>> loadReference(
    const std::string &path);

/** Replace (or add) `entry` in the file at `path`, atomically. */
[[nodiscard]] Status storeReference(const std::string &path,
                                    const ReferenceEntry &entry);

} // namespace e2e
} // namespace nanobus

#endif // NANOBUS_BENCH_E2E_E2E_HH
