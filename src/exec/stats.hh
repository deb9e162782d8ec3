/**
 * @file
 * Lightweight execution counters for the parallel runtime.
 *
 * The counters exist so speedups are *measurable*, not asserted:
 * every supervised batch and every bench shard reports how many
 * tasks ran, how many were stolen across worker deques, and how much
 * wall-clock each shard took, and the bench drivers serialize them
 * into BENCH_*.json so the scaling trajectory is captured run over
 * run.
 *
 * This header is dependency-free on purpose: sim/experiment.hh embeds
 * ExecStats in SweepReport without pulling the pool in.
 */

#ifndef NANOBUS_EXEC_STATS_HH
#define NANOBUS_EXEC_STATS_HH

#include <cstdint>

namespace nanobus {
namespace exec {

/** Monotone lifetime counters of one ThreadPool. */
struct ExecCounters
{
    /** Tasks executed (on workers, callers, or inline). */
    uint64_t tasks_run = 0;
    /** Tasks popped from a deque the runner did not own. */
    uint64_t steals = 0;

    ExecCounters operator-(const ExecCounters &rhs) const
    {
        return {tasks_run - rhs.tasks_run, steals - rhs.steals};
    }
};

/**
 * Execution summary of one parallel batch or shard, embedded in
 * SweepReport and in the bench JSON output.
 */
struct ExecStats
{
    /** Pool concurrency the work ran under (1 = strict serial). */
    unsigned threads = 1;
    /** Tasks the batch executed. */
    uint64_t tasks_run = 0;
    /** Cross-deque steals observed during the batch. */
    uint64_t steals = 0;
    /** Wall-clock of the batch or shard [ms]. */
    double wall_ms = 0.0;
};

} // namespace exec
} // namespace nanobus

#endif // NANOBUS_EXEC_STATS_HH
