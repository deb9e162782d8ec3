/**
 * @file
 * SimPipeline — the batch-oriented streaming replay loop every
 * experiment driver sits on.
 *
 * Stage graph (docs/PIPELINE.md):
 *
 *   TraceSource ──prefetch──▶ ingest ──▶ ┌ encode ─▶ energy/interval ┐ (IA bus)
 *                (pool task)   (split)   └ encode ─▶ energy/interval ┘ (DA bus)
 *
 *  - *Prefetch*: a PrefetchReader overlaps the next batch's trace
 *    I/O with the current batch's simulation (BatchReader when
 *    prefetching is disabled).
 *  - *Ingest*: the caller splits each RecordBatch into the two
 *    per-bus SoA BusBatch slices — exactly the record subsequence
 *    each bus would see from per-record routing.
 *  - *Encode / energy / interval-thermal close*: each bus runs
 *    BusSimulator::transmitBatch, the composable stage pair, as one
 *    parallelFor task; the two buses share no state.
 *
 * Determinism: batch boundaries are a pure function of (source,
 * batch_size); per-bus record order is the per-record order; and
 * each stage accumulates in per-record order. Results are therefore
 * bit-identical to the per-record replay at every pool size,
 * including 1 — the same contract as everything in src/exec, pinned
 * by tests/sim/test_pipeline_batch.cc for both transition kernels.
 */

#ifndef NANOBUS_SIM_PIPELINE_HH
#define NANOBUS_SIM_PIPELINE_HH

#include <cstdint>
#include <string>

#include "sim/experiment.hh"
#include "sim/snapshot.hh"
#include "trace/batch.hh"
#include "util/result.hh"

namespace nanobus {

namespace exec {
class ThreadPool;
} // namespace exec

/** Batch-oriented streaming replay over a TwinBusSimulator. */
class SimPipeline
{
  public:
    struct Config
    {
        /** Records per ingest batch; must be positive. */
        size_t batch_size = kDefaultTraceBatchSize;
        /** Overlap the next batch's trace I/O with the current
         *  batch's simulation (PrefetchReader); disable to read
         *  synchronously through a BatchReader. Results are
         *  bit-identical either way. */
        bool prefetch = true;
        /**
         * Checkpoint file (sim/snapshot.hh); empty disables
         * checkpointing. Written atomically every
         * `checkpoint_every_batches` ingest batches, each write
         * replacing the previous checkpoint, so the file always
         * holds the latest complete batch boundary.
         */
        std::string checkpoint_path;
        /** Ingest batches between checkpoint writes (0 disables). */
        uint64_t checkpoint_every_batches = 0;
        /**
         * Resume from `checkpoint_path` before replaying: restore
         * the twin, then skip the already-consumed record prefix
         * from the (freshly opened) source. The continued run is
         * bit-identical to one that never stopped. Any load or
         * restore failure is returned as the run's error — callers
         * that want "resume if present" semantics should check the
         * file exists first.
         */
        bool resume = false;
    };

    /**
     * @param twin Twin-bus simulator to drive; must outlive the
     *        pipeline.
     * @param pool Pool the bus stages and prefetch fills run on.
     */
    SimPipeline(TwinBusSimulator &twin, exec::ThreadPool &pool);
    SimPipeline(TwinBusSimulator &twin, exec::ThreadPool &pool,
                const Config &config);

    /**
     * Replay a whole record stream, then flush trailing idle time
     * up to the last record's cycle (TwinBusSimulator::finish).
     * Returns the number of records consumed — including, on a
     * resumed run, the prefix the checkpoint already covered — or
     * the underlying source's error (the simulators keep the state
     * of every batch fully applied before the fault).
     */
    Result<uint64_t> run(TraceSource &source);

  private:
    /** Replay the batcher run() built per Config; same contract as
     *  run(). */
    Result<uint64_t> runBatches(BatchSource &batches);

    TwinBusSimulator &twin_;
    exec::ThreadPool &pool_;
    Config config_;

    /** Records a resumed checkpoint already covered; folded into
     *  the cursor of subsequent checkpoint writes and the returned
     *  record count. */
    uint64_t resume_base_ = 0;

    /** Ingest split targets, reused across batches. */
    BusBatch ia_batch_;
    BusBatch da_batch_;
};

} // namespace nanobus

#endif // NANOBUS_SIM_PIPELINE_HH
