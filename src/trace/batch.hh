/**
 * @file
 * Batched trace streaming: RecordBatch spans, the BatchSource
 * interface, a synchronous BatchReader, and a double-buffered
 * PrefetchReader that overlaps the next batch's file I/O with the
 * current batch's simulation.
 *
 * The paper's Sec 5 methodology replays 300M-cycle address traces;
 * at that scale per-record virtual dispatch and serial read-I/O
 * between parallel regions dominate the replay loop. This layer
 * turns a pull-based TraceSource into fixed-size batches with one
 * hard contract (docs/PIPELINE.md):
 *
 * > **Batch boundaries are a pure function of (source contents,
 * > batch_size).** Neither the pool size nor scheduling order moves
 * > a record between batches, so every consumer that preserves
 * > per-batch record order — SimPipeline does — produces results
 * > bit-identical to the per-record replay.
 *
 * Error handling follows docs/ROBUSTNESS.md: sources that fail by
 * calling fatal() (TraceReader past its error budget) still
 * terminate; sources that *throw* have the exception captured —
 * even when it was raised on a prefetch worker — and surfaced to
 * the consumer as a Result error, with the error latched so every
 * later nextBatch() reports it again. A batch in which the fault
 * occurred is dropped whole: consumers never see a partially-read
 * batch followed by an error.
 */

#ifndef NANOBUS_TRACE_BATCH_HH
#define NANOBUS_TRACE_BATCH_HH

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <optional>
#include <vector>

#include "trace/record.hh"
#include "util/result.hh"

namespace nanobus {

namespace exec {
class ThreadPool;
} // namespace exec

/** Default records per batch; amortizes dispatch without letting the
 *  double buffers outgrow the L2. 8192 16-byte TraceRecords are
 *  128 KiB per buffer, read from ~143 KiB of text trace (~17.9
 *  B/record). */
constexpr size_t kDefaultTraceBatchSize = 8192;

/**
 * A borrowed, read-only span of trace records. Valid until the next
 * nextBatch() call on the producing source (the producer owns the
 * storage). An empty batch signals end of stream.
 */
struct RecordBatch
{
    const TraceRecord *records = nullptr;
    size_t count = 0;

    size_t size() const { return count; }
    bool empty() const { return count == 0; }
    const TraceRecord &operator[](size_t i) const { return records[i]; }
    const TraceRecord *begin() const { return records; }
    const TraceRecord *end() const { return records + count; }
};

/**
 * Split a batch into two SoA sinks by access kind: instruction
 * fetches to `fetch_sink`, loads/stores to `data_sink`. A sink
 * provides `add(uint64_t cycle, uint32_t address)` appending to its
 * u64 cycle/address lanes (fabric's BusBatch is the canonical one);
 * widening to u64 happens here so downstream encode stages consume
 * the lanes directly with their batch loops (encodeBatch).
 * Record order is preserved within each sink, which is what keeps
 * batched ingest bit-identical to per-record routing.
 */
template <typename Sink>
inline void
scatterByKind(const RecordBatch &batch, Sink &fetch_sink,
              Sink &data_sink)
{
    for (const TraceRecord &record : batch) {
        if (record.kind == AccessKind::InstructionFetch)
            fetch_sink.add(record.cycle, record.address);
        else
            data_sink.add(record.cycle, record.address);
    }
}

/**
 * Pull-based batch stream. The batched counterpart of TraceSource:
 * nextBatch() yields consecutive fixed-size spans of the underlying
 * record stream (the last batch may be short), an empty batch at end
 * of stream, and a latched Result error if the underlying source
 * failed.
 */
class BatchSource
{
  public:
    virtual ~BatchSource() = default;

    /**
     * Produce the next batch. The returned span is valid until the
     * next call. Empty batch = end of stream; error = the underlying
     * source failed (latched: every subsequent call returns the same
     * error).
     */
    virtual Result<RecordBatch> nextBatch() = 0;
};

/**
 * Synchronous batcher: groups a TraceSource into fixed-size
 * RecordBatch spans on the calling thread. The building block the
 * hot loops use directly when no pool is available, and the
 * reference behaviour PrefetchReader must reproduce batch-for-batch.
 */
class BatchReader : public BatchSource
{
  public:
    /**
     * @param source Underlying record stream; must outlive the
     *        reader. Read only from within nextBatch().
     * @param batch_size Records per batch; must be positive.
     */
    explicit BatchReader(TraceSource &source,
                         size_t batch_size = kDefaultTraceBatchSize);

    Result<RecordBatch> nextBatch() override;

    /**
     * Clear the latched error / end-of-stream state and resume
     * batching from the source's *current* position. The retry seam
     * for transient I/O failures: the caller rewinds or reopens the
     * source (TraceReader::reopen, VectorTraceSource::rewind), then
     * restarts the batcher instead of being stuck on the latch.
     */
    void restart();

  private:
    TraceSource &source_;
    size_t batch_size_;
    std::vector<TraceRecord> buffer_;
    bool finished_ = false;
    std::optional<Error> error_;
};

/**
 * Double-buffered prefetching batcher: while the consumer simulates
 * the current (front) batch, one pool task fills the back buffer
 * from the source, overlapping trace I/O with simulation. The
 * handoff contract:
 *
 *  - At most one fill is in flight, and fills are issued in stream
 *    order, so the batch sequence is exactly BatchReader's for the
 *    same (source, batch_size) — at every pool size, including 1
 *    (where ThreadPool::submit degrades to inline execution and the
 *    "prefetch" becomes a synchronous read-ahead of one batch).
 *  - nextBatch() blocks until the in-flight fill completes, swaps
 *    the buffers, starts the next fill, and returns the front span;
 *    while blocked the caller drains other pool tasks instead of
 *    idling (it may execute its own fill).
 *  - A source exception raised on the prefetch worker is captured
 *    and re-surfaced on the consumer as a latched Result error.
 *
 * The source must not be touched by anyone else while a
 * PrefetchReader is attached: the reader owns the source's read
 * position, including one batch of read-ahead the consumer has not
 * seen yet.
 */
class PrefetchReader : public BatchSource
{
  public:
    /**
     * Starts the first fill immediately.
     *
     * @param source Underlying record stream; must outlive the
     *        reader.
     * @param pool Pool that runs the fill tasks. Also the pool the
     *        consumer's simulation work should target, so the
     *        waiting consumer can drain it.
     * @param batch_size Records per batch; must be positive.
     */
    PrefetchReader(TraceSource &source, exec::ThreadPool &pool,
                   size_t batch_size = kDefaultTraceBatchSize);

    /** Joins the in-flight fill, if any. */
    ~PrefetchReader() override;

    PrefetchReader(const PrefetchReader &) = delete;
    PrefetchReader &operator=(const PrefetchReader &) = delete;

    Result<RecordBatch> nextBatch() override;

    /**
     * Clear the latched error / end-of-stream state and start a
     * fresh fill from the source's *current* position (the caller
     * rewinds or reopens the source first). Joins any in-flight
     * fill before touching shared state, so it is safe to call right
     * after a failed nextBatch(). Without this, one transient I/O
     * fault latched the reader permanently and a retried job could
     * never re-read its trace.
     */
    void restart();

  private:
    /** Read up to batch_size_ records into back_; called on a pool
     *  worker (or inline). Sets back_exhausted_/back_error_. */
    void fillBack();

    /** Queue the next fillBack() on the pool. */
    void startFill();

    /** Block until the in-flight fill completes, draining pool
     *  tasks while waiting. */
    void waitFill();

    TraceSource &source_;
    exec::ThreadPool &pool_;
    size_t batch_size_;

    /** Consumer-visible batch; swapped with back_ at each handoff. */
    std::vector<TraceRecord> front_;
    /** Fill target. Written only by the in-flight fill task; the
     *  consumer touches it only between waitFill() and the next
     *  startFill() (the completion handshake gives happens-before
     *  in both directions). */
    std::vector<TraceRecord> back_;
    bool back_exhausted_ = false;
    std::optional<Error> back_error_;

    bool finished_ = false;
    std::optional<Error> error_;

    std::mutex mutex_;
    std::condition_variable cv_;
    bool inflight_ = false;
    bool fill_done_ = false;
};

/**
 * Drain `source` to exhaustion through a BatchReader, invoking `fn`
 * once per batch. The convenience entry for analysis loops (bench
 * drivers) that want batched iteration without Result plumbing: a
 * source failure is escalated to fatal(), which is the right
 * severity for the in-memory/synthetic sources those loops use.
 * Replay hot paths with recoverable-error needs drive SimPipeline or
 * a BatchSource directly instead.
 */
void forEachBatch(TraceSource &source,
                  const std::function<void(const RecordBatch &)> &fn,
                  size_t batch_size = kDefaultTraceBatchSize);

} // namespace nanobus

#endif // NANOBUS_TRACE_BATCH_HH
