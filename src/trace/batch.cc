#include "trace/batch.hh"

#include <exception>
#include <string>

#include "exec/thread_pool.hh"
#include "util/faultinject.hh"
#include "util/logging.hh"

namespace nanobus {

namespace {

/** Read up to `limit` records from `source` into `out` (cleared
 *  first). Returns true when the source is exhausted, false when
 *  more records remain. Everything fallible is latched into the
 *  Result per the trace layer's IoError convention
 *  (docs/ROBUSTNESS.md): a throwing source is captured at the call
 *  site, and the injected TransientIo fault — which counts one call
 *  per fill so tests can target the Nth batch deterministically —
 *  reports the same way a flaky filesystem read would. A fatal()
 *  raised by the source under setAbortOnError(false) (e.g. an
 *  exhausted TraceReader error budget) is a ParseError: the input
 *  itself is bad, so a retry cannot succeed. */
Result<bool>
readUpTo(TraceSource &source, size_t limit,
         std::vector<TraceRecord> &out)
{
    if (FaultInjector::active() &&
        FaultInjector::instance().fireCallFault(
            FaultSite::TransientIo)) {
        return Error{ErrorCode::IoError,
                     "injected transient I/O fault "
                     "(FaultSite::TransientIo)"};
    }
    out.clear();
    TraceRecord record;
    while (out.size() < limit) {
        bool more = false;
        try {
            more = source.next(record);
        } catch (const FatalError &e) {
            return Error{ErrorCode::ParseError, e.message};
        } catch (const std::exception &e) {
            return Error{ErrorCode::IoError,
                         std::string("trace source failed: ") +
                             e.what()};
        } catch (...) {
            return Error{ErrorCode::IoError,
                         "trace source failed with a non-standard "
                         "exception"};
        }
        if (!more)
            return true;
        out.push_back(record);
    }
    return false;
}

} // anonymous namespace

// ---------------------------------------------------------------- //
// BatchReader

BatchReader::BatchReader(TraceSource &source, size_t batch_size)
    : source_(source), batch_size_(batch_size)
{
    if (batch_size_ == 0)
        fatal("BatchReader: batch size must be positive");
    buffer_.reserve(batch_size_);
}

Result<RecordBatch>
BatchReader::nextBatch()
{
    if (error_)
        return *error_;
    if (finished_)
        return RecordBatch{};
    Result<bool> filled = readUpTo(source_, batch_size_, buffer_);
    if (!filled.ok()) {
        error_ = filled.error();
        return *error_;
    }
    finished_ = filled.value();
    return RecordBatch{buffer_.data(), buffer_.size()};
}

void
BatchReader::restart()
{
    error_.reset();
    finished_ = false;
    buffer_.clear();
}

// ---------------------------------------------------------------- //
// PrefetchReader

PrefetchReader::PrefetchReader(TraceSource &source,
                               exec::ThreadPool &pool,
                               size_t batch_size)
    : source_(source), pool_(pool), batch_size_(batch_size)
{
    if (batch_size_ == 0)
        fatal("PrefetchReader: batch size must be positive");
    // No reserve here on purpose: the buffers grow inside fillBack(),
    // which runs on a pool worker, so their pages first-touch onto
    // the filling worker's NUMA node rather than the consumer's
    // (docs/PARALLELISM.md). After the first swap cycle both buffers
    // are at full capacity and no further allocation happens.
    startFill();
}

PrefetchReader::~PrefetchReader()
{
    // A fill task captures `this`; it must not outlive us.
    if (inflight_)
        waitFill();
}

void
PrefetchReader::fillBack()
{
    Result<bool> filled = readUpTo(source_, batch_size_, back_);
    if (filled.ok())
        back_exhausted_ = filled.value();
    else
        back_error_ = filled.error();
}

void
PrefetchReader::startFill()
{
    back_exhausted_ = false;
    back_error_.reset();
    {
        std::lock_guard<std::mutex> lock(mutex_);
        inflight_ = true;
        fill_done_ = false;
    }
    // With pool size 1 submit() runs the fill inline before
    // returning, which degrades the prefetch to a synchronous
    // read-ahead — same batches, same bits, no threads.
    pool_.submit([this] {
        fillBack();
        // Notify under the lock: once the consumer sees fill_done_ it
        // may destroy the reader, condition variable included.
        std::lock_guard<std::mutex> lock(mutex_);
        fill_done_ = true;
        cv_.notify_all();
    });
}

void
PrefetchReader::waitFill()
{
    // Drain the pool while waiting so the consumer contributes
    // (possibly executing its own fill) instead of idling; fall
    // back to sleeping only when no task is runnable.
    for (;;) {
        {
            std::unique_lock<std::mutex> lock(mutex_);
            if (fill_done_)
                break;
        }
        if (!pool_.tryRunOneTask()) {
            std::unique_lock<std::mutex> lock(mutex_);
            cv_.wait(lock, [&] { return fill_done_; });
            break;
        }
    }
    inflight_ = false;
}

Result<RecordBatch>
PrefetchReader::nextBatch()
{
    if (error_)
        return *error_;
    if (finished_)
        return RecordBatch{};

    waitFill();
    if (back_error_) {
        error_ = back_error_;
        return *error_;
    }
    front_.swap(back_);
    if (back_exhausted_) {
        // Nothing beyond the batch being handed over; don't touch
        // the source again.
        finished_ = true;
    } else {
        startFill();
    }
    return RecordBatch{front_.data(), front_.size()};
}

void
PrefetchReader::restart()
{
    // Join any in-flight fill first: its task captures `this` and may
    // still be reading the (now stale) source position.
    if (inflight_)
        waitFill();
    error_.reset();
    finished_ = false;
    back_error_.reset();
    back_exhausted_ = false;
    front_.clear();
    back_.clear();
    startFill();
}

void
forEachBatch(TraceSource &source,
             const std::function<void(const RecordBatch &)> &fn,
             size_t batch_size)
{
    BatchReader batches(source, batch_size);
    for (;;) {
        Result<RecordBatch> next = batches.nextBatch();
        if (!next.ok())
            fatal("forEachBatch: trace stream failed (%s)",
                  next.error().describe().c_str());
        if (next.value().empty())
            return;
        fn(next.value());
    }
}

} // namespace nanobus
