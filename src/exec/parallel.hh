/**
 * @file
 * Deterministic data-parallel constructs over a ThreadPool.
 *
 * Everything here obeys one contract, spelled out in
 * docs/PARALLELISM.md: **results are bit-identical at every pool
 * size, including 1.** The ingredients:
 *
 *  - *Fixed chunking.* A range [0, n) is split into chunks whose
 *    boundaries depend only on n and the grain — never on the thread
 *    count or on runtime load. chunkGrain() is the single place the
 *    default rule lives.
 *  - *Disjoint writes.* parallelFor gives each chunk a half-open
 *    [begin, end) slice; bodies write only to slots indexed by their
 *    own slice.
 *  - *Ordered combination.* parallelReduce evaluates each chunk
 *    serially left-to-right, stores the partials in a pre-sized
 *    vector, and folds them in ascending chunk order on the calling
 *    thread. Thread count changes who computes a partial, never what
 *    is computed or in which order partials combine.
 *
 * Waiting callers drain the pool (ThreadPool::tryRunOneTask) instead
 * of idling, so a pool of size N really applies N threads to the
 * batch. Nested parallel regions — a body that itself calls
 * parallelFor — run serially by policy (ThreadPool::onPoolThread),
 * which keeps worker threads from blocking on work that is queued
 * behind them.
 *
 * Exceptions thrown by a body are captured and rethrown on the
 * calling thread after the whole batch drains (first one captured
 * wins; the batch still completes so the pool stays consistent).
 */

#ifndef NANOBUS_EXEC_PARALLEL_HH
#define NANOBUS_EXEC_PARALLEL_HH

#include <condition_variable>
#include <cstddef>
#include <exception>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "exec/thread_pool.hh"

namespace nanobus {
namespace exec {

/**
 * The fixed chunking rule: grain (elements per chunk) for a range of
 * `n` elements. `requested` == 0 selects the default — the smallest
 * grain that keeps the batch at or under kDefaultMaxChunks chunks.
 * Deliberately independent of the pool size; see the file comment.
 */
constexpr size_t kDefaultMaxChunks = 64;

inline size_t
chunkGrain(size_t n, size_t requested)
{
    if (requested > 0)
        return requested;
    size_t grain = (n + kDefaultMaxChunks - 1) / kDefaultMaxChunks;
    return grain > 0 ? grain : 1;
}

/** Number of chunks the fixed rule yields for (n, grain). */
inline size_t
chunkCount(size_t n, size_t grain)
{
    return grain == 0 ? 0 : (n + grain - 1) / grain;
}

namespace detail {

/** Completion latch shared by one batch's tasks. */
struct BatchState
{
    std::mutex mutex;
    std::condition_variable cv;
    size_t remaining = 0;
    std::exception_ptr first_error;

    void finishOne()
    {
        std::lock_guard<std::mutex> lock(mutex);
        if (--remaining == 0)
            cv.notify_all();
    }

    void captureError()
    {
        std::lock_guard<std::mutex> lock(mutex);
        if (!first_error)
            first_error = std::current_exception();
    }
};

} // namespace detail

/**
 * Apply `body(begin, end)` over [0, n) split into fixed chunks.
 * Chunks run concurrently on the pool; the caller participates until
 * the batch drains. Serial (inline, ascending order) when the pool
 * has size 1, when there is a single chunk, or when called from
 * inside a pool task (nested region).
 *
 * @param grain Elements per chunk; 0 = default rule (chunkGrain).
 */
template <typename Body>
void
parallelFor(ThreadPool &pool, size_t n, Body &&body, size_t grain = 0)
{
    if (n == 0)
        return;
    const size_t g = chunkGrain(n, grain);
    const size_t chunks = chunkCount(n, g);

    if (pool.size() <= 1 || chunks <= 1 || ThreadPool::onPoolThread()) {
        for (size_t c = 0; c < chunks; ++c) {
            size_t begin = c * g;
            size_t end = begin + g < n ? begin + g : n;
            body(begin, end);
        }
        return;
    }

    auto state = std::make_shared<detail::BatchState>();
    state->remaining = chunks;
    for (size_t c = 0; c < chunks; ++c) {
        size_t begin = c * g;
        size_t end = begin + g < n ? begin + g : n;
        // Hint with the chunk index: chunk c prefers worker
        // (c % workers) every batch, so a chunk keeps revisiting the
        // worker that first-touched its data. Placement only —
        // results are identical whichever thread runs it.
        pool.submitHinted(
            [state, begin, end, &body] {
                try {
                    body(begin, end);
                } catch (...) {
                    state->captureError();
                }
                state->finishOne();
            },
            c);
    }

    // Participate until the batch drains, then sleep for the tail
    // that is still running on workers.
    for (;;) {
        {
            std::unique_lock<std::mutex> lock(state->mutex);
            if (state->remaining == 0)
                break;
        }
        if (!pool.tryRunOneTask()) {
            std::unique_lock<std::mutex> lock(state->mutex);
            state->cv.wait(lock,
                           [&] { return state->remaining == 0; });
            break;
        }
    }
    if (state->first_error)
        std::rethrow_exception(state->first_error);
}

/**
 * Deterministic chunked reduction over [0, n).
 *
 * `chunk(begin, end)` returns the partial for one chunk (compute it
 * serially, left to right); `combine(acc, partial)` folds partials in
 * ascending chunk order starting from `init`, on the calling thread.
 *
 * The reduction order is therefore a pure function of (n, grain):
 * bit-identical at every pool size. Note that for floating-point
 * sums this order differs from a flat element-by-element
 * std::accumulate unless the additions are exact (integers, or
 * values whose sums are exactly representable) — the determinism
 * contract is "same bits at any thread count", not "same bits as any
 * other summation order".
 */
template <typename T, typename ChunkFn, typename CombineFn>
T
parallelReduce(ThreadPool &pool, size_t n, T init, ChunkFn &&chunk,
               CombineFn &&combine, size_t grain = 0)
{
    if (n == 0)
        return init;
    const size_t g = chunkGrain(n, grain);
    const size_t chunks = chunkCount(n, g);

    std::vector<T> partials(chunks, init);
    parallelFor(pool, n,
                [&](size_t begin, size_t end) {
                    partials[begin / g] = chunk(begin, end);
                },
                g);

    T acc = std::move(init);
    for (size_t c = 0; c < chunks; ++c)
        acc = combine(std::move(acc), std::move(partials[c]));
    return acc;
}

} // namespace exec
} // namespace nanobus

#endif // NANOBUS_EXEC_PARALLEL_HH
