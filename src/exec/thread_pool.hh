/**
 * @file
 * Fixed-size work-stealing thread pool — the only sanctioned way to
 * spawn concurrency in this repository (tools/nbcheck's `raw-thread`
 * rule keeps raw std::thread/std::async out of every other
 * directory).
 *
 * Design goals, in order:
 *
 *  1. *Determinism of results.* The pool itself schedules tasks in a
 *     nondeterministic order, so every parallel construct built on it
 *     (exec/parallel.hh, exec/supervisor.hh) writes to disjoint,
 *     pre-allocated slots and combines them in a fixed order. The
 *     pool never reorders side effects inside one task.
 *  2. *Race-freedom that is easy to audit.* All task deques share one
 *     mutex; workers sleep on one condition variable. At the task
 *     granularity this repo uses (whole bus simulations, chunks of
 *     thousands of BEM panel interactions) the coarse lock is
 *     invisible in profiles and trivially ThreadSanitizer-clean.
 *  3. *Serial fallback.* A pool of size 1 spawns no worker threads at
 *     all: submit() runs the task inline on the caller, so
 *     NANOBUS_THREADS=1 reproduces the historical single-threaded
 *     execution exactly (same thread, same order, same bits).
 *
 * A pool of size N consists of N-1 jthread workers plus the caller,
 * which participates in draining the queues whenever it blocks on a
 * batch (ThreadPool::tryRunOneTask). Each worker owns a deque; it
 * pops its own work LIFO (cache-warm) and steals FIFO from the other
 * deques when its own runs dry. External submissions are distributed
 * round-robin.
 */

#ifndef NANOBUS_EXEC_THREAD_POOL_HH
#define NANOBUS_EXEC_THREAD_POOL_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "exec/stats.hh"

namespace nanobus {
namespace exec {

/** Fixed-size work-stealing thread pool. */
class ThreadPool
{
  public:
    /** A unit of work. Must not block on other pool tasks except via
     *  the exec/parallel.hh helpers (which drain while waiting). */
    using Task = std::function<void()>;

    /**
     * @param threads Total concurrency including the calling thread:
     *        N-1 workers are spawned. threads == 1 spawns none and
     *        makes submit() run tasks inline (strict serial mode).
     *        Clamped to [1, kMaxThreads].
     */
    explicit ThreadPool(unsigned threads);

    /** Drains every queued task, then joins the workers. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /**
     * The process-global pool, constructed lazily on first use and
     * sized by defaultThreads(). Intended for the library hot paths
     * (BEM assembly, twin-bus runs); explicit instances are for
     * callers that need to control sizing (tests, Supervisor users).
     */
    static ThreadPool &global();

    /**
     * Pool size the global pool will use: the NANOBUS_THREADS
     * environment variable when set (clamped to [1, kMaxThreads]),
     * otherwise std::thread::hardware_concurrency().
     */
    static unsigned defaultThreads();

    /**
     * True when the calling thread is a worker of *any* ThreadPool
     * (or is inline-executing a task of one). Library code uses this
     * to degrade nested parallel regions to serial-by-policy instead
     * of queueing into a pool it may later block on; see
     * docs/PARALLELISM.md.
     */
    static bool onPoolThread();

    /** Total concurrency (workers + the participating caller). */
    unsigned size() const { return size_; }

    /**
     * Enqueue one task. With size() == 1 the task runs inline before
     * submit() returns; otherwise it is pushed to a worker deque
     * round-robin and may run on any worker or on a caller draining
     * the pool via tryRunOneTask().
     */
    void submit(Task task);

    /**
     * Enqueue one task with a placement hint: the task is pushed to
     * deque (hint % workers) instead of round-robin, so a caller
     * that hints with a stable chunk index lands the same chunk on
     * the same worker batch after batch, near the memory that
     * worker first touched. Purely a *placement* hint: work stealing
     * may still move the task, and results are bit-identical either
     * way (docs/PARALLELISM.md). Inline (like submit) at size 1.
     */
    void submitHinted(Task task, size_t hint);

    /**
     * Pop and run one queued task on the calling thread. Returns
     * false when every deque is empty (tasks may still be *running*
     * on workers). Callers waiting for a batch loop on this so the
     * waiting thread contributes instead of idling.
     */
    bool tryRunOneTask();

    /** Snapshot of the lifetime counters (relaxed reads). */
    ExecCounters counters() const;

    /** Hard ceiling on pool size (sanity clamp for env overrides). */
    static constexpr unsigned kMaxThreads = 256;

  private:
    void workerLoop(std::stop_token stop, unsigned index);

    /**
     * Pop one task with `home` as the preferred deque (its back —
     * LIFO), scanning the other deques front-first (FIFO steal)
     * otherwise. Caller participation passes home == npos so every
     * successful pop counts as a steal. Returns false when all
     * deques are empty. Must be called with mutex_ held; releases it
     * only in the caller.
     */
    bool popTaskLocked(size_t home, Task &out);

    /** Run `task` inline on the caller (strict serial mode). */
    void runInline(Task &task);

    unsigned size_;
    // One deque per worker; all guarded by mutex_. pending_ counts
    // queued (not yet popped) tasks so sleepers have a cheap
    // predicate.
    mutable std::mutex mutex_;
    std::condition_variable_any cv_;
    std::vector<std::deque<Task>> deques_;
    size_t pending_ = 0;
    size_t next_deque_ = 0;

    std::atomic<uint64_t> tasks_run_{0};
    std::atomic<uint64_t> steals_{0};

    // Last member: workers start in the constructor's init list tail
    // and must observe the fully-constructed queues.
    std::vector<std::jthread> workers_;
};

} // namespace exec
} // namespace nanobus

#endif // NANOBUS_EXEC_THREAD_POOL_HH
