#include "exec/thread_pool.hh"

#include <cstdlib>

#include "util/logging.hh"

namespace nanobus {
namespace exec {

namespace {

/**
 * Depth of pool-task execution on this thread: > 0 while a worker
 * (or an inline submit, or a caller draining via tryRunOneTask) is
 * running a task. Nested parallel regions consult this to degrade to
 * serial instead of re-entering a pool they may block on.
 */
thread_local unsigned t_task_depth = 0;

/** RAII marker for one task execution. */
struct TaskScope
{
    TaskScope() { ++t_task_depth; }
    ~TaskScope() { --t_task_depth; }
};

constexpr size_t kNoHomeDeque = static_cast<size_t>(-1);

} // anonymous namespace

ThreadPool::ThreadPool(unsigned threads)
{
    if (threads < 1)
        threads = 1;
    if (threads > kMaxThreads)
        threads = kMaxThreads;
    size_ = threads;

    // One deque per worker. The caller has no deque of its own; its
    // pops are always steals by definition.
    const unsigned workers = threads - 1;
    deques_.resize(workers);
    workers_.reserve(workers);
    for (unsigned i = 0; i < workers; ++i) {
        workers_.emplace_back([this, i](std::stop_token stop) {
            workerLoop(stop, i);
        });
    }
}

ThreadPool::~ThreadPool()
{
    // Drain-then-join: tasks already queued still run (a batch in
    // flight when the pool dies would otherwise deadlock its waiting
    // caller). jthread's destructor requests stop and joins; workers
    // exit once stopped *and* out of work.
    for (std::jthread &w : workers_)
        w.request_stop();
    cv_.notify_all();
    workers_.clear(); // joins
}

ThreadPool &
ThreadPool::global()
{
    static ThreadPool pool(defaultThreads());
    return pool;
}

unsigned
ThreadPool::defaultThreads()
{
    // Read once at pool construction, before any worker exists, so
    // the mt-unsafe getenv cannot race a setenv.
    if (const char *env = std::getenv(
            "NANOBUS_THREADS")) { // NOLINT(concurrency-mt-unsafe)
        char *end = nullptr;
        long value = std::strtol(env, &end, 10);
        if (end == env || *end != '\0' || value < 1) {
            warn("NANOBUS_THREADS='%s' is not a positive integer; "
                 "ignoring", env);
        } else {
            if (value > static_cast<long>(kMaxThreads))
                value = static_cast<long>(kMaxThreads);
            return static_cast<unsigned>(value);
        }
    }
    unsigned hw = std::thread::hardware_concurrency();
    return hw >= 1 ? hw : 1;
}

bool
ThreadPool::onPoolThread()
{
    return t_task_depth > 0;
}

void
ThreadPool::runInline(Task &task)
{
    // Strict serial mode: run inline, preserving the historical
    // single-threaded execution order exactly.
    TaskScope scope;
    tasks_run_.fetch_add(1, std::memory_order_relaxed);
    task();
}

void
ThreadPool::submit(Task task)
{
    if (deques_.empty()) {
        runInline(task);
        return;
    }
    {
        std::lock_guard<std::mutex> lock(mutex_);
        deques_[next_deque_].push_back(std::move(task));
        next_deque_ = (next_deque_ + 1) % deques_.size();
        ++pending_;
    }
    cv_.notify_one();
}

void
ThreadPool::submitHinted(Task task, size_t hint)
{
    if (deques_.empty()) {
        runInline(task);
        return;
    }
    {
        std::lock_guard<std::mutex> lock(mutex_);
        // Stable hint -> deque map (no round-robin state), so the
        // same chunk index lands on the same worker batch after
        // batch. Placement only: stealing may still move it.
        deques_[hint % deques_.size()].push_back(std::move(task));
        ++pending_;
    }
    cv_.notify_one();
}

bool
ThreadPool::popTaskLocked(size_t home, Task &out)
{
    if (pending_ == 0)
        return false;
    if (home != kNoHomeDeque && !deques_[home].empty()) {
        out = std::move(deques_[home].back());
        deques_[home].pop_back();
        --pending_;
        return true;
    }
    for (size_t i = 0; i < deques_.size(); ++i) {
        if (i == home || deques_[i].empty())
            continue;
        out = std::move(deques_[i].front());
        deques_[i].pop_front();
        --pending_;
        steals_.fetch_add(1, std::memory_order_relaxed);
        return true;
    }
    return false;
}

bool
ThreadPool::tryRunOneTask()
{
    Task task;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (!popTaskLocked(kNoHomeDeque, task))
            return false;
    }
    TaskScope scope;
    tasks_run_.fetch_add(1, std::memory_order_relaxed);
    task();
    return true;
}

void
ThreadPool::workerLoop(std::stop_token stop, unsigned index)
{
    for (;;) {
        Task task;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            cv_.wait(lock, stop, [this] { return pending_ > 0; });
            if (!popTaskLocked(index, task)) {
                // Queues empty: exit when stopping, else spurious
                // wake — loop back into the wait.
                if (stop.stop_requested())
                    return;
                continue;
            }
        }
        TaskScope scope;
        tasks_run_.fetch_add(1, std::memory_order_relaxed);
        task();
    }
}

ExecCounters
ThreadPool::counters() const
{
    return {tasks_run_.load(std::memory_order_relaxed),
            steals_.load(std::memory_order_relaxed)};
}

} // namespace exec
} // namespace nanobus
