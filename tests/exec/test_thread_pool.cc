/**
 * @file
 * ThreadPool unit tests: serial-inline mode, task accounting, caller
 * participation (steal counting), hinted submission,
 * drain-on-destruction, and the NANOBUS_THREADS sizing rule.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <future>
#include <thread>

#include "exec/thread_pool.hh"

namespace nanobus {
namespace {

/** Scoped NANOBUS_THREADS override that restores the prior value. */
class ScopedThreadsEnv
{
  public:
    explicit ScopedThreadsEnv(const char *value)
    {
        const char *prev = std::getenv("NANOBUS_THREADS");
        had_prev_ = prev != nullptr;
        if (had_prev_)
            prev_ = prev;
        if (value)
            ::setenv("NANOBUS_THREADS", value, 1);
        else
            ::unsetenv("NANOBUS_THREADS");
    }

    ~ScopedThreadsEnv()
    {
        if (had_prev_)
            ::setenv("NANOBUS_THREADS", prev_.c_str(), 1);
        else
            ::unsetenv("NANOBUS_THREADS");
    }

  private:
    bool had_prev_ = false;
    std::string prev_;
};

TEST(ThreadPool, SizeOneRunsTasksInlineOnCaller)
{
    exec::ThreadPool pool(1);
    EXPECT_EQ(pool.size(), 1u);

    std::thread::id task_thread;
    bool saw_pool_thread = false;
    pool.submit([&] {
        task_thread = std::this_thread::get_id();
        saw_pool_thread = exec::ThreadPool::onPoolThread();
    });

    // Inline: same thread, already finished when submit returns, and
    // marked as a pool task while running (nested-region policy).
    EXPECT_EQ(task_thread, std::this_thread::get_id());
    EXPECT_TRUE(saw_pool_thread);
    EXPECT_FALSE(exec::ThreadPool::onPoolThread());
    EXPECT_EQ(pool.counters().tasks_run, 1u);
    EXPECT_EQ(pool.counters().steals, 0u);
}

TEST(ThreadPool, SizeClampsToAtLeastOne)
{
    exec::ThreadPool pool(0);
    EXPECT_EQ(pool.size(), 1u);
    int ran = 0;
    pool.submit([&] { ++ran; });
    EXPECT_EQ(ran, 1);
}

TEST(ThreadPool, RunsEverySubmittedTask)
{
    constexpr int kTasks = 200;
    std::atomic<int> ran{0};
    exec::ThreadPool pool(4);
    std::promise<void> done;
    std::atomic<int> remaining{kTasks};
    for (int i = 0; i < kTasks; ++i) {
        pool.submit([&] {
            ran.fetch_add(1);
            if (remaining.fetch_sub(1) == 1)
                done.set_value();
        });
    }
    done.get_future().wait();
    EXPECT_EQ(ran.load(), kTasks);
    EXPECT_GE(pool.counters().tasks_run,
              static_cast<uint64_t>(kTasks));
}

TEST(ThreadPool, CallerPopsCountAsSteals)
{
    exec::ThreadPool pool(2); // one worker
    std::atomic<bool> worker_parked{false};
    std::promise<void> release;
    std::shared_future<void> gate(release.get_future());

    // Park the single worker inside a task so only the caller can
    // drain what we queue next. The task owns its copy of the gate:
    // the worker leaves gate.wait() after this frame may be gone.
    pool.submit([&worker_parked, gate] {
        worker_parked = true;
        gate.wait();
    });
    while (!worker_parked.load())
        std::this_thread::yield();

    const exec::ExecCounters before = pool.counters();
    std::atomic<int> ran{0};
    constexpr int kTasks = 4;
    for (int i = 0; i < kTasks; ++i)
        pool.submit([&] { ran.fetch_add(1); });
    while (pool.tryRunOneTask())
        ;
    release.set_value();

    EXPECT_EQ(ran.load(), kTasks);
    const exec::ExecCounters delta = pool.counters() - before;
    // The caller has no home deque, so each of its pops is a steal.
    EXPECT_EQ(delta.tasks_run, static_cast<uint64_t>(kTasks));
    EXPECT_EQ(delta.steals, static_cast<uint64_t>(kTasks));
}

TEST(ThreadPool, HintedSubmissionPreservesEveryTask)
{
    // submitHinted must run every task exactly once whatever the
    // hint distribution (including hints far beyond the deque
    // count).
    for (unsigned size : {1u, 2u, 4u}) {
        exec::ThreadPool pool(size);
        std::atomic<uint64_t> sum{0};
        constexpr uint64_t kTasks = 500;
        std::atomic<uint64_t> done{0};
        for (uint64_t i = 0; i < kTasks; ++i) {
            pool.submitHinted(
                [&sum, &done, i] {
                    sum.fetch_add(i + 1);
                    done.fetch_add(1);
                },
                static_cast<size_t>(i * 0x9e3779b97f4a7c15ull));
        }
        while (done.load() < kTasks) {
            if (!pool.tryRunOneTask())
                std::this_thread::yield();
        }
        EXPECT_EQ(sum.load(), kTasks * (kTasks + 1) / 2);
    }
}

TEST(ThreadPool, TryRunOneTaskReportsEmpty)
{
    exec::ThreadPool pool(2);
    EXPECT_FALSE(pool.tryRunOneTask());
}

TEST(ThreadPool, DestructorDrainsQueuedTasks)
{
    std::atomic<int> ran{0};
    {
        exec::ThreadPool pool(3);
        std::atomic<bool> parked{false};
        std::promise<void> release;
        std::shared_future<void> gate(release.get_future());
        // Hold one worker so a backlog builds up, then let the
        // destructor drain it.
        pool.submit([&, gate] {
            parked = true;
            gate.wait();
        });
        while (!parked.load())
            std::this_thread::yield();
        for (int i = 0; i < 100; ++i)
            pool.submit([&] { ran.fetch_add(1); });
        release.set_value();
    } // ~ThreadPool: queued tasks still run, workers join
    EXPECT_EQ(ran.load(), 100);
}

TEST(ThreadPool, OnPoolThreadTrueInsideWorkerTask)
{
    exec::ThreadPool pool(2);
    std::promise<bool> seen;
    pool.submit(
        [&] { seen.set_value(exec::ThreadPool::onPoolThread()); });
    EXPECT_TRUE(seen.get_future().get());
    EXPECT_FALSE(exec::ThreadPool::onPoolThread());
}

TEST(ThreadPool, DefaultThreadsHonorsEnvironment)
{
    {
        ScopedThreadsEnv env("3");
        EXPECT_EQ(exec::ThreadPool::defaultThreads(), 3u);
    }
    {
        // Absurd values clamp to the hard ceiling.
        ScopedThreadsEnv env("99999");
        EXPECT_EQ(exec::ThreadPool::defaultThreads(),
                  exec::ThreadPool::kMaxThreads);
    }
    {
        // Garbage falls back to hardware concurrency (>= 1).
        ScopedThreadsEnv env("not-a-number");
        EXPECT_GE(exec::ThreadPool::defaultThreads(), 1u);
    }
    {
        ScopedThreadsEnv env(nullptr);
        EXPECT_GE(exec::ThreadPool::defaultThreads(), 1u);
    }
}

TEST(ThreadPool, CountersDeltaSubtraction)
{
    exec::ExecCounters a{10, 4};
    exec::ExecCounters b{3, 1};
    exec::ExecCounters d = a - b;
    EXPECT_EQ(d.tasks_run, 7u);
    EXPECT_EQ(d.steals, 3u);
}

} // anonymous namespace
} // namespace nanobus
