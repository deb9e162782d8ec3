#include "exec/supervisor.hh"

#include <chrono>
#include <thread>

#include "util/faultinject.hh"
#include "util/random.hh"

namespace nanobus {
namespace exec {

const char *
jobOutcomeName(JobOutcome outcome)
{
    switch (outcome) {
      case JobOutcome::Ok:          return "ok";
      case JobOutcome::Retried:     return "retried";
      case JobOutcome::TimedOut:    return "timed-out";
      case JobOutcome::Quarantined: return "quarantined";
    }
    return "unknown";
}

double
retryDelayMs(const SupervisorPolicy &policy, size_t job,
             unsigned retry)
{
    double bound = policy.backoff_base_ms;
    for (unsigned i = 0; i < retry; ++i)
        bound *= policy.backoff_factor;
    if (bound <= 0.0)
        return 0.0;
    // One independent stream per (job, retry): the delay depends on
    // the seed and the job's position only, never on wall-clock or on
    // what other jobs did — rerunning a sweep replays the same
    // backoffs.
    Rng rng(policy.backoff_seed ^
            (0x9e3779b97f4a7c15ull * (static_cast<uint64_t>(job) + 1)) ^
            (0xbf58476d1ce4e5b9ull * (static_cast<uint64_t>(retry) + 1)));
    return rng.uniform(0.0, bound);
}

// ---------------------------------------------------------------- //
// JobContext

void
JobContext::start(double deadline_ms)
{
    deadline_ms_ = deadline_ms;
    start_ = detail::SupervisorClock::now();
}

double
JobContext::elapsedMs() const
{
    return detail::millisSince(start_);
}

bool
JobContext::shouldAbort()
{
    if (abort_.load(std::memory_order_acquire))
        return true;
    if (deadline_ms_ > 0.0 && elapsedMs() > deadline_ms_) {
        // Self-service deadline: at pool size 1 the attempt runs
        // inline on the monitor thread, so nobody else can flag the
        // overrun. The flag is one-way, exactly as a monitor abort.
        abort_.store(true, std::memory_order_release);
        return true;
    }
    return false;
}

bool
JobContext::pulse()
{
    heartbeats_.fetch_add(1, std::memory_order_relaxed);
    if (FaultInjector::active() &&
        FaultInjector::instance().fireCallFault(FaultSite::Stall)) {
        // Simulated hang: park until aborted — by the watchdog, or
        // by the self-deadline check where no monitor can run. The
        // sleep keeps the parked worker off the CPU; it publishes no
        // further heartbeats, exactly like a genuinely wedged shard.
        while (!shouldAbort())
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        return false;
    }
    return !shouldAbort();
}

} // namespace exec
} // namespace nanobus
