/**
 * @file
 * Deterministic fault-injection harness for the solver stack.
 *
 * Robustness claims are only as good as their tests: every recovery
 * path (LU singularity handling, thermal non-finite containment,
 * trace-line skipping) must be provably reachable and provably
 * recovering. The FaultInjector lets tests arm faults that fire at
 * exact, reproducible points:
 *
 *  - force a solver failure on the Nth call to a given site
 *    (LuFactorization::tryFactor/trySolve, thermal integration
 *    steps);
 *  - flip a bit in the Nth raw trace line read by TraceReader;
 *  - deterministically perturb matrix entries (seeded xoshiro).
 *
 * The instrumented production code pays a single relaxed atomic load
 * when no fault is armed. The harness is process-global and
 * thread-safe: armed-trigger state and counters are guarded by a
 * mutex so faults can be injected into sweeps running on the
 * src/exec thread pool (arming *while* instrumented code runs is
 * still a test-sequencing error — arm before, read counters after).
 */

#ifndef NANOBUS_UTIL_FAULTINJECT_HH
#define NANOBUS_UTIL_FAULTINJECT_HH

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>

namespace nanobus {

/** Instrumented points where a call fault can be armed. */
enum class FaultSite : unsigned {
    /** LuFactorization::tryFactor. */
    LuFactor = 0,
    /** LuFactorization::trySolve. */
    LuSolve,
    /** One thermal integration step: each RK4 step inside
     *  Rk4Solver::integrateChecked, and each modal interval update
     *  of ThermalNetwork. Firing poisons the step's result. */
    IntegrationStep,
    /** One raw line read by TraceReader::next. */
    TraceLine,
    /**
     * One batch fill by BatchReader/PrefetchReader. Firing throws a
     * transient I/O failure out of the fill, which the batch layer
     * latches as ErrorCode::IoError — the deterministic stand-in for
     * a flaky filesystem that exercises the supervisor's retry path.
     */
    TransientIo,
    /**
     * One exec::JobContext::pulse() heartbeat. Firing parks the
     * worker in a sleep loop until the job is aborted (by the
     * supervisor's watchdog or its own deadline) — the deterministic
     * stand-in for a hung worker, with no timing flakes.
     */
    Stall,
};

/** Number of distinct fault sites. */
constexpr unsigned kNumFaultSites = 6;

/** Process-global deterministic fault injector. */
class FaultInjector
{
  public:
    /** The global injector instance. */
    static FaultInjector &instance();

    /**
     * True when any fault is armed. Instrumented code checks this
     * first so the disarmed hot path costs one predictable branch
     * (a relaxed atomic load; the armed path takes the mutex).
     */
    static bool active()
    {
        return active_.load(std::memory_order_relaxed);
    }

    /** Disarm every fault and zero all counters. */
    void reset();

    /**
     * Arm a failure at `site`: the trigger fires on the `nth` call
     * (1-based) after arming, and — when `repeat_every` > 0 — again
     * every `repeat_every` calls after that.
     */
    void armCallFault(FaultSite site, uint64_t nth,
                      uint64_t repeat_every = 0);

    /**
     * Arm trace-line corruption with the same cadence semantics as
     * armCallFault; fired lines get one character bit-flipped.
     */
    void armTraceCorruption(uint64_t nth_line,
                            uint64_t repeat_every = 0);

    /**
     * Called by instrumented code: count one call at `site` and
     * return true when the armed trigger fires.
     */
    bool fireCallFault(FaultSite site);

    /**
     * Called by TraceReader for every raw line: when the TraceLine
     * trigger fires, XOR bit 6 of the first character of `line`
     * (deterministically turning a well-formed record into a
     * malformed one) and return true.
     */
    bool corruptLine(std::string &line);

    /** Calls observed at `site` since the last reset. */
    uint64_t callCount(FaultSite site) const;

    /** Faults actually fired at `site` since the last reset. */
    uint64_t firedCount(FaultSite site) const;

    /**
     * Deterministically perturb `count` doubles in place: each value
     * gains an additive error uniform in [-magnitude, +magnitude]
     * scaled by the largest |value| in the array. Same seed, same
     * perturbation — suitable for constructing reproducibly
     * ill-conditioned or asymmetric matrices in tests.
     */
    static void perturbEntries(double *values, size_t count,
                               double relative_magnitude,
                               uint64_t seed);

  private:
    FaultInjector() = default;

    struct Trigger
    {
        bool armed = false;
        uint64_t nth = 0;
        uint64_t repeat = 0;
        uint64_t calls = 0;
        uint64_t fired = 0;
    };

    Trigger &trigger(FaultSite site);
    const Trigger &trigger(FaultSite site) const;
    void refreshActive();

    /** Guards triggers_; counters race without it once instrumented
     *  code runs on the exec thread pool. */
    mutable std::mutex mutex_;
    Trigger triggers_[kNumFaultSites];
    static std::atomic<bool> active_;
};

} // namespace nanobus

#endif // NANOBUS_UTIL_FAULTINJECT_HH
