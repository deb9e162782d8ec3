/**
 * @file
 * BasicSupervisor — fault-tolerant execution of independent job
 * batches on a ThreadPool (docs/ROBUSTNESS.md, "Supervision &
 * retry"; docs/PARALLELISM.md, "Supervised sweeps").
 *
 * The paper's evaluation is a cross-product — technology nodes ×
 * encoding schemes × traces × configurations — and every cell is an
 * independent job: it owns its simulators, shares nothing mutable,
 * and produces one report. The supervisor runs a vector of such jobs
 * and drives every one to a final outcome, so one flaky filesystem
 * read or one hung worker never discards the finished shards:
 *
 *  - *Ordered collection.* reports[i] and records[i] belong to job
 *    i, whatever order the shards actually ran in.
 *  - *Fault taxonomy.* A shard Error is classified by its ErrorCode:
 *    IoError is transient (a retry against the reopened source can
 *    succeed); everything else — contract violations, parse errors,
 *    thermal runaway — is permanent and quarantines the job.
 *  - *Bounded retry with deterministic backoff.* Transient failures
 *    are retried up to Options::max_retries times. The backoff delay
 *    for (job, attempt) is a pure function of the seeded Rng stream —
 *    no wall-clock feeds the decision path, so which jobs retry, how
 *    often, and with what delays is reproducible run over run.
 *  - *Deadlines and the heartbeat watchdog.* Job bodies receive a
 *    JobContext and call pulse() at natural progress points. The
 *    monitor (the calling thread, which also drains the pool) aborts
 *    any attempt that outlives Options::deadline_ms; the attempt
 *    observes the abort at its next pulse() and returns. A pulse()
 *    also self-checks the deadline, so a stalled job times out even
 *    at pool size 1 where no monitor can run concurrently. Deadline
 *    overruns are permanent (outcome TimedOut): a stalled shard is
 *    not I/O flakiness.
 *  - *Degraded-mode report.* The batch returns per-job records (Ok /
 *    Retried / TimedOut / Quarantined), the quarantine list, outcome
 *    tallies, and the pool counters and wall-clock of the batch.
 *
 * The supervisor is generic over the `Report` payload so this header
 * depends only on the execution layer (docs/STATIC_ANALYSIS.md,
 * layering DAG): `Report` must be default-constructible, movable,
 * and expose an ExecStats `exec` member the supervisor stamps with
 * the pool size and wall-clock. The simulation instantiation and
 * its job builders live in src/sim/sweep.hh.
 *
 * Determinism: reports are collected by job index, and a job's
 * result is produced by its (isolated) body alone — for jobs that
 * succeed, the reports are bit-identical at every pool size. Timing
 * decides only *scheduling* (and, with deadlines armed, whether a
 * genuinely slow shard times out); tests drive the timeout path
 * deterministically with the injected FaultSite::Stall hang.
 *
 * Jobs must not touch process-global mutable state; the library's
 * own globals (FaultInjector, the logging sinks) are thread-safe.
 */

#ifndef NANOBUS_EXEC_SUPERVISOR_HH
#define NANOBUS_EXEC_SUPERVISOR_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "exec/stats.hh"
#include "exec/thread_pool.hh"
#include "util/result.hh"

namespace nanobus {
namespace exec {

namespace detail {

/** Steady clock of the deadline watchdog and the wall_ms report
 *  fields. Wall-clock never feeds a retry or collection decision
 *  (nbcheck rule det-wallclock; this header is an allowlisted
 *  timing site). */
using SupervisorClock = std::chrono::steady_clock;

inline double
millisSince(SupervisorClock::time_point start)
{
    return std::chrono::duration<double, std::milli>(
               SupervisorClock::now() - start)
        .count();
}

} // namespace detail

/** Final state of one supervised job. */
enum class JobOutcome {
    /** Succeeded on the first attempt. */
    Ok,
    /** Succeeded after one or more transient-fault retries. */
    Retried,
    /** An attempt outlived its deadline and was aborted. */
    TimedOut,
    /** Failed permanently (or exhausted its retry budget). */
    Quarantined,
};

/** Readable name of a job outcome. */
const char *jobOutcomeName(JobOutcome outcome);

/** Knobs of the supervision policy that do not depend on the report
 *  payload. BasicSupervisor<Report>::Options extends this with the
 *  typed fault probe. */
struct SupervisorPolicy
{
    /** Retry attempts after the first, per job, for transient
     *  faults. */
    unsigned max_retries = 2;
    /** First retry's backoff upper bound [ms]; the delay is drawn
     *  uniformly from [0, base * factor^retry). 0 retries
     *  immediately. */
    double backoff_base_ms = 1.0;
    /** Exponential growth factor per retry. */
    double backoff_factor = 2.0;
    /** Seed of the backoff stream; same seed, same delays. */
    uint64_t backoff_seed = 0x6e62757353757056ull;
    /** Per-attempt deadline [ms]; 0 disables the watchdog. */
    double deadline_ms = 0.0;
    /** Monitor sleep when the pool has nothing to drain [ms]. */
    double watchdog_poll_ms = 1.0;
};

/**
 * Backoff delay [ms] before retry `retry` (0-based) of job `job`:
 * uniform in [0, base * factor^retry), drawn from an Rng seeded by
 * (seed, job, retry) only. A pure function — no wall-clock, no
 * cross-job state.
 */
double retryDelayMs(const SupervisorPolicy &policy, size_t job,
                    unsigned retry);

/** True when `code` is worth retrying (transient fault). */
inline bool
transientError(ErrorCode code)
{
    return code == ErrorCode::IoError;
}

/**
 * Classifies a contained anomaly inside an otherwise-successful
 * report as a shard failure. Returning an engaged optional fails the
 * shard with that Error; disengaged accepts the report. The probe
 * must be a pure function of the report.
 */
template <class Report>
using ReportFaultProbe =
    std::function<std::optional<Error>(const Report &)>;

/**
 * Per-attempt liveness channel between a supervised job body and the
 * watchdog. Bodies call pulse() at natural progress points (per
 * sweep, per batch); the supervisor reads the published heartbeat
 * counter and flags the abort when the attempt outlives its
 * deadline. All members are atomics: pulse() runs on the worker,
 * the monitor on the calling thread.
 */
class JobContext
{
  public:
    JobContext() = default;
    JobContext(const JobContext &) = delete;
    JobContext &operator=(const JobContext &) = delete;

    /**
     * Publish one heartbeat and poll for cancellation. Returns false
     * once the supervisor has aborted this attempt (deadline
     * exceeded) — the body should return promptly with any Error;
     * the attempt's result is discarded either way.
     *
     * Also services FaultSite::Stall: a firing injection parks the
     * call in a sleep loop until the attempt is aborted, which is
     * how tests simulate a hung worker without timing flakes.
     */
    [[nodiscard]] bool pulse();

    /** Heartbeats published so far (monitor-side observability). */
    uint64_t heartbeats() const
    {
        return heartbeats_.load(std::memory_order_relaxed);
    }

    /** True once the attempt has been told to stop. */
    bool aborted() const
    {
        return abort_.load(std::memory_order_acquire);
    }

  private:
    template <class Report>
    friend class BasicSupervisor;

    /** Arm the deadline clock; called once before the attempt runs. */
    void start(double deadline_ms);

    /** Tell the attempt to stop (idempotent). */
    void abort() { abort_.store(true, std::memory_order_release); }

    /** Milliseconds since start(). */
    double elapsedMs() const;

    /** aborted(), plus the self-deadline check that lets a stalled
     *  attempt escape with no monitor running (pool size 1). */
    bool shouldAbort();

    std::atomic<uint64_t> heartbeats_{0};
    std::atomic<bool> abort_{false};
    detail::SupervisorClock::time_point start_{};
    double deadline_ms_ = 0.0;
};

/** One supervised shard: an independent job whose body sees its
 *  JobContext. */
template <class Report>
struct BasicSupervisedJob
{
    /** Shard label for logs, JSON output, and error messages. */
    std::string label;
    /**
     * The shard body. May run several times (one per attempt), each
     * time with a fresh JobContext; every attempt must construct its
     * own simulators and sources from scratch, which is what makes
     * retry sound.
     */
    std::function<Result<Report>(JobContext &)> body;
};

/** Outcome record of one supervised job. */
struct JobRecord
{
    /** Final state. */
    JobOutcome outcome = JobOutcome::Ok;
    /** Attempts consumed (>= 1 for every job that ran). */
    unsigned attempts = 0;
    /** Heartbeats the final attempt published. */
    uint64_t heartbeats = 0;
    /** Backoff delays applied before each retry [ms]. */
    std::vector<double> backoff_ms;
    /** Final error (TimedOut and Quarantined outcomes). */
    Error error;
};

/** Degraded-mode outcome of a supervised batch. */
template <class Report>
struct BasicSupervisedReport
{
    /** reports[i] belongs to jobs[i]; meaningful only when
     *  records[i] ended Ok or Retried (default-constructed
     *  otherwise). */
    std::vector<Report> reports;
    /** records[i] is job i's outcome record; always full-size. */
    std::vector<JobRecord> records;
    /** Labels of quarantined jobs, in job order. */
    std::vector<std::string> quarantined;
    /** Outcome tallies (sum equals the job count). */
    size_t ok_count = 0;
    size_t retried_count = 0;
    size_t timed_out_count = 0;
    size_t quarantined_count = 0;
    /** Batch-wide execution counters (pool deltas + wall time). */
    ExecStats exec;

    /** True when every job ended Ok or Retried. */
    bool allSucceeded() const
    {
        return timed_out_count == 0 && quarantined_count == 0;
    }
};

/** Supervised execution of job batches on a ThreadPool. */
template <class Report>
class BasicSupervisor
{
  public:
    using Job = BasicSupervisedJob<Report>;
    using Batch = BasicSupervisedReport<Report>;

    struct Options : SupervisorPolicy
    {
        /** Optional report rejection hook applied to successful
         *  attempts (e.g. the thermal-fault probe sim/sweep.hh
         *  installs); a rejected report is a *permanent* shard
         *  failure. Null accepts every report. */
        ReportFaultProbe<Report> fault_probe;
    };

    explicit BasicSupervisor(ThreadPool &pool)
        : BasicSupervisor(pool, Options{})
    {
    }

    BasicSupervisor(ThreadPool &pool, Options options)
        : pool_(pool), options_(std::move(options))
    {
    }

    /**
     * Run every job under supervision; blocks until each has a final
     * outcome (the calling thread is the monitor and also drains
     * pool tasks). Job failures land in the batch's records.
     */
    Batch run(const std::vector<Job> &jobs) const
    {
        using Clock = detail::SupervisorClock;
        const auto t_start = Clock::now();
        const ExecCounters before = pool_.counters();
        const size_t n = jobs.size();

        Batch sup;
        sup.reports.resize(n);
        sup.records.resize(n);

        // Per-job supervision state. Only `attempt_done` (and the
        // JobContext atomics) cross threads: the worker writes the
        // attempt's result fields, then stores attempt_done with
        // release order; the monitor reads it with acquire before
        // touching anything else. Everything else is
        // monitor-private.
        struct Slot
        {
            std::unique_ptr<JobContext> context;
            std::atomic<bool> attempt_done{false};
            std::optional<Error> error;
            std::optional<Report> report;
            unsigned attempts = 0;
            bool running = false;
            bool waiting = false;
            bool finalized = false;
            typename Clock::time_point not_before{};
            std::vector<double> backoff_ms;
        };
        std::vector<Slot> slots(n);
        size_t finalized = 0;

        auto startAttempt = [&](size_t i) {
            Slot &slot = slots[i];
            slot.waiting = false;
            slot.running = true;
            slot.error.reset();
            slot.report.reset();
            slot.attempt_done.store(false, std::memory_order_relaxed);
            slot.context = std::make_unique<JobContext>();
            slot.context->start(options_.deadline_ms);
            ++slot.attempts;
            JobContext *context = slot.context.get();
            pool_.submit([&jobs, &slots, i, context] {
                Slot &s = slots[i];
                Result<Report> result = jobs[i].body(*context);
                if (result.ok())
                    s.report = result.takeValue();
                else
                    s.error = result.error();
                s.attempt_done.store(true, std::memory_order_release);
            });
        };

        auto finalize = [&](size_t i, JobOutcome outcome,
                            Error error) {
            Slot &slot = slots[i];
            JobRecord &record = sup.records[i];
            record.outcome = outcome;
            record.error = std::move(error);
            slot.finalized = true;
            ++finalized;
        };

        // Classify a completed attempt: collect the report, schedule
        // a backoff retry, or finalize the job. Monitor-thread only.
        auto collect = [&](size_t i) {
            Slot &slot = slots[i];
            slot.running = false;
            JobRecord &record = sup.records[i];
            record.attempts = slot.attempts;
            record.heartbeats = slot.context->heartbeats();
            record.backoff_ms = slot.backoff_ms;

            if (slot.context->aborted()) {
                // Deadline overrun is permanent: a stalled shard is
                // not I/O flakiness, and its partial work is
                // untrusted.
                finalize(
                    i, JobOutcome::TimedOut,
                    Error{ErrorCode::BudgetExhausted,
                          "deadline of " +
                              std::to_string(options_.deadline_ms) +
                              " ms exceeded after " +
                              std::to_string(record.heartbeats) +
                              " heartbeats"});
                return;
            }
            if (slot.report && options_.fault_probe) {
                std::optional<Error> rejected =
                    options_.fault_probe(*slot.report);
                if (rejected) {
                    slot.error = std::move(*rejected);
                    slot.report.reset();
                }
            }
            if (slot.report) {
                slot.report->exec.threads = pool_.size();
                slot.report->exec.wall_ms = slot.context->elapsedMs();
                sup.reports[i] = std::move(*slot.report);
                finalize(i,
                         slot.attempts > 1 ? JobOutcome::Retried
                                           : JobOutcome::Ok,
                         Error{});
                return;
            }

            const Error &error = *slot.error;
            const unsigned retries_used = slot.attempts - 1;
            if (transientError(error.code) &&
                retries_used < options_.max_retries) {
                const double delay =
                    retryDelayMs(options_, i, retries_used);
                slot.backoff_ms.push_back(delay);
                slot.waiting = true;
                slot.not_before =
                    Clock::now() +
                    std::chrono::duration_cast<
                        typename Clock::duration>(
                        std::chrono::duration<double, std::milli>(
                            delay));
                return;
            }
            finalize(i, JobOutcome::Quarantined, error);
        };

        for (size_t i = 0; i < n; ++i)
            startAttempt(i);

        // The monitor loop: the calling thread collects finished
        // attempts, flags deadline overruns, launches due retries,
        // and drains pool tasks in between (so it contributes work
        // instead of idling — and so size-1 pools make progress at
        // all).
        while (finalized < n) {
            bool progressed = false;
            for (size_t i = 0; i < n; ++i) {
                Slot &slot = slots[i];
                if (slot.finalized)
                    continue;
                if (slot.running) {
                    if (slot.attempt_done.load(
                            std::memory_order_acquire)) {
                        collect(i);
                        progressed = true;
                    } else if (options_.deadline_ms > 0.0 &&
                               !slot.context->aborted() &&
                               slot.context->elapsedMs() >
                                   options_.deadline_ms) {
                        // Watchdog: the attempt observes the abort at
                        // its next pulse() and returns; collect()
                        // classifies it TimedOut once it does.
                        slot.context->abort();
                    }
                } else if (slot.waiting &&
                           Clock::now() >= slot.not_before) {
                    startAttempt(i);
                    progressed = true;
                }
            }
            if (finalized >= n)
                break;
            if (!progressed && !pool_.tryRunOneTask()) {
                std::this_thread::sleep_for(
                    std::chrono::duration<double, std::milli>(
                        options_.watchdog_poll_ms));
            }
        }

        for (size_t i = 0; i < n; ++i) {
            switch (sup.records[i].outcome) {
              case JobOutcome::Ok:          ++sup.ok_count; break;
              case JobOutcome::Retried:     ++sup.retried_count; break;
              case JobOutcome::TimedOut:    ++sup.timed_out_count;
                break;
              case JobOutcome::Quarantined:
                ++sup.quarantined_count;
                sup.quarantined.push_back(jobs[i].label);
                break;
            }
        }

        const ExecCounters delta = pool_.counters() - before;
        sup.exec.threads = pool_.size();
        sup.exec.tasks_run = delta.tasks_run;
        sup.exec.steals = delta.steals;
        sup.exec.wall_ms = detail::millisSince(t_start);
        return sup;
    }

  private:
    ThreadPool &pool_;
    Options options_;
};

} // namespace exec
} // namespace nanobus

#endif // NANOBUS_EXEC_SUPERVISOR_HH
