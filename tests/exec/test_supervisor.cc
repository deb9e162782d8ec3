/**
 * @file
 * Supervisor tests: ordered degraded-mode reports (also when shards
 * finish in inverted order), bit-identical results across pool
 * sizes, deterministic retry/backoff on injected transient I/O
 * faults, quarantine of permanent failures (including a trace whose
 * error budget runs out) and exhausted retry budgets, the
 * thermal-fault probe on an injected RK4 failure, and
 * the Stall-driven heartbeat watchdog (including the pool-size-1
 * self-deadline escape).
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "sim/sweep.hh"
#include "exec/thread_pool.hh"
#include "trace/io.hh"
#include "util/faultinject.hh"
#include "util/logging.hh"
#include "temp_path.hh"

namespace nanobus {
namespace {

const TechnologyNode &tech130 = itrsNode(ItrsNode::Nm130);

BusSimConfig
sweepConfig(unsigned data_width = 16)
{
    BusSimConfig config;
    config.scheme = EncodingScheme::BusInvert;
    config.data_width = data_width;
    config.interval_cycles = 500;
    config.thermal.stack_mode = StackMode::None;
    config.record_samples = false;
    return config;
}

/** Bitwise equality of the energy numbers two sweeps reported. */
void
expectSameEnergies(const SweepReport &a, const SweepReport &b)
{
    EXPECT_EQ(a.records, b.records);
    EXPECT_EQ(a.instruction_energy.self.raw(),
              b.instruction_energy.self.raw());
    EXPECT_EQ(a.instruction_energy.coupling.raw(),
              b.instruction_energy.coupling.raw());
    EXPECT_EQ(a.data_energy.self.raw(), b.data_energy.self.raw());
    EXPECT_EQ(a.data_energy.coupling.raw(),
              b.data_energy.coupling.raw());
}

class SupervisorTest : public ::testing::Test
{
  protected:
    std::string path_ = test::uniqueTempPath("supervisor_trace.txt");

    void SetUp() override
    {
        FaultInjector::instance().reset();
        TraceWriter writer(path_);
        for (uint64_t c = 0; c < 1200; ++c) {
            AccessKind kind = (c & 1)
                ? AccessKind::Load
                : AccessKind::InstructionFetch;
            uint32_t address =
                (c & 2) ? 0xffffffffu : 0x00000000u;
            writer.write({c, address, kind});
        }
        writer.flush();
    }

    void TearDown() override
    {
        FaultInjector::instance().reset();
        std::remove(path_.c_str());
    }

    std::vector<exec::SupervisedJob> makeJobs(size_t n)
    {
        std::vector<exec::SupervisedJob> jobs;
        for (size_t i = 0; i < n; ++i)
            jobs.push_back(supervisedTraceSweepJob(
                "shard" + std::to_string(i), path_, tech130,
                sweepConfig(static_cast<unsigned>(8 + 8 * i))));
        return jobs;
    }
};

TEST_F(SupervisorTest, CleanBatchAllOkInJobOrder)
{
    exec::ThreadPool pool(4);
    exec::Supervisor supervisor(pool);
    const exec::SupervisedReport sup = supervisor.run(makeJobs(3));
    EXPECT_TRUE(sup.allSucceeded());
    EXPECT_EQ(sup.ok_count, 3u);
    EXPECT_EQ(sup.retried_count, 0u);
    EXPECT_EQ(sup.timed_out_count, 0u);
    EXPECT_EQ(sup.quarantined_count, 0u);
    ASSERT_EQ(sup.reports.size(), 3u);
    ASSERT_EQ(sup.records.size(), 3u);
    for (size_t i = 0; i < 3; ++i) {
        EXPECT_EQ(sup.records[i].outcome, exec::JobOutcome::Ok);
        EXPECT_EQ(sup.records[i].attempts, 1u);
        EXPECT_GE(sup.records[i].heartbeats, 1u);
        EXPECT_TRUE(sup.records[i].backoff_ms.empty());
        EXPECT_EQ(sup.reports[i].records, 1200u);
        EXPECT_TRUE(sup.reports[i].completed);
    }
    EXPECT_EQ(sup.exec.threads, 4u);
    EXPECT_GE(sup.exec.tasks_run, 3u);
}

TEST_F(SupervisorTest, CollectsReportsInJobOrder)
{
    // Shards finish in inverted order (earlier jobs sleep longer);
    // reports must still land by index.
    exec::ThreadPool pool(4);
    exec::Supervisor supervisor(pool);
    std::vector<exec::SupervisedJob> jobs;
    for (size_t i = 0; i < 6; ++i) {
        jobs.push_back({"job" + std::to_string(i),
                        [i](exec::JobContext &) -> Result<SweepReport> {
                            std::this_thread::sleep_for(
                                std::chrono::milliseconds(
                                    (6 - i) * 3));
                            SweepReport r;
                            r.records = i * 10;
                            r.completed = true;
                            return r;
                        }});
    }

    const exec::SupervisedReport sup = supervisor.run(jobs);
    ASSERT_EQ(sup.reports.size(), jobs.size());
    EXPECT_EQ(sup.ok_count, jobs.size());
    for (size_t i = 0; i < jobs.size(); ++i) {
        EXPECT_EQ(sup.reports[i].records, i * 10);
        EXPECT_EQ(sup.reports[i].exec.threads, 4u);
        EXPECT_GE(sup.reports[i].exec.wall_ms, 0.0);
    }
    EXPECT_EQ(sup.exec.threads, 4u);
    EXPECT_GE(sup.exec.tasks_run, jobs.size());
}

TEST_F(SupervisorTest, ReportsBitIdenticalAcrossPoolSizes)
{
    // Acceptance pin: for jobs that succeed, supervised results are
    // bit-identical at every pool size.
    std::vector<exec::SupervisedReport> runs;
    for (unsigned pool_size :
         {1u, 2u, exec::ThreadPool::defaultThreads()}) {
        exec::ThreadPool pool(pool_size);
        exec::Supervisor supervisor(pool);
        exec::SupervisedReport run = supervisor.run(makeJobs(4));
        ASSERT_TRUE(run.allSucceeded())
            << "pool=" << pool_size;
        runs.push_back(std::move(run));
    }
    for (size_t r = 1; r < runs.size(); ++r)
        for (size_t i = 0; i < runs[0].reports.size(); ++i)
            expectSameEnergies(runs[0].reports[i],
                               runs[r].reports[i]);
}

TEST_F(SupervisorTest, TransientIoRetriesToSuccess)
{
    // Acceptance pin: one injected transient I/O fault on a shard
    // retries to success with a deterministic backoff, and the
    // retried result matches the clean run bit-for-bit.
    exec::ThreadPool pool(2);
    exec::Supervisor supervisor(pool);
    const exec::SupervisedReport clean = supervisor.run(makeJobs(1));
    ASSERT_EQ(clean.records[0].outcome,
              exec::JobOutcome::Ok);

    FaultInjector::instance().armCallFault(FaultSite::TransientIo, 1);
    const exec::SupervisedReport sup = supervisor.run(makeJobs(1));
    FaultInjector::instance().reset();
    EXPECT_TRUE(sup.allSucceeded());
    EXPECT_EQ(sup.retried_count, 1u);
    ASSERT_EQ(sup.records[0].outcome, exec::JobOutcome::Retried);
    EXPECT_EQ(sup.records[0].attempts, 2u);
    ASSERT_EQ(sup.records[0].backoff_ms.size(), 1u);
    // The backoff applied is exactly the pure-function delay for
    // (job 0, retry 0) — no wall-clock in the decision path.
    EXPECT_EQ(sup.records[0].backoff_ms[0],
              exec::retryDelayMs(exec::Supervisor::Options{}, 0, 0));
    expectSameEnergies(clean.reports[0], sup.reports[0]);
}

TEST_F(SupervisorTest, ExhaustedRetryBudgetQuarantines)
{
    // Every batch fill fails: the job burns 1 + max_retries attempts
    // and lands in quarantine with the transient error preserved.
    exec::ThreadPool pool(2);
    exec::Supervisor::Options options;
    options.max_retries = 2;
    exec::Supervisor supervisor(pool, options);

    FaultInjector::instance().armCallFault(FaultSite::TransientIo, 1,
                                           1);
    const exec::SupervisedReport sup = supervisor.run(makeJobs(1));
    FaultInjector::instance().reset();
    EXPECT_FALSE(sup.allSucceeded());
    EXPECT_EQ(sup.quarantined_count, 1u);
    ASSERT_EQ(sup.records[0].outcome,
              exec::JobOutcome::Quarantined);
    EXPECT_EQ(sup.records[0].attempts, 3u);
    EXPECT_EQ(sup.records[0].backoff_ms.size(), 2u);
    EXPECT_EQ(sup.records[0].error.code, ErrorCode::IoError);
    ASSERT_EQ(sup.quarantined.size(), 1u);
    EXPECT_EQ(sup.quarantined[0], "shard0");
}

TEST_F(SupervisorTest, PermanentErrorQuarantinesWithoutRetry)
{
    exec::ThreadPool pool(2);
    exec::Supervisor supervisor(pool);
    std::vector<exec::SupervisedJob> jobs;
    jobs.push_back(
        {"broken", [](exec::JobContext &ctx) -> Result<SweepReport> {
             (void)ctx.pulse();
             return Result<SweepReport>::failure(
                 ErrorCode::ParseError, "structurally damaged");
         }});
    jobs.push_back(makeJobs(1)[0]);

    const exec::SupervisedReport sup = supervisor.run(jobs);
    EXPECT_EQ(sup.quarantined_count, 1u);
    EXPECT_EQ(sup.ok_count, 1u);
    EXPECT_EQ(sup.records[0].outcome, exec::JobOutcome::Quarantined);
    // Permanent faults never retry.
    EXPECT_EQ(sup.records[0].attempts, 1u);
    EXPECT_EQ(sup.records[0].error.code, ErrorCode::ParseError);
    EXPECT_EQ(sup.records[1].outcome, exec::JobOutcome::Ok);
}

TEST_F(SupervisorTest, ExhaustedTraceBudgetQuarantinesWithoutRetry)
{
    // A trace that is mostly garbage exhausts the reader's error
    // budget. That is a property of the input, not I/O flakiness:
    // the job ends Quarantined with ParseError after one attempt
    // instead of burning its retries on an identical re-read.
    const std::string garbage_path =
        test::uniqueTempPath("supervisor_garbage.txt");
    {
        std::ofstream out(garbage_path);
        for (int i = 0; i < 50; ++i)
            out << "complete garbage line " << i << "\n";
    }
    RobustSweepOptions sweep_options;
    sweep_options.trace_error_budget = 5;

    exec::ThreadPool pool(2);
    exec::Supervisor::Options options;
    options.max_retries = 2;
    exec::Supervisor supervisor(pool, options);
    setAbortOnError(false);
    const exec::SupervisedReport sup = supervisor.run(
        {supervisedTraceSweepJob("garbage", garbage_path, tech130,
                                 sweepConfig(), sweep_options)});
    setAbortOnError(true);
    std::remove(garbage_path.c_str());

    EXPECT_EQ(sup.quarantined_count, 1u);
    ASSERT_EQ(sup.records[0].outcome, exec::JobOutcome::Quarantined);
    EXPECT_EQ(sup.records[0].attempts, 1u);
    EXPECT_TRUE(sup.records[0].backoff_ms.empty());
    EXPECT_EQ(sup.records[0].error.code, ErrorCode::ParseError);
}

TEST_F(SupervisorTest, ThermalFaultProbeQuarantinesInjectedRk4Fault)
{
    // An injected NaN RK4 step, with step-halving retries disabled,
    // leaves a contained ThermalFault in the report; the probe turns
    // it into a permanent ThermalRunaway failure, so the job is
    // quarantined after exactly one attempt. The trigger repeats, so
    // every interval close of the shard is hit.
    BusSimConfig config = sweepConfig();
    config.thermal.solver = ThermalSolver::Rk4; // halving disabled below
    config.thermal.max_integration_retries = 0;

    exec::ThreadPool pool(4);
    exec::Supervisor::Options options;
    options.fault_probe = thermalFaultProbe();
    exec::Supervisor supervisor(pool, options);

    FaultInjector::instance().armCallFault(FaultSite::IntegrationStep, 1, 1);
    const exec::SupervisedReport sup = supervisor.run(
        {supervisedTraceSweepJob("shard0", path_, tech130, config)});
    FaultInjector::instance().reset();
    EXPECT_EQ(sup.quarantined_count, 1u);
    ASSERT_EQ(sup.records[0].outcome, exec::JobOutcome::Quarantined);
    EXPECT_EQ(sup.records[0].attempts, 1u);
    EXPECT_EQ(sup.records[0].error.code, ErrorCode::ThermalRunaway);

    // The pool survived the failed job: a clean follow-up batch
    // completes (this would hang on a leaked task or a dead worker).
    const exec::SupervisedReport clean = supervisor.run(makeJobs(1));
    EXPECT_TRUE(clean.allSucceeded());
    EXPECT_TRUE(clean.reports[0].completed);
}

TEST_F(SupervisorTest, ContainedFaultsDoNotFailJobWithoutProbe)
{
    // No probe: contained thermal faults degrade fidelity and stay
    // visible in the job's report, but the job ends Ok.
    BusSimConfig config = sweepConfig();
    config.thermal.solver = ThermalSolver::Rk4; // halving disabled below
    config.thermal.max_integration_retries = 0;

    exec::ThreadPool pool(2);
    exec::Supervisor supervisor(pool);
    FaultInjector::instance().armCallFault(FaultSite::IntegrationStep, 1, 1);
    const exec::SupervisedReport run = supervisor.run(
        {supervisedTraceSweepJob("tolerant", path_, tech130, config)});
    FaultInjector::instance().reset();
    EXPECT_EQ(run.records[0].outcome, exec::JobOutcome::Ok);
    const SweepReport &report = run.reports[0];
    EXPECT_TRUE(report.completed);
    EXPECT_GT(report.instruction_faults.size() +
                  report.data_faults.size(),
              0u);
}

TEST_F(SupervisorTest, StallTimesOutWhileOtherShardsComplete)
{
    // Acceptance pin: an injected Stall hangs exactly one shard; the
    // watchdog times it out, the report marks it TimedOut, and the
    // other shards complete with results identical to a clean run.
    exec::ThreadPool pool(2);
    exec::Supervisor clean_supervisor(pool);
    const exec::SupervisedReport clean =
        clean_supervisor.run(makeJobs(3));
    ASSERT_TRUE(clean.allSucceeded());

    exec::Supervisor::Options options;
    options.deadline_ms = 400.0;
    exec::Supervisor supervisor(pool, options);
    FaultInjector::instance().armCallFault(FaultSite::Stall, 1);
    const exec::SupervisedReport sup = supervisor.run(makeJobs(3));
    FaultInjector::instance().reset();
    EXPECT_EQ(sup.timed_out_count, 1u);
    EXPECT_EQ(sup.ok_count, 2u);
    EXPECT_EQ(sup.quarantined_count, 0u);
    for (size_t i = 0; i < 3; ++i) {
        const exec::JobRecord &record = sup.records[i];
        if (record.outcome == exec::JobOutcome::TimedOut) {
            // The stalled attempt published its first heartbeat and
            // then froze; the deadline overrun is permanent.
            EXPECT_EQ(record.attempts, 1u);
            EXPECT_EQ(record.error.code, ErrorCode::BudgetExhausted);
            EXPECT_NE(record.error.message.find("deadline"),
                      std::string::npos);
        } else {
            EXPECT_EQ(record.outcome, exec::JobOutcome::Ok);
            expectSameEnergies(clean.reports[i],
                               sup.reports[i]);
        }
    }
}

TEST_F(SupervisorTest, StallEscapesViaSelfDeadlineAtPoolSizeOne)
{
    // At pool size 1 the attempt runs inline on the monitor thread —
    // no concurrent watchdog exists, so pulse()'s self-deadline check
    // is the only way out of the injected hang.
    exec::ThreadPool pool(1);
    exec::Supervisor::Options options;
    options.deadline_ms = 100.0;
    exec::Supervisor supervisor(pool, options);
    FaultInjector::instance().armCallFault(FaultSite::Stall, 1);
    const exec::SupervisedReport run = supervisor.run(makeJobs(1));
    FaultInjector::instance().reset();
    EXPECT_EQ(run.records[0].outcome,
              exec::JobOutcome::TimedOut);
    EXPECT_EQ(run.timed_out_count, 1u);
}

TEST_F(SupervisorTest, RetryDelayIsPureAndBounded)
{
    exec::Supervisor::Options options;
    options.backoff_base_ms = 2.0;
    options.backoff_factor = 3.0;
    for (size_t job = 0; job < 4; ++job) {
        double bound = options.backoff_base_ms;
        for (unsigned retry = 0; retry < 4; ++retry) {
            const double delay =
                exec::retryDelayMs(options, job, retry);
            EXPECT_EQ(delay, exec::retryDelayMs(options, job, retry));
            EXPECT_GE(delay, 0.0);
            EXPECT_LT(delay, bound);
            bound *= options.backoff_factor;
        }
    }
    // A different seed draws different delays.
    exec::Supervisor::Options reseeded = options;
    reseeded.backoff_seed ^= 0x1234abcdull;
    EXPECT_NE(exec::retryDelayMs(options, 0, 1),
              exec::retryDelayMs(reseeded, 0, 1));
}

TEST_F(SupervisorTest, EmptyBatchSucceeds)
{
    exec::ThreadPool pool(2);
    const exec::SupervisedReport run =
        exec::Supervisor(pool).run({});
    EXPECT_TRUE(run.allSucceeded());
    EXPECT_TRUE(run.reports.empty());
}

} // anonymous namespace
} // namespace nanobus
