/**
 * @file
 * SweepRunner tests: ordered collection, serial/parallel bit
 * equivalence on real trace sweeps, deterministic error surfacing,
 * cancellation of unstarted shards, and the fault-injection path —
 * an injected RK4 failure inside one shard escalates to a batch
 * error (ErrorCode::ThermalRunaway) without deadlocking the pool.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "sim/sweep.hh"
#include "exec/thread_pool.hh"
#include "trace/io.hh"
#include "util/faultinject.hh"
#include "temp_path.hh"

namespace nanobus {
namespace {

const TechnologyNode &tech130 = itrsNode(ItrsNode::Nm130);

BusSimConfig
sweepConfig()
{
    BusSimConfig config;
    config.scheme = EncodingScheme::Unencoded;
    config.data_width = 16;
    config.interval_cycles = 500;
    config.thermal.stack_mode = StackMode::None;
    config.record_samples = false;
    return config;
}

class SweepRunnerTest : public ::testing::Test
{
  protected:
    std::string path_ = test::uniqueTempPath("sweep_runner_trace.txt");

    void SetUp() override { FaultInjector::instance().reset(); }

    void TearDown() override
    {
        FaultInjector::instance().reset();
        std::remove(path_.c_str());
    }

    /** Alternating fetch/load traffic with full-width flips. */
    void writeTrace(uint64_t n)
    {
        TraceWriter writer(path_);
        for (uint64_t c = 0; c < n; ++c) {
            AccessKind kind = (c & 1) ? AccessKind::Load
                                      : AccessKind::InstructionFetch;
            uint32_t address = (c & 2) ? 0xffffffffu : 0x00000000u;
            writer.write({c, address, kind});
        }
        writer.flush();
    }
};

TEST_F(SweepRunnerTest, CollectsReportsInJobOrder)
{
    // Shards finish in inverted order (earlier jobs sleep longer);
    // reports must still land by index.
    exec::ThreadPool pool(4);
    exec::SweepRunner runner(pool);
    std::vector<exec::SweepJob> jobs;
    for (size_t i = 0; i < 6; ++i) {
        jobs.push_back({"job" + std::to_string(i),
                        [i]() -> Result<SweepReport> {
                            std::this_thread::sleep_for(
                                std::chrono::milliseconds(
                                    (6 - i) * 3));
                            SweepReport r;
                            r.records = i * 10;
                            r.completed = true;
                            return r;
                        }});
    }

    Result<exec::BatchReport> batch = runner.run(jobs);
    ASSERT_TRUE(batch.ok());
    ASSERT_EQ(batch.value().reports.size(), jobs.size());
    for (size_t i = 0; i < jobs.size(); ++i) {
        EXPECT_EQ(batch.value().reports[i].records, i * 10);
        EXPECT_EQ(batch.value().reports[i].exec.threads, 4u);
        EXPECT_GE(batch.value().reports[i].exec.wall_ms, 0.0);
    }
    EXPECT_EQ(batch.value().exec.threads, 4u);
    EXPECT_GE(batch.value().exec.tasks_run, jobs.size());
}

TEST_F(SweepRunnerTest, ParallelBatchBitIdenticalToSerial)
{
    writeTrace(1500);
    auto makeJobs = [&] {
        std::vector<exec::SweepJob> jobs;
        for (int width : {8, 16, 24, 32}) {
            BusSimConfig config = sweepConfig();
            config.data_width = static_cast<unsigned>(width);
            jobs.push_back(traceSweepJob(
                "w" + std::to_string(width), path_, tech130, config));
        }
        return jobs;
    };

    exec::ThreadPool serial_pool(1);
    exec::ThreadPool parallel_pool(4);
    Result<exec::BatchReport> serial =
        exec::SweepRunner(serial_pool).run(makeJobs());
    Result<exec::BatchReport> parallel =
        exec::SweepRunner(parallel_pool).run(makeJobs());

    ASSERT_TRUE(serial.ok());
    ASSERT_TRUE(parallel.ok());
    ASSERT_EQ(serial.value().reports.size(),
              parallel.value().reports.size());
    for (size_t i = 0; i < serial.value().reports.size(); ++i) {
        const SweepReport &s = serial.value().reports[i];
        const SweepReport &p = parallel.value().reports[i];
        EXPECT_EQ(s.records, p.records);
        EXPECT_EQ(s.skipped_lines, p.skipped_lines);
        // Energies must match to the last bit, not to a tolerance.
        EXPECT_EQ(s.instruction_energy.self.raw(),
                  p.instruction_energy.self.raw());
        EXPECT_EQ(s.instruction_energy.coupling.raw(),
                  p.instruction_energy.coupling.raw());
        EXPECT_EQ(s.data_energy.self.raw(),
                  p.data_energy.self.raw());
        EXPECT_EQ(s.data_energy.coupling.raw(),
                  p.data_energy.coupling.raw());
        EXPECT_TRUE(p.completed);
    }
}

TEST_F(SweepRunnerTest, SurfacesSmallestFailedIndex)
{
    // Serial pool: job1 fails first; job3's failure and job4 must
    // never run (cancellation), and the surfaced error is job1's,
    // label-prefixed, with its code preserved.
    exec::ThreadPool pool(1);
    exec::SweepRunner runner(pool);
    std::atomic<int> started{0};
    auto ok = [&]() -> Result<SweepReport> {
        started.fetch_add(1);
        SweepReport r;
        r.completed = true;
        return r;
    };
    std::vector<exec::SweepJob> jobs;
    jobs.push_back({"job0", ok});
    jobs.push_back({"job1", [&]() -> Result<SweepReport> {
                        started.fetch_add(1);
                        return Error{ErrorCode::IoError,
                                     "trace vanished"};
                    }});
    jobs.push_back({"job2", ok});
    jobs.push_back({"job3", [&]() -> Result<SweepReport> {
                        started.fetch_add(1);
                        return Error{ErrorCode::ParseError, "later"};
                    }});

    Result<exec::BatchReport> batch = runner.run(jobs);
    ASSERT_FALSE(batch.ok());
    EXPECT_EQ(batch.error().code, ErrorCode::IoError);
    EXPECT_NE(batch.error().message.find("shard 'job1'"),
              std::string::npos);
    EXPECT_NE(batch.error().message.find("trace vanished"),
              std::string::npos);
    // Serial order: job0 and job1 ran, then the cancel flag skipped
    // the rest.
    EXPECT_EQ(started.load(), 2);
}

TEST_F(SweepRunnerTest, InjectedRk4FaultCancelsBatch)
{
    // Satellite: a FaultInjector-triggered ThermalFault in one shard
    // must cancel the remaining shards and surface through
    // Result<BatchReport> without deadlock or leak. Retries are
    // disabled so the injected NaN step cannot be recovered, and the
    // trigger repeats so whichever shard integrates first is hit.
    writeTrace(2000);
    BusSimConfig config = sweepConfig();
    config.thermal.max_integration_retries = 0;

    exec::ThreadPool pool(4);
    exec::SweepRunner runner(
        pool, exec::SweepRunner::Options{thermalFaultProbe()});
    std::vector<exec::SweepJob> jobs;
    for (int i = 0; i < 4; ++i)
        jobs.push_back(traceSweepJob(
            "shard" + std::to_string(i), path_, tech130, config));

    FaultInjector::instance().armCallFault(FaultSite::Rk4Step, 1, 1);
    Result<exec::BatchReport> batch = runner.run(jobs);
    FaultInjector::instance().reset();

    ASSERT_FALSE(batch.ok());
    EXPECT_EQ(batch.error().code, ErrorCode::ThermalRunaway);
    EXPECT_NE(batch.error().message.find("shard '"),
              std::string::npos);

    // The pool survived the cancelled batch: a clean follow-up batch
    // completes (this would hang on a leaked task or a dead worker).
    Result<exec::BatchReport> clean = runner.run(
        {traceSweepJob("clean", path_, tech130,
                                          sweepConfig())});
    ASSERT_TRUE(clean.ok());
    EXPECT_TRUE(clean.value().reports[0].completed);
}

TEST_F(SweepRunnerTest, ContainedFaultsDoNotFailBatchByDefault)
{
    // Default options: contained thermal faults degrade fidelity and
    // stay visible in the per-shard report, but the batch completes.
    writeTrace(2000);
    BusSimConfig config = sweepConfig();
    config.thermal.max_integration_retries = 0;

    exec::ThreadPool pool(2);
    exec::SweepRunner runner(pool);
    FaultInjector::instance().armCallFault(FaultSite::Rk4Step, 1, 1);
    Result<exec::BatchReport> batch = runner.run(
        {traceSweepJob("tolerant", path_, tech130,
                                          config)});
    FaultInjector::instance().reset();

    ASSERT_TRUE(batch.ok());
    const SweepReport &report = batch.value().reports[0];
    EXPECT_TRUE(report.completed);
    EXPECT_GT(report.instruction_faults.size() +
                  report.data_faults.size(),
              0u);
}

TEST_F(SweepRunnerTest, EmptyBatchSucceeds)
{
    exec::ThreadPool pool(2);
    Result<exec::BatchReport> batch =
        exec::SweepRunner(pool).run({});
    ASSERT_TRUE(batch.ok());
    EXPECT_TRUE(batch.value().reports.empty());
}

} // anonymous namespace
} // namespace nanobus
