/**
 * @file
 * End-to-end fault-injection harness exercise (docs/ROBUSTNESS.md).
 *
 * One sweep is driven through every recoverable error path at once:
 * a trace file with injected bit flips, a Maxwell capacitance matrix
 * perturbed until it is asymmetric, and an ill-conditioned variant
 * that must fall back to the analytical model. The process-level
 * requirement is the acceptance criterion from the robustness work:
 * the sweep completes without an abort and every degradation is
 * visible in the SweepReport.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "sim/experiment.hh"
#include "trace/io.hh"
#include "util/faultinject.hh"
#include "util/logging.hh"
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

class FaultInjectionSweep : public ::testing::Test
{
  protected:
    std::string path_ = test::uniqueTempPath("fault_trace.txt");

    void SetUp() override { FaultInjector::instance().reset(); }

    void TearDown() override
    {
        FaultInjector::instance().reset();
        std::remove(path_.c_str());
    }

    /** One robust sweep over the fixture's trace; a stream-level
     *  Error fails the test and yields an incomplete report. */
    SweepReport sweep(const BusSimConfig &config, const Matrix *maxwell,
                      size_t trace_error_budget)
    {
        RobustSweepOptions options;
        options.trace_error_budget = trace_error_budget;
        Result<SweepReport> report =
            tryRobustTraceSweep(path_, tech130, config, maxwell, options);
        EXPECT_TRUE(report.ok()) << report.error().describe();
        return report.ok() ? report.takeValue() : SweepReport();
    }

    /**
     * Alternating fetch/load traffic over `n` cycles. Each bus sees
     * full-width address flips (0x0 <-> 0xffffffff) so the traffic
     * heats the wires as hard as the energy model allows.
     */
    void writeTrace(uint64_t n)
    {
        TraceWriter writer(path_);
        writer.comment("fault-injection harness input");
        for (uint64_t c = 0; c < n; ++c) {
            AccessKind kind = (c & 1) ? AccessKind::Load
                                      : AccessKind::InstructionFetch;
            uint32_t address = (c & 2) ? 0xffffffffu : 0x00000000u;
            writer.write({c, address, kind});
        }
        writer.flush();
    }

    /** A healthy 16-wire Maxwell matrix (diag total, negative
     *  couplings decaying with separation). */
    Matrix maxwell16() const
    {
        const unsigned n = 16;
        Matrix m(n, n, 0.0);
        for (unsigned i = 0; i < n; ++i) {
            double total = 2.0 * tech130.c_line.raw();
            for (unsigned j = 0; j < n; ++j) {
                if (i == j)
                    continue;
                unsigned sep = j > i ? j - i : i - j;
                const double c = tech130.c_inter.raw() /
                    std::pow(3.0, static_cast<double>(sep - 1));
                m(i, j) = -c;
                total += c;
            }
            m(i, i) = total;
        }
        return m;
    }
};

TEST_F(FaultInjectionSweep, CorruptedInputsDegradeButComplete)
{
    writeTrace(4000);

    // Flip a bit in every 40th line starting at line 10: the reader
    // must skip what no longer parses and keep going.
    FaultInjector::instance().armTraceCorruption(10, 40);

    // Knock the BEM symmetry out with a deterministic perturbation;
    // tryFromMaxwell repairs it and warns.
    Matrix maxwell = maxwell16();
    FaultInjector::perturbEntries(maxwell.rowPtr(0), 16 * 16, 0.02,
                                  2026);

    SweepReport report = sweep(sweepConfig(), &maxwell, 1000);
    FaultInjector::instance().reset();

    // The sweep ran to the end of the trace...
    EXPECT_TRUE(report.completed);
    // ...with every injected defect surfaced, not swallowed. The
    // comment line plus 4000 records make 4001 raw lines; the
    // corruption cadence 10, 50, 90, ... fires exactly 100 times.
    EXPECT_EQ(report.skipped_lines, 100u);
    EXPECT_EQ(report.records, 3900u);
    ASSERT_FALSE(report.warnings.empty());
    bool symmetry_warning = false;
    for (const std::string &w : report.warnings)
        symmetry_warning = symmetry_warning ||
            w.find("symmetriz") != std::string::npos;
    EXPECT_TRUE(symmetry_warning);
    // The repaired matrix was usable — no analytical fallback.
    EXPECT_FALSE(report.analytical_fallback);
    EXPECT_EQ(report.records + report.skipped_lines, 4000u);
    EXPECT_GT(report.faultCount(), 0u);
}

TEST_F(FaultInjectionSweep, IllConditionedMatrixFallsBackWithWarning)
{
    writeTrace(500);

    // A rank-deficient extraction: wire 7 duplicates wire 8 exactly
    // (equal rows and columns), so the matrix is singular.
    Matrix maxwell = maxwell16();
    for (unsigned j = 0; j < 16; ++j) {
        if (j == 7 || j == 8)
            continue;
        maxwell(7, j) = maxwell(8, j);
        maxwell(j, 7) = maxwell(j, 8);
    }
    maxwell(7, 7) = maxwell(8, 8);
    maxwell(7, 8) = maxwell(8, 8);
    maxwell(8, 7) = maxwell(8, 8);

    SweepReport report = sweep(sweepConfig(), &maxwell, 10);

    EXPECT_TRUE(report.completed);
    EXPECT_EQ(report.records, 500u);
    ASSERT_FALSE(report.warnings.empty());
    bool conditioning_warning = false;
    for (const std::string &w : report.warnings)
        conditioning_warning = conditioning_warning ||
            w.find("singular") != std::string::npos ||
            w.find("ill-conditioned") != std::string::npos;
    EXPECT_TRUE(conditioning_warning);
}

TEST_F(FaultInjectionSweep, MisSizedMatrixFallsBackToAnalytical)
{
    writeTrace(200);
    Matrix wrong(8, 8, 0.0);
    for (unsigned i = 0; i < 8; ++i)
        wrong(i, i) = tech130.c_line.raw();

    SweepReport report = sweep(sweepConfig(), &wrong, 10);

    EXPECT_TRUE(report.completed);
    EXPECT_TRUE(report.analytical_fallback);
    ASSERT_FALSE(report.warnings.empty());
    EXPECT_NE(report.warnings.back().find("analytical"),
              std::string::npos);
}

TEST_F(FaultInjectionSweep, ThermalFaultsPropagateIntoReport)
{
    writeTrace(3000);
    BusSimConfig config = sweepConfig();
    // A ceiling a hair above ambient trips on real traffic heat.
    config.thermal.temperature_ceiling =
        config.initial_temperature + Kelvin{1e-4};

    SweepReport report = sweep(config, nullptr, 0);

    EXPECT_TRUE(report.completed);
    EXPECT_FALSE(report.instruction_faults.empty());
    EXPECT_FALSE(report.data_faults.empty());
    for (const ThermalFault &f : report.instruction_faults)
        EXPECT_EQ(f.kind, ThermalFault::Kind::Ceiling);
    EXPECT_GE(report.faultCount(),
              report.instruction_faults.size() +
                  report.data_faults.size());
}

TEST_F(FaultInjectionSweep, ExhaustedTraceBudgetIsStillFatal)
{
    // The budget is a containment boundary, not a blank check: a
    // trace that is mostly garbage must still stop the run. In a
    // process the reader's fatal() exits; with setAbortOnError(false)
    // the batch reader latches the thrown FatalError as a permanent
    // ParseError (never the retryable IoError), so the sweep stops
    // instead of producing a report.
    {
        std::ofstream out(path_);
        for (int i = 0; i < 50; ++i)
            out << "complete garbage line " << i << "\n";
    }
    RobustSweepOptions options;
    options.trace_error_budget = 5;
    setAbortOnError(false);
    Result<SweepReport> report = tryRobustTraceSweep(
        path_, tech130, sweepConfig(), nullptr, options);
    setAbortOnError(true);
    ASSERT_FALSE(report.ok());
    EXPECT_EQ(report.error().code, ErrorCode::ParseError);

    // Within budget the same trace only degrades the sweep.
    const SweepReport tolerated = sweep(sweepConfig(), nullptr, 1000);
    EXPECT_TRUE(tolerated.completed);
    EXPECT_EQ(tolerated.skipped_lines, 50u);
}

} // anonymous namespace
} // namespace nanobus
