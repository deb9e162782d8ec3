/**
 * @file
 * End-to-end determinism pins for the parallel runtime: the exact
 * bits of every simulation result must be a pure function of the
 * inputs, never of the thread count. These tests re-run the paper's
 * building blocks — the twin-bus energy study, the robust trace
 * sweep, and BEM extraction — at pool sizes 1, 2, and the hardware
 * concurrency, and require equality with EXPECT_EQ on raw doubles
 * (no tolerances).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "exec/thread_pool.hh"
#include "extraction/bem.hh"
#include "sim/experiment.hh"
#include "trace/io.hh"
#include "temp_path.hh"

namespace nanobus {
namespace {

const TechnologyNode &tech130 = itrsNode(ItrsNode::Nm130);

/** Pool sizes every pin runs at: serial, small, and machine-wide. */
std::vector<unsigned>
pinPoolSizes()
{
    unsigned hw = std::thread::hardware_concurrency();
    if (hw < 1)
        hw = 1;
    std::vector<unsigned> sizes = {1, 2, hw};
    std::sort(sizes.begin(), sizes.end());
    sizes.erase(std::unique(sizes.begin(), sizes.end()),
                sizes.end());
    return sizes;
}

void
expectSameEnergy(const EnergyBreakdown &a, const EnergyBreakdown &b,
                 const char *what, unsigned threads)
{
    EXPECT_EQ(a.self.raw(), b.self.raw())
        << what << " self energy diverged at " << threads
        << " threads";
    EXPECT_EQ(a.coupling.raw(), b.coupling.raw())
        << what << " coupling energy diverged at " << threads
        << " threads";
}

TEST(Determinism, EnergyStudyBitIdenticalAcrossPoolSizes)
{
    auto runAt = [](unsigned threads) {
        exec::ThreadPool pool(threads);
        return runEnergyStudy("eon", tech130,
                              EncodingScheme::BusInvert, 1, 20000, 1,
                              &pool);
    };
    const EnergyCell serial = runAt(1);
    for (unsigned threads : pinPoolSizes()) {
        const EnergyCell cell = runAt(threads);
        expectSameEnergy(serial.instruction, cell.instruction,
                         "instruction", threads);
        expectSameEnergy(serial.data, cell.data, "data", threads);
    }
}

TEST(Determinism, TraceSweepReportBitIdenticalAcrossPoolSizes)
{
    const std::string path =
        test::uniqueTempPath("determinism_trace.txt");
    {
        TraceWriter writer(path);
        // Mixed traffic with address patterns that exercise both
        // buses and the coupling terms.
        for (uint64_t c = 0; c < 3000; ++c) {
            AccessKind kind = (c % 3 == 0)
                ? AccessKind::InstructionFetch
                : (c % 3 == 1 ? AccessKind::Load
                              : AccessKind::Store);
            uint32_t address =
                static_cast<uint32_t>(c * 0x9e3779b9u);
            writer.write({c, address, kind});
        }
        writer.flush();
    }

    BusSimConfig config;
    config.scheme = EncodingScheme::BusInvert;
    config.data_width = 16;
    config.interval_cycles = 500;
    config.thermal.stack_mode = StackMode::None;
    config.record_samples = false;

    auto runAt = [&](unsigned threads) {
        exec::ThreadPool pool(threads);
        return tryRobustTraceSweep(path, tech130, config, nullptr,
                                   RobustSweepOptions(), &pool)
            .takeValue();
    };

    const SweepReport serial = runAt(1);
    EXPECT_TRUE(serial.completed);
    EXPECT_EQ(serial.exec.threads, 1u);
    for (unsigned threads : pinPoolSizes()) {
        const SweepReport report = runAt(threads);
        EXPECT_TRUE(report.completed);
        EXPECT_EQ(report.records, serial.records);
        EXPECT_EQ(report.skipped_lines, serial.skipped_lines);
        EXPECT_EQ(report.instruction_faults.size(),
                  serial.instruction_faults.size());
        EXPECT_EQ(report.data_faults.size(),
                  serial.data_faults.size());
        expectSameEnergy(serial.instruction_energy,
                         report.instruction_energy, "instruction",
                         threads);
        expectSameEnergy(serial.data_energy, report.data_energy,
                         "data", threads);
        EXPECT_EQ(report.exec.threads, threads);
    }
    std::remove(path.c_str());
}

TEST(Determinism, BemExtractionBitIdenticalAcrossPoolSizes)
{
    BusGeometry geometry =
        BusGeometry::forTechnology(tech130, 8);

    auto solveAt = [&](unsigned threads) {
        exec::ThreadPool pool(threads);
        BemExtractor::Options options;
        options.panels_per_width = 6;
        options.pool = &pool;
        return BemExtractor(geometry, options).solveMaxwell();
    };

    const Matrix serial = solveAt(1);
    for (unsigned threads : pinPoolSizes()) {
        const Matrix m = solveAt(threads);
        ASSERT_EQ(m.rows(), serial.rows());
        ASSERT_EQ(m.cols(), serial.cols());
        for (size_t i = 0; i < serial.rows(); ++i)
            for (size_t j = 0; j < serial.cols(); ++j)
                EXPECT_EQ(m(i, j), serial(i, j))
                    << "entry (" << i << "," << j
                    << ") diverged at " << threads << " threads";
    }
}

} // anonymous namespace
} // namespace nanobus
