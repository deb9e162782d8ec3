/**
 * @file
 * Thermal-solver pipeline pins (`thermal-solver` ctest label, run
 * under TSan in CI): a trace replay whose thermal network steps with
 * error-controlled TR-BDF2 must be bit-identical across pool sizes
 * 1/2/hw and across kill-and-resume, the solver choice must flow
 * from BusSimConfig::thermal through SimPipeline unchanged, and the
 * TR-BDF2 step count on the Fig 4 bus stays inside its work budget.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "exec/thread_pool.hh"
#include "fabric/bus_sim.hh"
#include "sim/pipeline.hh"
#include "sim/snapshot.hh"
#include "trace/profile.hh"
#include "trace/record.hh"
#include "trace/synthetic.hh"
#include "temp_path.hh"

namespace nanobus {
namespace {

const TechnologyNode &tech130 = itrsNode(ItrsNode::Nm130);

BusSimConfig
simConfig(ThermalSolver solver)
{
    BusSimConfig config;
    config.scheme = EncodingScheme::BusInvert;
    config.data_width = 16;
    config.interval_cycles = 400;
    config.record_samples = true;
    config.thermal.solver = solver;
    return config;
}

std::vector<TraceRecord>
makeRecords(uint64_t n)
{
    std::vector<TraceRecord> records;
    uint32_t address = 0xbeefu;
    for (uint64_t c = 0; c < n; ++c) {
        address = address * 1664525u + 1013904223u;
        AccessKind kind = (c % 3 == 0)
            ? AccessKind::InstructionFetch
            : ((c % 3 == 1) ? AccessKind::Load : AccessKind::Store);
        records.push_back({c, address, kind});
    }
    return records;
}

uint64_t
bitsOf(double value)
{
    uint64_t bits;
    std::memcpy(&bits, &value, sizeof bits);
    return bits;
}

/** Bit-exact observable state of both buses' thermal paths. */
std::vector<uint64_t>
fingerprint(const TwinBusSimulator &twin)
{
    std::vector<uint64_t> fp;
    for (const BusSimulator *bus :
         {&twin.instructionBus(), &twin.dataBus()}) {
        const ThermalNetwork &net = bus->thermalNetwork();
        for (unsigned i = 0; i < net.numWires(); ++i)
            fp.push_back(bitsOf(net.temperature(i).raw()));
        fp.push_back(bitsOf(net.stackTemperature().raw()));
        fp.push_back(bus->thermalFaults().size());
        fp.push_back(bus->samples().size());
        for (const IntervalSample &s : bus->samples()) {
            fp.push_back(bitsOf(s.avg_temperature.raw()));
            fp.push_back(bitsOf(s.max_temperature.raw()));
        }
        fp.push_back(bitsOf(bus->totalEnergy().self.raw()));
        fp.push_back(bitsOf(bus->totalEnergy().coupling.raw()));
    }
    return fp;
}

std::vector<uint64_t>
replay(const std::vector<TraceRecord> &records, ThermalSolver solver,
       exec::ThreadPool &pool, const SimPipeline::Config &config)
{
    TwinBusSimulator twin(tech130, simConfig(solver));
    SimPipeline pipeline(twin, pool, config);
    VectorTraceSource source(records);
    Result<uint64_t> replayed = pipeline.run(source);
    EXPECT_TRUE(replayed.ok())
        << (replayed.ok() ? ""
                          : replayed.error().describe().c_str());
    return fingerprint(twin);
}

TEST(ThermalSolverPipeline, SolverChoiceFlowsThroughBusSim)
{
    for (ThermalSolver solver : {ThermalSolver::Rk4,
                                 ThermalSolver::TrBdf2}) {
        TwinBusSimulator twin(tech130, simConfig(solver));
        EXPECT_EQ(twin.instructionBus().thermalNetwork().solver(),
                  solver);
        EXPECT_EQ(twin.dataBus().thermalNetwork().solver(), solver);
    }
}

TEST(ThermalSolverPipeline, ImplicitReplayBitIdenticalAcrossPools)
{
    // The implicit path must not perturb the pipeline's determinism
    // pin: identical fingerprints at pool sizes 1, 2, and hw against
    // the pool-1 reference — the error-controlled step sequence
    // depends only on each bus's own state and power. The RK4 oracle
    // keeps the same pin.
    const std::vector<TraceRecord> records = makeRecords(3000);
    SimPipeline::Config plain;
    plain.batch_size = 256;

    std::vector<unsigned> pools = {1, 2};
    if (exec::ThreadPool::defaultThreads() > 2)
        pools.push_back(exec::ThreadPool::defaultThreads());

    for (ThermalSolver solver : {ThermalSolver::Rk4,
                                 ThermalSolver::TrBdf2}) {
        exec::ThreadPool reference_pool(1);
        const std::vector<uint64_t> reference =
            replay(records, solver, reference_pool, plain);
        for (unsigned pool_size : pools) {
            exec::ThreadPool pool(pool_size);
            EXPECT_EQ(replay(records, solver, pool, plain), reference)
                << thermalSolverName(solver) << " pool=" << pool_size;
        }
    }
}

TEST(ThermalSolverPipeline, ImplicitKillAndResumeBitIdentical)
{
    // Kill-and-resume on the implicit path: the snapshot carries the
    // thermal state but *not* the per-rung operator factorizations —
    // the resumed network must refactor deterministically and
    // continue bit-identically, at pool sizes 1/2/hw.
    const std::string ckpt =
        test::uniqueTempPath("thermal_solver_test.ckpt");
    const std::vector<TraceRecord> records = makeRecords(2000);
    const std::vector<TraceRecord> prefix(records.begin(),
                                          records.begin() + 1100);
    SimPipeline::Config plain;
    plain.batch_size = 256;

    std::vector<unsigned> pools = {1, 2};
    if (exec::ThreadPool::defaultThreads() > 2)
        pools.push_back(exec::ThreadPool::defaultThreads());

    for (ThermalSolver solver : {ThermalSolver::Rk4,
                                 ThermalSolver::TrBdf2}) {
        exec::ThreadPool reference_pool(1);
        const std::vector<uint64_t> uninterrupted =
            replay(records, solver, reference_pool, plain);

        for (unsigned pool_size : pools) {
            exec::ThreadPool pool(pool_size);

            SimPipeline::Config checkpointing = plain;
            checkpointing.checkpoint_path = ckpt;
            checkpointing.checkpoint_every_batches = 1;
            replay(prefix, solver, pool, checkpointing);

            SimPipeline::Config resuming = plain;
            resuming.checkpoint_path = ckpt;
            resuming.resume = true;
            EXPECT_EQ(replay(records, solver, pool, resuming),
                      uninterrupted)
                << thermalSolverName(solver) << " pool=" << pool_size;
        }
    }
    std::remove(ckpt.c_str());
}

/** TR-BDF2 work on one bus: the most accepted steps any interval
 *  took, and the run's totals. */
struct StepWork
{
    uint64_t max_per_interval = 0;
    uint64_t accepted = 0;
    uint64_t rejected = 0;
    uint64_t intervals = 0;
};

/**
 * Replay swim's data addresses on the Fig 4 bus (130 nm, 32 wires,
 * Unencoded, dynamic stack with a 2 ms time constant) under TR-BDF2
 * and count the thermal steps each closed interval took.
 */
StepWork
fig4StepWork(uint64_t interval_cycles, uint64_t intervals)
{
    BusSimConfig config;
    config.data_width = 32;
    config.scheme = EncodingScheme::Unencoded;
    config.interval_cycles = interval_cycles;
    config.thermal.stack_mode = StackMode::Dynamic;
    config.thermal.stack_time_constant = Seconds{0.002};
    config.thermal.solver = ThermalSolver::TrBdf2;
    BusSimulator bus(tech130, config);
    const ThermalNetwork &net = bus.thermalNetwork();

    StepWork work;
    auto harvest = [&] {
        const uint64_t closed = bus.samples().size() - work.intervals;
        if (closed == 0)
            return;
        const uint64_t steps = net.stepCounts().accepted - work.accepted;
        // An idle gap can close several intervals in one call; each
        // takes at least one step, so the busiest of them took at
        // most steps - (closed - 1).
        work.max_per_interval = std::max(
            work.max_per_interval, steps - (closed - 1));
        work.intervals += closed;
        work.accepted += steps;
    };

    const uint64_t horizon = interval_cycles * intervals;
    SyntheticCpu cpu(benchmarkProfile("swim"), 2, horizon);
    TraceRecord record;
    while (cpu.next(record)) {
        if (record.kind == AccessKind::InstructionFetch)
            continue;
        bus.advanceTo(record.cycle);
        harvest();
        bus.transmit(record.cycle, record.address);
    }
    bus.advanceTo(horizon);
    harvest();
    work.rejected = net.stepCounts().rejected;
    return work;
}

TEST(ThermalSolverPipeline, TrBdf2StepBudgetOnFig4Bus)
{
    // A load-independent work gate for the TR-BDF2 default: count
    // steps, not seconds. RK4 needs 1119 steps per 100k-cycle
    // interval on this bus; error control must cross one in at most
    // 32 whatever the swim burst does, and a 20-cycle interval (far
    // shorter than any wire time constant) in exactly one.
    const StepWork coarse = fig4StepWork(100000, 30);
    EXPECT_EQ(coarse.intervals, 30u);
    EXPECT_LE(coarse.max_per_interval, 32u);

    const StepWork fine = fig4StepWork(20, 2000);
    EXPECT_EQ(fine.intervals, 2000u);
    EXPECT_EQ(fine.accepted, fine.intervals);
    EXPECT_EQ(fine.rejected, 0u);
}

} // anonymous namespace
} // namespace nanobus
