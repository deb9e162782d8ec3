/**
 * @file
 * Thermal-solver pipeline pins (`thermal-solver` ctest label, run
 * under TSan in CI): a trace replay whose thermal network steps with
 * either solver (the RK4 oracle, the exact modal default) must be
 * bit-identical across pool sizes 1/2/hw and across kill-and-resume,
 * and the solver choice must flow from BusSimConfig::thermal through
 * SimPipeline unchanged.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "exec/thread_pool.hh"
#include "fabric/bus_sim.hh"
#include "sim/pipeline.hh"
#include "sim/snapshot.hh"
#include "trace/record.hh"
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
                                 ThermalSolver::Modal}) {
        TwinBusSimulator twin(tech130, simConfig(solver));
        EXPECT_EQ(twin.instructionBus().thermalNetwork().solver(),
                  solver);
        EXPECT_EQ(twin.dataBus().thermalNetwork().solver(), solver);
    }
}

TEST(ThermalSolverPipeline, ImplicitReplayBitIdenticalAcrossPools)
{
    // The modal path must not perturb the pipeline's determinism
    // pin: identical fingerprints at pool sizes 1, 2, and hw against
    // the pool-1 reference — each update depends only on the bus's
    // own state, power and interval. The RK4 oracle keeps the same
    // pin.
    const std::vector<TraceRecord> records = makeRecords(3000);
    SimPipeline::Config plain;
    plain.batch_size = 256;

    std::vector<unsigned> pools = {1, 2};
    if (exec::ThreadPool::defaultThreads() > 2)
        pools.push_back(exec::ThreadPool::defaultThreads());

    for (ThermalSolver solver : {ThermalSolver::Rk4,
                                 ThermalSolver::Modal}) {
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
    // Kill-and-resume on the modal path: the snapshot carries the
    // physical node temperatures but *not* the per-duration decay
    // factors — the resumed network must rebuild them and continue
    // bit-identically, at pool sizes 1/2/hw.
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
                                 ThermalSolver::Modal}) {
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

} // anonymous namespace
} // namespace nanobus
