/**
 * @file
 * End-to-end pipeline tests: generator -> trace file -> simulator,
 * and generator -> cache hierarchy -> L1-L2 bus simulator.
 */

#include <gtest/gtest.h>

#include <cstdio>

#include "cache/hierarchy.hh"
#include "sim/experiment.hh"
#include "trace/io.hh"
#include "trace/profile.hh"
#include "trace/synthetic.hh"
#include "vm/kernels.hh"
#include "temp_path.hh"

namespace nanobus {
namespace {

const TechnologyNode &tech130 = itrsNode(ItrsNode::Nm130);

BusSimConfig
fastConfig()
{
    BusSimConfig config;
    config.data_width = 32;
    config.interval_cycles = 1000;
    config.thermal.stack_mode = StackMode::None;
    return config;
}

TEST(Pipeline, TraceFileRoundTripGivesIdenticalEnergy)
{
    std::string path = test::uniqueTempPath("pipe.txt");

    // Generate, capture to file and to memory simultaneously.
    std::vector<TraceRecord> records;
    {
        SyntheticCpu cpu(benchmarkProfile("twolf"), 71, 5000);
        TraceWriter writer(path);
        TraceRecord r;
        while (cpu.next(r)) {
            records.push_back(r);
            writer.write(r);
        }
        writer.flush();
    }

    TwinBusSimulator live(tech130, fastConfig());
    VectorTraceSource mem(records);
    live.run(mem);

    TwinBusSimulator replay(tech130, fastConfig());
    TraceReader reader(path);
    replay.run(reader);

    EXPECT_DOUBLE_EQ(live.instructionBus().totalEnergy().total().raw(),
                     replay.instructionBus().totalEnergy().total()
                         .raw());
    EXPECT_DOUBLE_EQ(live.dataBus().totalEnergy().total().raw(),
                     replay.dataBus().totalEnergy().total().raw());
    std::remove(path.c_str());
}

TEST(Pipeline, CacheHierarchyDrivesL1L2Bus)
{
    // The extension study: L1-L2 address bus traffic extracted from
    // the hierarchy feeds a third bus simulator.
    CacheHierarchy hierarchy;
    BusSimulator l2_bus(tech130, fastConfig());
    uint64_t last_cycle = 0;
    hierarchy.setL2BusListener(
        [&](uint64_t cycle, uint32_t addr, bool) {
            // Multiple L2 transactions can share a cycle (fill +
            // write-through); serialize them onto the bus in order.
            if (cycle < last_cycle)
                cycle = last_cycle;
            l2_bus.transmit(cycle, addr);
            last_cycle = cycle;
        });

    SyntheticCpu cpu(benchmarkProfile("mcf"), 73, 50000);
    TraceRecord r;
    while (cpu.next(r))
        hierarchy.access(r);

    EXPECT_GT(l2_bus.transmissions(), 100u);
    EXPECT_GT(l2_bus.totalEnergy().total().raw(), 0.0);
    // L2 traffic is a filtered subset of processor traffic.
    EXPECT_LT(l2_bus.transmissions(),
              hierarchy.l1i().stats().accesses() +
              hierarchy.l1d().stats().accesses());
}

TEST(Pipeline, EncodedBusesDecodeBackToTheTrace)
{
    // Transmit a trace through a BI-encoded bus and verify a decoder
    // observing the bus words recovers every address.
    auto tx = makeEncoder(EncodingScheme::BusInvert, 32);
    auto rx = makeEncoder(EncodingScheme::BusInvert, 32);
    tx->reset(0);
    rx->reset(0);
    SyntheticCpu cpu(benchmarkProfile("ammp"), 77, 20000);
    TraceRecord r;
    while (cpu.next(r)) {
        uint64_t word = tx->encode(r.address);
        EXPECT_EQ(rx->decode(word), r.address);
    }
}

TEST(Pipeline, IdleInjectedTraceStretchesThermalTimeline)
{
    BusSimConfig config = fastConfig();
    TwinBusSimulator dense_twin(tech130, config);
    SyntheticCpu dense_cpu(benchmarkProfile("swim"), 79, 20000);
    dense_twin.run(dense_cpu);

    TwinBusSimulator sparse_twin(tech130, config);
    SyntheticCpu sparse_cpu(benchmarkProfile("swim"), 79, 20000);
    IdleInjector injector(sparse_cpu, 5000, 5000);
    sparse_twin.run(injector);

    // Same transmissions, same energy; longer wall-clock.
    EXPECT_EQ(dense_twin.instructionBus().transmissions(),
              sparse_twin.instructionBus().transmissions());
    EXPECT_DOUBLE_EQ(
        dense_twin.instructionBus().totalEnergy().total().raw(),
        sparse_twin.instructionBus().totalEnergy().total().raw());
    EXPECT_GT(sparse_twin.instructionBus().currentCycle(),
              dense_twin.instructionBus().currentCycle());
}

TEST(Pipeline, ExecutionDrivenVmFeedsTheBusModels)
{
    // The mini-VM is a TraceSource: run real code end to end.
    VirtualMachine vm(kernels::buildMemcpy(
        kernels::data_base, kernels::data_base + 0x10000, 2000));
    TwinBusSimulator twin(tech130, fastConfig());
    uint64_t records = twin.run(vm);

    EXPECT_TRUE(vm.halted());
    // memcpy: 4 setup + 2000 iterations x 7 + final check + halt.
    EXPECT_GT(records, 14000u);
    EXPECT_EQ(twin.dataBus().transmissions(), 4000u); // ld + st each
    EXPECT_GT(twin.instructionBus().totalEnergy().total().raw(),
              0.0);
    EXPECT_GT(twin.dataBus().totalEnergy().total().raw(), 0.0);
}

TEST(Pipeline, PointerChasingCostsMorePerTransmission)
{
    // The executed-code version of the paper's mcf-vs-swim contrast.
    auto per_tx = [](VirtualMachine &vm) {
        TwinBusSimulator twin(tech130, fastConfig());
        twin.run(vm);
        return twin.dataBus().totalEnergy().total() /
            static_cast<double>(twin.dataBus().transmissions());
    };

    VirtualMachine stream(kernels::buildMemcpy(
        kernels::data_base, kernels::data_base + 0x8000, 3000));

    VirtualMachine chaser(kernels::buildListWalk(0));
    uint32_t head = kernels::buildListInMemory(
        chaser, kernels::data_base, 1 << 20, 3000, 5);
    VirtualMachine walker(kernels::buildListWalk(head));
    kernels::buildListInMemory(walker, kernels::data_base, 1 << 20,
                               3000, 5);

    EXPECT_GT(per_tx(walker), 1.5 * per_tx(stream));
}

TEST(Pipeline, BusInvertRunsTheDataBusCooler)
{
    // Energy savings must show up as temperature savings: the whole
    // point of coupling the models. Note it is the *average* wire
    // temperature that tracks total energy — BI moves activity onto
    // previously-idle high-order lines, so the *peak* can even tick
    // up slightly, exactly the per-line effect whole-bus models
    // cannot see.
    auto avg_temp = [](EncodingScheme scheme) {
        BusSimConfig config;
        config.data_width = 32;
        config.scheme = scheme;
        config.interval_cycles = 1000;
        config.record_samples = false;
        config.thermal.stack_mode = StackMode::None;
        BusSimulator sim(tech130, config);
        SyntheticCpu cpu(benchmarkProfile("eon"), 57, 300000);
        TraceRecord r;
        uint64_t last = 0;
        while (cpu.next(r)) {
            if (r.kind == AccessKind::InstructionFetch)
                continue;
            sim.transmit(r.cycle, r.address);
            last = r.cycle;
        }
        sim.advanceTo(last);
        return sim.thermalNetwork().averageTemperature().raw();
    };
    double plain = avg_temp(EncodingScheme::Unencoded);
    double bi = avg_temp(EncodingScheme::BusInvert);
    EXPECT_GT(plain, 318.15 + 0.02); // something to save
    EXPECT_LT(bi, plain);
}

TEST(Pipeline, VmKernelsThroughTheCacheHierarchy)
{
    // Execution-driven traffic through the paper's memory system:
    // a streaming kernel caches well, a scattered list walk poorly.
    auto l1d_miss_rate = [](VirtualMachine &vm) {
        CacheHierarchy hierarchy;
        TraceRecord r;
        while (vm.next(r))
            hierarchy.access(r);
        return hierarchy.l1d().stats().missRate();
    };

    VirtualMachine stream(kernels::buildStridedSum(
        kernels::data_base, 20000, 1));

    VirtualMachine seed_vm(kernels::buildListWalk(0));
    uint32_t head = kernels::buildListInMemory(
        seed_vm, kernels::data_base, 1 << 22, 20000, 9);
    VirtualMachine walker(kernels::buildListWalk(head));
    kernels::buildListInMemory(walker, kernels::data_base, 1 << 22,
                               20000, 9);

    double stream_rate = l1d_miss_rate(stream);
    double walk_rate = l1d_miss_rate(walker);
    EXPECT_LT(stream_rate, 0.2);  // unit stride: 1 miss per block
    EXPECT_GT(walk_rate, 0.4);    // scattered 4 MB region
    EXPECT_GT(walk_rate, 3.0 * stream_rate);
}

TEST(Pipeline, AllBenchmarksRunAllSchemes)
{
    // Smoke coverage of the full Fig 3 grid at tiny scale.
    for (const auto &bench : allBenchmarkNames()) {
        for (EncodingScheme scheme : paperSchemes()) {
            EnergyCell cell = runEnergyStudy(bench, tech130, scheme,
                                             64, 2000);
            EXPECT_GT(cell.instruction.total().raw(), 0.0)
                << bench << "/" << schemeName(scheme);
            EXPECT_GT(cell.data.total().raw(), 0.0)
                << bench << "/" << schemeName(scheme);
        }
    }
}

} // anonymous namespace
} // namespace nanobus
