/**
 * @file
 * Tests for the trace-driven bus simulator.
 */

#include <gtest/gtest.h>

#include <numeric>

#include "fabric/bus_sim.hh"
#include "util/logging.hh"

namespace nanobus {
namespace {

const TechnologyNode &tech130 = itrsNode(ItrsNode::Nm130);

BusSimConfig
fastConfig(EncodingScheme scheme = EncodingScheme::Unencoded)
{
    BusSimConfig config;
    config.scheme = scheme;
    config.data_width = 16;
    config.interval_cycles = 100;
    config.thermal.stack_mode = StackMode::None;
    return config;
}

TEST(BusSim, BusWidthIncludesControlLines)
{
    BusSimulator plain(tech130, fastConfig());
    EXPECT_EQ(plain.busWidth(), 16u);
    BusSimulator bi(tech130, fastConfig(EncodingScheme::BusInvert));
    EXPECT_EQ(bi.busWidth(), 17u);
}

TEST(BusSim, IdleBusDissipatesNothing)
{
    BusSimulator sim(tech130, fastConfig());
    sim.advanceTo(1000);
    EXPECT_DOUBLE_EQ(sim.totalEnergy().total().raw(), 0.0);
    EXPECT_EQ(sim.transmissions(), 0u);
    // 10 intervals of idle time were recorded.
    EXPECT_EQ(sim.samples().size(), 10u);
    for (const auto &s : sim.samples()) {
        EXPECT_DOUBLE_EQ(s.energy.total().raw(), 0.0);
        EXPECT_EQ(s.transmissions, 0u);
    }
}

TEST(BusSim, RepeatedAddressCostsNothingAfterFirst)
{
    BusSimulator sim(tech130, fastConfig());
    sim.transmit(0, 0x1234);
    double first = sim.totalEnergy().total().raw();
    sim.transmit(1, 0x1234);
    sim.transmit(2, 0x1234);
    EXPECT_DOUBLE_EQ(sim.totalEnergy().total().raw(), first);
}

TEST(BusSim, EnergyAccumulatesAcrossTransmissions)
{
    BusSimulator sim(tech130, fastConfig());
    sim.transmit(0, 0x0000);
    sim.transmit(1, 0xffff);
    sim.transmit(2, 0x0000);
    EXPECT_GT(sim.totalEnergy().self.raw(), 0.0);
    EXPECT_EQ(sim.transmissions(), 3u);
    const std::vector<double> lines = sim.lineEnergies();
    double line_sum = std::accumulate(lines.begin(), lines.end(), 0.0);
    EXPECT_NEAR(line_sum, sim.totalEnergy().total().raw(),
                1e-9 * line_sum);
}

TEST(BusSim, IntervalSamplesPartitionEnergy)
{
    BusSimulator sim(tech130, fastConfig());
    // Transmissions across 3 intervals.
    for (uint64_t c = 0; c < 250; c += 5)
        sim.transmit(c, static_cast<uint32_t>(c * 0x97));
    sim.advanceTo(300);
    ASSERT_EQ(sim.samples().size(), 3u);
    double sum = 0.0;
    uint64_t tx = 0;
    for (const auto &s : sim.samples()) {
        sum += s.energy.total().raw();
        tx += s.transmissions;
    }
    EXPECT_NEAR(sum, sim.totalEnergy().total().raw(), 1e-9 * sum);
    EXPECT_EQ(tx, sim.transmissions());
    EXPECT_EQ(sim.samples()[0].end_cycle, 100u);
    EXPECT_EQ(sim.samples()[2].end_cycle, 300u);
}

TEST(BusSim, TemperatureRisesWithActivity)
{
    BusSimConfig config = fastConfig();
    config.interval_cycles = 1000;
    BusSimulator sim(tech130, config);
    // Saturate the bus with alternating patterns for many intervals.
    uint64_t cycle = 0;
    for (int i = 0; i < 200000; ++i, ++cycle)
        sim.transmit(cycle, (i & 1) ? 0xffff : 0x0000);
    EXPECT_GT(sim.thermalNetwork().maxTemperature().raw(),
              318.15 + 0.05);
    const auto &samples = sim.samples();
    ASSERT_GE(samples.size(), 2u);
    // Temperature is (weakly) higher at the end than after the first
    // interval: monotone approach to steady state.
    EXPECT_GE(samples.back().max_temperature.raw(),
              samples.front().max_temperature.raw() - 1e-6);
}

TEST(BusSim, IdlePeriodCoolsWires)
{
    BusSimConfig config = fastConfig();
    config.interval_cycles = 1000;
    BusSimulator sim(tech130, config);
    uint64_t cycle = 0;
    for (int i = 0; i < 50000; ++i, ++cycle)
        sim.transmit(cycle, (i & 1) ? 0xffff : 0x0000);
    double hot = sim.thermalNetwork().maxTemperature().raw();
    sim.advanceTo(cycle + 200000); // long idle gap
    double cooled = sim.thermalNetwork().maxTemperature().raw();
    EXPECT_LT(cooled, hot);
    EXPECT_NEAR(cooled, 318.15, 0.01);
}

TEST(BusSim, CurrentProfileTracksActivity)
{
    BusSimConfig config = fastConfig();
    config.interval_cycles = 1000;
    BusSimulator sim(tech130, config);
    // Alternate busy and quiet intervals to force dI/dt.
    uint64_t cycle = 0;
    for (int interval = 0; interval < 20; ++interval) {
        bool busy = interval & 1;
        for (int i = 0; i < 1000; ++i, ++cycle) {
            if (busy)
                sim.transmit(cycle, (i & 1) ? 0xffff : 0x0000);
        }
    }
    sim.advanceTo(cycle);

    EXPECT_EQ(sim.currentStats().count(), 20u);
    EXPECT_GT(sim.currentStats().max(), 0.0);
    EXPECT_DOUBLE_EQ(sim.currentStats().min(), 0.0);
    // Alternating busy/idle gives large |dI/dt| every boundary.
    EXPECT_EQ(sim.didtStats().count(), 19u);
    EXPECT_GT(sim.didtStats().min(), 0.0);

    // Sample currents match E / (Vdd dt).
    const Seconds dt = 1000.0 / tech130.f_clk;
    for (const auto &s : sim.samples())
        EXPECT_NEAR(s.avg_current.raw(),
                    (s.energy.total() / (tech130.vdd * dt)).raw(),
                    1e-12 * (s.avg_current.raw() + 1.0));
}

TEST(BusSim, SteadyTrafficHasLowDidt)
{
    BusSimConfig config = fastConfig();
    config.interval_cycles = 1000;
    BusSimulator steady(tech130, config);
    BusSimulator bursty(tech130, config);
    uint64_t cycle = 0;
    for (int i = 0; i < 20000; ++i, ++cycle) {
        steady.transmit(cycle, (i & 1) ? 0xaaaa : 0x5555);
        if ((i / 1000) & 1)
            bursty.transmit(cycle, (i & 1) ? 0xaaaa : 0x5555);
    }
    steady.advanceTo(cycle);
    bursty.advanceTo(cycle);
    EXPECT_LT(steady.didtStats().mean(),
              0.01 * bursty.didtStats().mean());
}

TEST(BusSim, NonMonotonicCycleIsFatal)
{
    setAbortOnError(false);
    BusSimulator sim(tech130, fastConfig());
    sim.transmit(10, 0x1);
    EXPECT_THROW(sim.transmit(5, 0x2), FatalError);
    setAbortOnError(true);
}

TEST(BusSim, RecordSamplesOffKeepsMemoryFlat)
{
    BusSimConfig config = fastConfig();
    config.record_samples = false;
    BusSimulator sim(tech130, config);
    for (uint64_t c = 0; c < 10000; ++c)
        sim.transmit(c, static_cast<uint32_t>(c));
    EXPECT_TRUE(sim.samples().empty());
    EXPECT_GT(sim.totalEnergy().total().raw(), 0.0);
}

TEST(BusSim, MismatchedCapMatrixIsFatal)
{
    setAbortOnError(false);
    CapacitanceMatrix wrong(8); // bus is 16 wide
    EXPECT_THROW(BusSimulator(tech130, fastConfig(), &wrong),
                 FatalError);
    setAbortOnError(true);
}

TEST(BusSim, ThermalFaultsSurfaceWithoutAborting)
{
    // A ceiling below the activity-driven operating point makes every
    // busy interval trip the runaway guard; the run must finish and
    // report the incidents instead of dying.
    BusSimConfig config = fastConfig();
    config.interval_cycles = 1000;
    config.thermal.temperature_ceiling = Kelvin{318.15 + 0.01};
    BusSimulator sim(tech130, config);
    uint64_t cycle = 0;
    for (int i = 0; i < 100000; ++i, ++cycle)
        sim.transmit(cycle, (i & 1) ? 0xffff : 0x0000);
    sim.advanceTo(cycle);

    ASSERT_FALSE(sim.thermalFaults().empty());
    for (const ThermalFault &f : sim.thermalFaults()) {
        EXPECT_EQ(f.kind, ThermalFault::Kind::Ceiling);
        EXPECT_GT(f.cycle, 0u);
        EXPECT_LE(f.cycle, cycle);
        EXPECT_GT(f.temperature, config.thermal.temperature_ceiling);
    }
    EXPECT_LE(sim.thermalNetwork().maxTemperature().raw(),
              config.thermal.temperature_ceiling.raw() + 1e-12);
    EXPECT_GT(sim.totalEnergy().total().raw(), 0.0);
}

TEST(BusSim, CleanRunReportsNoThermalFaults)
{
    BusSimConfig config = fastConfig();
    config.interval_cycles = 1000;
    BusSimulator sim(tech130, config);
    for (uint64_t c = 0; c < 5000; ++c)
        sim.transmit(c, static_cast<uint32_t>(c * 0x2545));
    sim.advanceTo(5000);
    EXPECT_TRUE(sim.thermalFaults().empty());
}

TEST(BusSim, ExternalCapMatrixIsUsed)
{
    // A denser coupling matrix must raise energy.
    BusSimConfig config = fastConfig();
    CapacitanceMatrix dense =
        CapacitanceMatrix::analytical(tech130, 16);
    for (unsigned i = 0; i + 1 < 16; ++i)
        dense.setCoupling(i, i + 1, 2.0 * tech130.c_inter);
    BusSimulator plain(tech130, config);
    BusSimulator boosted(tech130, config, &dense);
    plain.transmit(0, 0x0001);
    boosted.transmit(0, 0x0001);
    EXPECT_GT(boosted.totalEnergy().coupling,
              plain.totalEnergy().coupling);
}

} // anonymous namespace
} // namespace nanobus
