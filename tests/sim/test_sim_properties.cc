/**
 * @file
 * Invariant tests of the simulation pipeline: results must not
 * depend on bookkeeping choices like the interval length.
 */

#include <gtest/gtest.h>

#include <tuple>

#include "sim/experiment.hh"
#include "trace/profile.hh"
#include "trace/synthetic.hh"

namespace nanobus {
namespace {

const TechnologyNode &tech130 = itrsNode(ItrsNode::Nm130);

class IntervalInvariance
    : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(IntervalInvariance, TotalEnergyIndependentOfIntervalLength)
{
    BusSimConfig config;
    config.data_width = 32;
    config.interval_cycles = GetParam();
    config.record_samples = false;
    config.thermal.stack_mode = StackMode::None;

    TwinBusSimulator twin(tech130, config);
    SyntheticCpu cpu(benchmarkProfile("crafty"), 51, 50000);
    twin.run(cpu);

    // Reference: very fine intervals.
    BusSimConfig ref_config = config;
    ref_config.interval_cycles = 500;
    TwinBusSimulator ref(tech130, ref_config);
    SyntheticCpu ref_cpu(benchmarkProfile("crafty"), 51, 50000);
    ref.run(ref_cpu);

    EXPECT_DOUBLE_EQ(twin.instructionBus().totalEnergy().total().raw(),
                     ref.instructionBus().totalEnergy().total()
                         .raw());
    EXPECT_DOUBLE_EQ(twin.dataBus().totalEnergy().total().raw(),
                     ref.dataBus().totalEnergy().total().raw());
}

TEST_P(IntervalInvariance, SteadyTemperatureNearlyIndependent)
{
    // Temperature uses piecewise-constant interval powers, so only
    // near-equality is expected once the network is at steady state
    // under statistically stationary traffic.
    BusSimConfig config;
    config.data_width = 32;
    config.interval_cycles = GetParam();
    config.thermal.stack_mode = StackMode::None;

    BusSimulator sim(tech130, config);
    BusSimConfig ref_config = config;
    ref_config.interval_cycles = 500;
    BusSimulator ref(tech130, ref_config);

    for (uint64_t c = 0; c < 100000; ++c) {
        uint32_t word = (c & 1) ? 0x0f0f0f0f : 0xf0f0f0f0;
        sim.transmit(c, word);
        ref.transmit(c, word);
    }
    EXPECT_NEAR(sim.thermalNetwork().maxTemperature().raw(),
                ref.thermalNetwork().maxTemperature().raw(), 0.02);
}

INSTANTIATE_TEST_SUITE_P(Intervals, IntervalInvariance,
                         ::testing::Values(1000ull, 5000ull,
                                           20000ull, 50000ull),
                         [](const auto &info) {
                             return "interval" +
                                 std::to_string(info.param);
                         });

TEST(SimProperties, TransmissionsConserveAcrossEncoders)
{
    // Every scheme transmits exactly once per record, regardless of
    // the extra control lines.
    for (EncodingScheme scheme : paperSchemes()) {
        BusSimConfig config;
        config.scheme = scheme;
        config.record_samples = false;
        config.thermal.stack_mode = StackMode::None;
        TwinBusSimulator twin(tech130, config);
        SyntheticCpu cpu(benchmarkProfile("art"), 53, 10000);
        uint64_t records = twin.run(cpu);
        EXPECT_EQ(twin.instructionBus().transmissions() +
                      twin.dataBus().transmissions(),
                  records)
            << schemeName(scheme);
    }
}

TEST(SimProperties, EncoderControlLinesCostShowsUpInWidth)
{
    BusSimConfig config;
    config.scheme = EncodingScheme::OddEvenBusInvert;
    BusSimulator sim(tech130, config);
    EXPECT_EQ(sim.busWidth(), 34u);
    EXPECT_EQ(sim.thermalNetwork().numWires(), 34u);
}

} // anonymous namespace
} // namespace nanobus
