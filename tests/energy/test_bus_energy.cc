/**
 * @file
 * Unit tests for the per-line bus energy model (Sec 3).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "energy/bus_energy.hh"
#include "util/logging.hh"
#include "util/random.hh"

namespace nanobus {
namespace {

const TechnologyNode &tech130 = itrsNode(ItrsNode::Nm130);

BusEnergyModel
makeModel(unsigned width, unsigned radius, bool repeaters = true,
          double length = 0.010)
{
    BusEnergyModel::Config config;
    config.wire_length = Meters{length};
    config.coupling_radius = radius;
    config.include_repeaters = repeaters;
    return BusEnergyModel(
        tech130, CapacitanceMatrix::analytical(tech130, width), config);
}

/** Independent self-energy computation from Table 1 numbers. */
double
expectedSelfEnergy(double length, bool repeaters)
{
    double c_line = 44.06e-12 * length;
    double c_int = (44.06e-12 + 2.0 * 91.72e-12) * length;
    double c_rep = repeaters ? std::sqrt(0.4 / 0.7) * c_int : 0.0;
    return 0.5 * (c_line + c_rep) * 1.1 * 1.1;
}

TEST(BusEnergy, IdleTransitionDissipatesNothing)
{
    BusEnergyModel model = makeModel(8, 64);
    const auto &e = model.transitionEnergy(0xa5, 0xa5);
    for (double v : e)
        EXPECT_DOUBLE_EQ(v, 0.0);
    EXPECT_DOUBLE_EQ(model.lastBreakdown().total().raw(), 0.0);
}

TEST(BusEnergy, SingleLineSelfEnergyMatchesClosedForm)
{
    BusEnergyModel model = makeModel(1, 0);
    const auto &e = model.transitionEnergy(0, 1);
    EXPECT_NEAR(e[0], expectedSelfEnergy(0.010, true), 1e-20);
    EXPECT_NEAR(model.lastBreakdown().self.raw(), e[0], 1e-20);
    EXPECT_DOUBLE_EQ(model.lastBreakdown().coupling.raw(), 0.0);
}

TEST(BusEnergy, RepeaterExclusionReducesSelfEnergy)
{
    BusEnergyModel with = makeModel(1, 0, true);
    BusEnergyModel without = makeModel(1, 0, false);
    double e_with = with.transitionEnergy(0, 1)[0];
    double e_without = without.transitionEnergy(0, 1)[0];
    EXPECT_NEAR(e_without, expectedSelfEnergy(0.010, false), 1e-20);
    // Repeaters roughly quadruple the self load at 130 nm
    // (0.756 * C_int vs c_line).
    EXPECT_GT(e_with / e_without, 3.0);
}

TEST(BusEnergy, RisingAndFallingDissipateEqually)
{
    BusEnergyModel model = makeModel(4, 0);
    double rise = model.transitionEnergy(0b0000, 0b0100)[2];
    double fall = model.transitionEnergy(0b0100, 0b0000)[2];
    EXPECT_DOUBLE_EQ(rise, fall);
}

TEST(BusEnergy, EnergyScalesWithLength)
{
    BusEnergyModel short_bus = makeModel(2, 64, true, 0.005);
    BusEnergyModel long_bus = makeModel(2, 64, true, 0.020);
    double e_short = short_bus.transitionEnergy(0b00, 0b01)[0];
    double e_long = long_bus.transitionEnergy(0b00, 0b01)[0];
    EXPECT_NEAR(e_long / e_short, 4.0, 1e-9);
}

TEST(BusEnergy, ChargeTransitionHitsOnlyMovingLine)
{
    // 00 -> 01: line 0 rises next to a steady line 1.
    BusEnergyModel model = makeModel(2, 64);
    const auto &e = model.transitionEnergy(0b00, 0b01);
    double coupling = 0.5 * 91.72e-12 * 0.010 * 1.1 * 1.1;
    EXPECT_NEAR(e[0], expectedSelfEnergy(0.010, true) + coupling,
                1e-20);
    EXPECT_DOUBLE_EQ(e[1], 0.0);
}

TEST(BusEnergy, ToggleDoublesCouplingViaMiller)
{
    // 01 -> 10: both lines move oppositely.
    BusEnergyModel model = makeModel(2, 64);
    const auto &e = model.transitionEnergy(0b01, 0b10);
    double self = expectedSelfEnergy(0.010, true);
    double miller = 91.72e-12 * 0.010 * 1.1 * 1.1; // 2 * (c/2) Vdd^2
    EXPECT_NEAR(e[0], self + miller, 1e-20);
    EXPECT_NEAR(e[1], self + miller, 1e-20);
}

TEST(BusEnergy, SameDirectionPairHasNoCouplingEnergy)
{
    // 00 -> 11: both lines rise together.
    BusEnergyModel model = makeModel(2, 64);
    model.transitionEnergy(0b00, 0b11);
    EXPECT_DOUBLE_EQ(model.lastBreakdown().coupling.raw(), 0.0);
    EXPECT_GT(model.lastBreakdown().self.raw(), 0.0);
}

TEST(BusEnergy, CouplingRadiusClampsToWidth)
{
    BusEnergyModel model = makeModel(4, 100);
    EXPECT_EQ(model.couplingRadius(), 3u);
}

TEST(BusEnergy, RadiusZeroIgnoresAllCoupling)
{
    BusEnergyModel model = makeModel(8, 0);
    model.transitionEnergy(0x00, 0xff);
    EXPECT_DOUBLE_EQ(model.lastBreakdown().coupling.raw(), 0.0);
}

TEST(BusEnergy, WiderRadiusNeverReducesEnergy)
{
    Rng rng(1234);
    BusEnergyModel r0 = makeModel(16, 0);
    BusEnergyModel r1 = makeModel(16, 1);
    BusEnergyModel r3 = makeModel(16, 3);
    BusEnergyModel rall = makeModel(16, 64);
    for (int i = 0; i < 200; ++i) {
        uint64_t prev = rng.next() & 0xffff;
        uint64_t next = rng.next() & 0xffff;
        double e0 = 0, e1 = 0, e3 = 0, eall = 0;
        for (double v : r0.transitionEnergy(prev, next))
            e0 += v;
        for (double v : r1.transitionEnergy(prev, next))
            e1 += v;
        for (double v : r3.transitionEnergy(prev, next))
            e3 += v;
        for (double v : rall.transitionEnergy(prev, next))
            eall += v;
        EXPECT_LE(e0, e1 + 1e-25);
        EXPECT_LE(e1, e3 + 1e-25);
        EXPECT_LE(e3, eall + 1e-25);
    }
}

TEST(BusEnergy, PerLineSumEqualsBreakdownTotal)
{
    Rng rng(77);
    BusEnergyModel model = makeModel(32, 64);
    for (int i = 0; i < 500; ++i) {
        uint64_t prev = rng.next() & 0xffffffff;
        uint64_t next = rng.next() & 0xffffffff;
        const auto &e = model.transitionEnergy(prev, next);
        double sum = std::accumulate(e.begin(), e.end(), 0.0);
        EXPECT_NEAR(sum, model.lastBreakdown().total().raw(),
                    1e-12 * std::max(sum, 1e-30));
    }
}

TEST(BusEnergy, StepAccumulates)
{
    BusEnergyModel model = makeModel(8, 64);
    EXPECT_EQ(model.lastWord(), 0u);
    const double e1 = model.step(0xff).raw();
    const double e2 = model.step(0x0f).raw();
    EXPECT_EQ(model.cycles(), 2u);
    EXPECT_EQ(model.lastWord(), 0x0fu);
    EXPECT_NEAR(model.accumulatedTotal().raw(), e1 + e2, 1e-24);
    const std::vector<double> lines = model.accumulatedLineEnergy();
    double line_sum = std::accumulate(lines.begin(), lines.end(), 0.0);
    EXPECT_NEAR(line_sum, e1 + e2, 1e-24);
}

TEST(BusEnergy, ResetAccumulationKeepsWord)
{
    BusEnergyModel model = makeModel(8, 64);
    model.step(0xaa);
    model.resetAccumulation();
    EXPECT_DOUBLE_EQ(model.accumulatedTotal().raw(), 0.0);
    EXPECT_EQ(model.cycles(), 0u);
    EXPECT_EQ(model.lastWord(), 0xaau);
}

TEST(BusEnergy, MaskedBitsAboveWidthIgnored)
{
    BusEnergyModel model = makeModel(4, 64);
    // Bits above width 4 must not contribute.
    const auto &e = model.transitionEnergy(0x00, 0xf0);
    for (double v : e)
        EXPECT_DOUBLE_EQ(v, 0.0);
}

TEST(BusEnergy, SelfCapacitanceAccessor)
{
    BusEnergyModel model = makeModel(4, 64);
    double expected = 44.06e-12 * 0.010 +
        std::sqrt(0.4 / 0.7) * (44.06e-12 + 2 * 91.72e-12) * 0.010;
    EXPECT_NEAR(model.selfCapacitance(0).raw(), expected, 1e-20);
}

TEST(BusEnergy, CouplingCapacitanceZeroBeyondRadius)
{
    BusEnergyModel model = makeModel(8, 1);
    EXPECT_GT(model.couplingCapacitance(3, 4).raw(), 0.0);
    EXPECT_DOUBLE_EQ(model.couplingCapacitance(3, 5).raw(), 0.0);
}

TEST(BusEnergy, VddScalingIsQuadratic)
{
    // 90 nm has Vdd = 1.0; compare self-only energies of equal
    // capacitance structures scaled by (1.1)^2.
    const TechnologyNode &tech90 = itrsNode(ItrsNode::Nm90);
    CapacitanceMatrix caps(1);
    caps.setGround(0, FaradsPerMeter{1e-10});
    BusEnergyModel::Config config;
    config.include_repeaters = false;
    config.coupling_radius = 0;
    BusEnergyModel m130(tech130, caps, config);
    BusEnergyModel m90(tech90, caps, config);
    double e130 = m130.transitionEnergy(0, 1)[0];
    double e90 = m90.transitionEnergy(0, 1)[0];
    EXPECT_NEAR(e130 / e90, 1.1 * 1.1, 1e-9);
}

TEST(BusEnergy, InvalidConfigIsFatal)
{
    setAbortOnError(false);
    BusEnergyModel::Config config;
    config.wire_length = Meters{0.0};
    CapacitanceMatrix caps(2);
    EXPECT_THROW(BusEnergyModel(tech130, caps, config), FatalError);
    setAbortOnError(true);
}

} // anonymous namespace
} // namespace nanobus
