/**
 * @file
 * Unit tests for util/faultinject.hh.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "util/faultinject.hh"
#include "util/logging.hh"

namespace nanobus {
namespace {

class FaultInjectTest : public ::testing::Test
{
  protected:
    void SetUp() override { FaultInjector::instance().reset(); }
    void TearDown() override { FaultInjector::instance().reset(); }
};

TEST_F(FaultInjectTest, InactiveByDefault)
{
    EXPECT_FALSE(FaultInjector::active());
    EXPECT_FALSE(FaultInjector::instance().fireCallFault(
        FaultSite::LuFactor));
}

TEST_F(FaultInjectTest, FiresOnNthCallOnly)
{
    FaultInjector &fi = FaultInjector::instance();
    fi.armCallFault(FaultSite::LuFactor, 3);
    EXPECT_TRUE(FaultInjector::active());
    EXPECT_FALSE(fi.fireCallFault(FaultSite::LuFactor));
    EXPECT_FALSE(fi.fireCallFault(FaultSite::LuFactor));
    EXPECT_TRUE(fi.fireCallFault(FaultSite::LuFactor));
    EXPECT_FALSE(fi.fireCallFault(FaultSite::LuFactor));
    EXPECT_EQ(fi.callCount(FaultSite::LuFactor), 4u);
    EXPECT_EQ(fi.firedCount(FaultSite::LuFactor), 1u);
}

TEST_F(FaultInjectTest, RepeatCadence)
{
    FaultInjector &fi = FaultInjector::instance();
    fi.armCallFault(FaultSite::IntegrationStep, 2, 3);
    std::vector<bool> fired;
    for (int i = 0; i < 9; ++i)
        fired.push_back(fi.fireCallFault(FaultSite::IntegrationStep));
    // Fires on call 2, then every 3rd after: 2, 5, 8.
    std::vector<bool> expected = {false, true, false, false, true,
                                  false, false, true, false};
    EXPECT_EQ(fired, expected);
    EXPECT_EQ(fi.firedCount(FaultSite::IntegrationStep), 3u);
}

TEST_F(FaultInjectTest, SitesAreIndependent)
{
    FaultInjector &fi = FaultInjector::instance();
    fi.armCallFault(FaultSite::LuSolve, 1);
    EXPECT_FALSE(fi.fireCallFault(FaultSite::LuFactor));
    EXPECT_TRUE(fi.fireCallFault(FaultSite::LuSolve));
}

TEST_F(FaultInjectTest, CorruptLineFlipsOneCharacter)
{
    FaultInjector &fi = FaultInjector::instance();
    fi.armTraceCorruption(2);
    std::string first = "100 L 0000beef";
    std::string second = first;
    EXPECT_FALSE(fi.corruptLine(first));
    EXPECT_EQ(first, "100 L 0000beef");
    EXPECT_TRUE(fi.corruptLine(second));
    EXPECT_NE(second, "100 L 0000beef");
    EXPECT_EQ(second.size(), first.size());
    // Exactly one character differs, by one flipped bit.
    int diffs = 0;
    for (size_t i = 0; i < first.size(); ++i) {
        if (first[i] != second[i]) {
            ++diffs;
            EXPECT_EQ(first[i] ^ second[i], 0x40);
        }
    }
    EXPECT_EQ(diffs, 1);
}

TEST_F(FaultInjectTest, ResetDisarmsEverything)
{
    FaultInjector &fi = FaultInjector::instance();
    fi.armCallFault(FaultSite::LuFactor, 1);
    fi.reset();
    EXPECT_FALSE(FaultInjector::active());
    EXPECT_FALSE(fi.fireCallFault(FaultSite::LuFactor));
    EXPECT_EQ(fi.callCount(FaultSite::LuFactor), 1u);
}

TEST_F(FaultInjectTest, PerturbEntriesIsDeterministic)
{
    std::vector<double> a = {1.0, -2.0, 3.0, 0.0};
    std::vector<double> b = a;
    std::vector<double> original = a;
    FaultInjector::perturbEntries(a.data(), a.size(), 0.01, 99);
    FaultInjector::perturbEntries(b.data(), b.size(), 0.01, 99);
    EXPECT_EQ(a, b); // same seed, bitwise identical
    double max_shift = 0.0;
    bool any_shift = false;
    for (size_t i = 0; i < a.size(); ++i) {
        double shift = std::abs(a[i] - original[i]);
        max_shift = std::max(max_shift, shift);
        any_shift = any_shift || shift > 0.0;
    }
    EXPECT_TRUE(any_shift);
    EXPECT_LE(max_shift, 0.01 * 3.0); // bounded by magnitude * scale
}

TEST_F(FaultInjectTest, ZeroOrdinalPanics)
{
    setAbortOnError(false);
    EXPECT_THROW(FaultInjector::instance().armCallFault(
                     FaultSite::LuFactor, 0),
                 FatalError);
    setAbortOnError(true);
}

} // anonymous namespace
} // namespace nanobus
