/**
 * @file
 * Parameterized property tests over all encoding schemes: every
 * encoder must round-trip arbitrary data streams, respect its
 * declared widths, and be deterministic after reset.
 */

#include <gtest/gtest.h>

#include <tuple>

#include "encoding/encoder.hh"
#include "util/bitops.hh"
#include "util/random.hh"

namespace nanobus {
namespace {

using Param = std::tuple<EncodingScheme, unsigned>;

class EncoderProperty : public ::testing::TestWithParam<Param>
{
  protected:
    EncodingScheme scheme() const { return std::get<0>(GetParam()); }
    unsigned width() const { return std::get<1>(GetParam()); }
};

TEST_P(EncoderProperty, RoundTripsRandomStream)
{
    auto tx = makeEncoder(scheme(), width());
    auto rx = makeEncoder(scheme(), width());
    tx->reset(0);
    rx->reset(0);
    Rng rng(0xabcd ^ width());
    const uint64_t mask = lowMask(width());
    for (int i = 0; i < 2000; ++i) {
        uint64_t data = rng.next() & mask;
        uint64_t word = tx->encode(data);
        EXPECT_EQ(rx->decode(word), data) << "i " << i;
    }
}

TEST_P(EncoderProperty, RoundTripsSequentialStream)
{
    // Address-like traffic: mostly +4 strides (the regime the paper's
    // conclusions hinge on).
    auto tx = makeEncoder(scheme(), width());
    auto rx = makeEncoder(scheme(), width());
    tx->reset(0);
    rx->reset(0);
    Rng rng(0x1357);
    const uint64_t mask = lowMask(width());
    uint64_t addr = 0x40 & mask;
    for (int i = 0; i < 2000; ++i) {
        addr = rng.chance(0.85) ? (addr + 4) & mask
                                : rng.next() & mask;
        uint64_t word = tx->encode(addr);
        EXPECT_EQ(rx->decode(word), addr) << "i " << i;
    }
}

TEST_P(EncoderProperty, BusWordFitsBusWidth)
{
    auto enc = makeEncoder(scheme(), width());
    enc->reset(0);
    Rng rng(0x2468);
    const uint64_t bus_mask = lowMask(enc->busWidth());
    for (int i = 0; i < 500; ++i) {
        uint64_t word = enc->encode(rng.next() & lowMask(width()));
        EXPECT_EQ(word & ~bus_mask, 0ull);
    }
}

TEST_P(EncoderProperty, DeterministicAfterReset)
{
    auto a = makeEncoder(scheme(), width());
    auto b = makeEncoder(scheme(), width());
    a->reset(0);
    Rng rng(0x99);
    std::vector<uint64_t> stream;
    for (int i = 0; i < 200; ++i)
        stream.push_back(rng.next() & lowMask(width()));
    std::vector<uint64_t> first;
    for (uint64_t data : stream)
        first.push_back(a->encode(data));
    b->reset(0);
    for (size_t i = 0; i < stream.size(); ++i)
        EXPECT_EQ(b->encode(stream[i]), first[i]) << "i " << i;
}

TEST_P(EncoderProperty, ControlLinesWithinDeclaredBudget)
{
    auto enc = makeEncoder(scheme(), width());
    EXPECT_GE(enc->busWidth(), enc->dataWidth());
    EXPECT_LE(enc->busWidth(), enc->dataWidth() + 2);
}

INSTANTIATE_TEST_SUITE_P(
    AllSchemes, EncoderProperty,
    ::testing::Combine(
        ::testing::Values(EncodingScheme::Unencoded,
                          EncodingScheme::BusInvert,
                          EncodingScheme::OddEvenBusInvert,
                          EncodingScheme::CouplingDrivenBusInvert),
        ::testing::Values(4u, 8u, 16u, 32u)),
    [](const ::testing::TestParamInfo<Param> &info) {
        std::string name = schemeName(std::get<0>(info.param));
        for (char &c : name)
            if (c == '-')
                c = '_';
        return name + "_w" + std::to_string(std::get<1>(info.param));
    });

} // anonymous namespace
} // namespace nanobus
