/**
 * @file
 * Unit tests for the bus encoding schemes of Sec 5.2.
 */

#include <gtest/gtest.h>

#include "encoding/schemes.hh"
#include "util/bitops.hh"
#include "util/random.hh"

namespace nanobus {
namespace {

TEST(AdjacentCouplingCost, KnownPatterns)
{
    // Two adjacent lines toggling oppositely cost 4.
    EXPECT_EQ(adjacentCouplingCost(0b01, 0b10, 2), 4u);
    // One line switching next to a steady one costs 1.
    EXPECT_EQ(adjacentCouplingCost(0b00, 0b01, 2), 1u);
    // Both rising together costs 0.
    EXPECT_EQ(adjacentCouplingCost(0b00, 0b11, 2), 0u);
    // No transition costs 0.
    EXPECT_EQ(adjacentCouplingCost(0b10, 0b10, 2), 0u);
}

TEST(AdjacentCouplingCost, SumsOverPairs)
{
    // 0000 -> 0101: lines 0 and 2 rise. Pairs: (0,1) charge = 1,
    // (1,2) charge = 1, (2,3) charge = 1.
    EXPECT_EQ(adjacentCouplingCost(0b0000, 0b0101, 4), 3u);
    // 0101 -> 1010: all four lines move, alternating: 3 toggles.
    EXPECT_EQ(adjacentCouplingCost(0b0101, 0b1010, 4), 12u);
}

TEST(Unencoded, PassThrough)
{
    UnencodedBus enc(8);
    EXPECT_EQ(enc.busWidth(), 8u);
    EXPECT_EQ(enc.encode(0xab), 0xabu);
    EXPECT_EQ(enc.decode(0xab), 0xabu);
}

TEST(Unencoded, MasksToWidth)
{
    UnencodedBus enc(4);
    EXPECT_EQ(enc.encode(0xff), 0x0fu);
}

TEST(BusInvertCoding, InvertsWhenMajorityFlips)
{
    BusInvert enc(8);
    enc.reset(0x00);
    // 7 of 8 bits would flip: invert.
    uint64_t word = enc.encode(0x7f);
    EXPECT_TRUE(bitOf(word, 8));
    EXPECT_EQ(word & 0xff, 0x80u);
    EXPECT_EQ(enc.decode(word), 0x7fu);
}

TEST(BusInvertCoding, PassesWhenMinorityFlips)
{
    BusInvert enc(8);
    enc.reset(0x00);
    uint64_t word = enc.encode(0x03);
    EXPECT_FALSE(bitOf(word, 8));
    EXPECT_EQ(word & 0xff, 0x03u);
    EXPECT_EQ(enc.decode(word), 0x03u);
}

TEST(BusInvertCoding, TieKeepsInvertLineSteady)
{
    BusInvert enc(8);
    enc.reset(0x00);
    // Exactly 4 of 8 flip: no inversion (invert line was low).
    uint64_t word = enc.encode(0x0f);
    EXPECT_FALSE(bitOf(word, 8));

    // Get into an inverted state, then present a tie: stays inverted.
    enc.reset(0x00);
    uint64_t inverted = enc.encode(0xff); // 8 flips: invert
    ASSERT_TRUE(bitOf(inverted, 8));
    ASSERT_EQ(inverted & 0xff, 0x00u);
    // Payload on bus is 0x00; data 0x0f would flip 4 payload bits
    // either way: keep invert high.
    uint64_t tie = enc.encode(0x0f);
    EXPECT_TRUE(bitOf(tie, 8));
    EXPECT_EQ(enc.decode(tie), 0x0fu);
}

TEST(BusInvertCoding, BoundsSelfTransitionsToHalfWidth)
{
    BusInvert enc(16);
    enc.reset(0);
    uint64_t prev = 0;
    for (uint64_t data : {0xffffull, 0x0000ull, 0xaaaaull, 0x5555ull,
                          0xf0f0ull, 0x1234ull, 0xedcbull}) {
        uint64_t word = enc.encode(data);
        // Hamming distance on the full 17-line bus is at most
        // width/2 + 1 (payload bound plus the invert line itself).
        EXPECT_LE(hammingDistance(prev, word, 17), 9u);
        EXPECT_EQ(enc.decode(word), data);
        prev = word;
    }
}

TEST(OddEvenBI, BusWidthAddsTwoLines)
{
    OddEvenBusInvert enc(8);
    EXPECT_EQ(enc.busWidth(), 10u);
}

TEST(OddEvenBI, DecodesAllFourModes)
{
    OddEvenBusInvert enc(8);
    // Construct bus words for each mode by hand and decode.
    // Layout: [even_inv][payload<<1][odd_inv].
    uint64_t data = 0x5a;
    for (unsigned mode = 0; mode < 4; ++mode) {
        bool inv_even = mode & 1;
        bool inv_odd = mode & 2;
        uint64_t payload = data;
        if (inv_even)
            payload ^= evenMask(8);
        if (inv_odd)
            payload ^= oddMask(8);
        uint64_t word = (static_cast<uint64_t>(inv_even) << 9) |
            (payload << 1) | static_cast<uint64_t>(inv_odd);
        EXPECT_EQ(enc.decode(word), data) << "mode " << mode;
    }
}

TEST(OddEvenBI, ChoosesZeroCostModeForRepeat)
{
    OddEvenBusInvert enc(8);
    enc.reset(0);
    uint64_t first = enc.encode(0x33);
    uint64_t second = enc.encode(0x33);
    // Re-sending the same data: the no-invert mode repeats the bus
    // word exactly (cost 0), so nothing may change.
    EXPECT_EQ(first, second);
}

TEST(OddEvenBI, NeverWorseThanPlainTransmission)
{
    OddEvenBusInvert enc(8);
    enc.reset(0);
    Rng rng(5);
    uint64_t prev_bus = 0;
    for (int i = 0; i < 500; ++i) {
        uint64_t data = rng.next() & 0xff;
        // Cost of transmitting unencoded in the same layout.
        uint64_t plain = (data << 1);
        unsigned plain_cost =
            adjacentCouplingCost(prev_bus, plain, enc.busWidth());
        uint64_t word = enc.encode(data);
        unsigned coded_cost =
            adjacentCouplingCost(prev_bus, word, enc.busWidth());
        EXPECT_LE(coded_cost, plain_cost);
        EXPECT_EQ(enc.decode(word), data);
        prev_bus = word;
    }
}

TEST(CouplingBI, InvertsOnlyOnStrictWin)
{
    CouplingDrivenBusInvert enc(8);
    enc.reset(0);
    // From an all-zero bus, any data's inverted form adds an invert
    // line transition; a low-activity word stays plain.
    uint64_t word = enc.encode(0x01);
    EXPECT_FALSE(bitOf(word, 8));
    EXPECT_EQ(enc.decode(word), 0x01u);
}

TEST(CouplingBI, DecodesInvertedWords)
{
    CouplingDrivenBusInvert enc(8);
    uint64_t word = (1ull << 8) | 0x0f; // inverted payload
    EXPECT_EQ(enc.decode(word), 0xf0u);
}

TEST(CouplingBI, CouplingCostNeverWorseThanPlain)
{
    CouplingDrivenBusInvert enc(8);
    enc.reset(0);
    Rng rng(9);
    uint64_t prev_bus = 0;
    for (int i = 0; i < 500; ++i) {
        uint64_t data = rng.next() & 0xff;
        unsigned plain_cost =
            adjacentCouplingCost(prev_bus, data, enc.busWidth());
        uint64_t word = enc.encode(data);
        unsigned coded_cost =
            adjacentCouplingCost(prev_bus, word, enc.busWidth());
        EXPECT_LE(coded_cost, plain_cost);
        EXPECT_EQ(enc.decode(word), data);
        prev_bus = word;
    }
}

TEST(AdjacentCouplingCost, BitParallelMatchesReference)
{
    Rng rng(0xfeed);
    for (unsigned width : {2u, 3u, 8u, 17u, 32u, 34u, 63u, 64u}) {
        for (int i = 0; i < 2000; ++i) {
            uint64_t prev = rng.next();
            uint64_t next = rng.next();
            EXPECT_EQ(adjacentCouplingCost(prev, next, width),
                      adjacentCouplingCostReference(prev, next,
                                                    width))
                << "width " << width << " prev " << prev << " next "
                << next;
        }
    }
}

TEST(AdjacentCouplingCost, DegenerateWidths)
{
    EXPECT_EQ(adjacentCouplingCost(0x1, 0x0, 1), 0u);
    EXPECT_EQ(adjacentCouplingCost(0, ~0ull, 0), 0u);
}

TEST(Factory, ProducesAllSchemes)
{
    for (EncodingScheme scheme :
         {EncodingScheme::Unencoded, EncodingScheme::BusInvert,
          EncodingScheme::OddEvenBusInvert,
          EncodingScheme::CouplingDrivenBusInvert}) {
        auto enc = makeEncoder(scheme, 32);
        ASSERT_NE(enc, nullptr);
        EXPECT_EQ(enc->dataWidth(), 32u);
        EXPECT_GE(enc->busWidth(), 32u);
        EXPECT_EQ(enc->name(), schemeName(scheme));
    }
}

TEST(Factory, PaperSchemesMatchFig3)
{
    const auto &schemes = paperSchemes();
    ASSERT_EQ(schemes.size(), 4u);
    EXPECT_EQ(schemes[0], EncodingScheme::BusInvert);
    EXPECT_EQ(schemes[1], EncodingScheme::OddEvenBusInvert);
    EXPECT_EQ(schemes[2], EncodingScheme::CouplingDrivenBusInvert);
    EXPECT_EQ(schemes[3], EncodingScheme::Unencoded);
}

} // anonymous namespace
} // namespace nanobus
