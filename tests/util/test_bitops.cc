/**
 * @file
 * Unit tests for util/bitops.hh.
 */

#include <gtest/gtest.h>

#include "util/bitops.hh"

// src/CMakeLists.txt gives nanobus_util a PUBLIC -mpopcnt on x86-64,
// so std::popcount inlines the instruction in every target that
// links the library. A test translation unit without it means the
// option was lost (made PRIVATE, or the target stopped linking
// nanobus_util) and the count kernels fell back to libgcc calls.
#if defined(__x86_64__) && !defined(__POPCNT__)
#error "x86-64 build without POPCNT: nanobus_util's -mpopcnt is not PUBLIC"
#endif

namespace nanobus {
namespace {

TEST(LowMask, ZeroWidthIsEmpty)
{
    EXPECT_EQ(lowMask(0), 0ull);
}

TEST(LowMask, FullWidthIsAllOnes)
{
    EXPECT_EQ(lowMask(64), ~0ull);
}

TEST(LowMask, PartialWidths)
{
    EXPECT_EQ(lowMask(1), 0x1ull);
    EXPECT_EQ(lowMask(8), 0xffull);
    EXPECT_EQ(lowMask(32), 0xffffffffull);
    EXPECT_EQ(lowMask(33), 0x1ffffffffull);
}

TEST(BitOf, ReadsIndividualBits)
{
    uint64_t word = 0b1010;
    EXPECT_FALSE(bitOf(word, 0));
    EXPECT_TRUE(bitOf(word, 1));
    EXPECT_FALSE(bitOf(word, 2));
    EXPECT_TRUE(bitOf(word, 3));
}

TEST(WithBit, SetsAndClears)
{
    EXPECT_EQ(withBit(0, 5, true), 1ull << 5);
    EXPECT_EQ(withBit(1ull << 5, 5, false), 0ull);
    // Idempotent.
    EXPECT_EQ(withBit(1ull << 5, 5, true), 1ull << 5);
    EXPECT_EQ(withBit(0, 5, false), 0ull);
}

TEST(Popcount, MatchesKnownValues)
{
    EXPECT_EQ(popcount(0), 0u);
    EXPECT_EQ(popcount(1), 1u);
    EXPECT_EQ(popcount(0xff), 8u);
    EXPECT_EQ(popcount(~0ull), 64u);
    EXPECT_EQ(popcount(0x5555555555555555ull), 32u);
}

TEST(HammingDistance, RespectsWidth)
{
    // Bits above the width must not count.
    EXPECT_EQ(hammingDistance(0xf0, 0x0f, 8), 8u);
    EXPECT_EQ(hammingDistance(0xf0, 0x0f, 4), 4u);
    EXPECT_EQ(hammingDistance(0xffffffff00000000ull, 0, 32), 0u);
    EXPECT_EQ(hammingDistance(0xffffffff00000000ull, 0, 64), 32u);
}

TEST(HammingDistance, IdenticalWordsIsZero)
{
    EXPECT_EQ(hammingDistance(0xdeadbeef, 0xdeadbeef, 32), 0u);
}

TEST(EvenOddMask, PartitionTheWord)
{
    for (unsigned width : {1u, 2u, 7u, 8u, 32u, 33u, 64u}) {
        EXPECT_EQ(evenMask(width) & oddMask(width), 0ull)
            << "width " << width;
        EXPECT_EQ(evenMask(width) | oddMask(width), lowMask(width))
            << "width " << width;
    }
}

TEST(EvenOddMask, EvenHoldsBitZero)
{
    EXPECT_TRUE(bitOf(evenMask(8), 0));
    EXPECT_FALSE(bitOf(oddMask(8), 0));
    EXPECT_TRUE(bitOf(oddMask(8), 1));
}

/** Naive bit-gather transpose: out row r, bit c = in row c, bit r.
 *  This pins the orientation convention (rows indexed by array
 *  position, columns by bit position, LSB = column 0) that the
 *  packed energy kernel depends on. */
void
naiveTranspose(uint64_t out[64], const uint64_t in[64])
{
    for (unsigned r = 0; r < 64; ++r) {
        uint64_t row = 0;
        for (unsigned c = 0; c < 64; ++c)
            row = withBit(row, c, bitOf(in[c], r));
        out[r] = row;
    }
}

TEST(TransposeBits64, MatchesNaiveGatherOnRandomMatrices)
{
    uint64_t state = 0x243f6a8885a308d3ull;
    auto next = [&state] {
        // SplitMix64 step, self-contained so the test has no RNG
        // dependency.
        state += 0x9e3779b97f4a7c15ull;
        uint64_t z = state;
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        return z ^ (z >> 31);
    };
    for (int trial = 0; trial < 200; ++trial) {
        uint64_t a[64], want[64];
        for (uint64_t &row : a)
            row = next();
        naiveTranspose(want, a);
        transposeBits64(a);
        for (unsigned r = 0; r < 64; ++r)
            EXPECT_EQ(a[r], want[r])
                << "trial " << trial << " row " << r;
    }
}

TEST(TransposeBits64, SingleBitLandsTransposed)
{
    uint64_t a[64] = {};
    a[3] = 1ull << 41; // row 3, column 41
    transposeBits64(a);
    for (unsigned r = 0; r < 64; ++r)
        EXPECT_EQ(a[r], r == 41 ? (1ull << 3) : 0ull) << "row " << r;
}

TEST(TransposeBits64, IsAnInvolution)
{
    uint64_t a[64];
    for (unsigned r = 0; r < 64; ++r)
        a[r] = (0x0123456789abcdefull * (r + 1)) ^ (r << 7);
    uint64_t orig[64];
    for (unsigned r = 0; r < 64; ++r)
        orig[r] = a[r];
    transposeBits64(a);
    transposeBits64(a);
    for (unsigned r = 0; r < 64; ++r)
        EXPECT_EQ(a[r], orig[r]) << "row " << r;
}

} // anonymous namespace
} // namespace nanobus
