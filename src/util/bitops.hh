/**
 * @file
 * Bit-manipulation helpers shared by the energy model and encoders.
 *
 * Bus words are carried as uint64_t with bit i holding the logic value
 * of bus line i (line 0 = LSB). Widths up to 64 are supported.
 */

#ifndef NANOBUS_UTIL_BITOPS_HH
#define NANOBUS_UTIL_BITOPS_HH

#include <bit>
#include <cstdint>

namespace nanobus {

/** Mask with the low `width` bits set; width must be in [0, 64]. */
inline constexpr uint64_t
lowMask(unsigned width)
{
    return width >= 64 ? ~0ull : ((1ull << width) - 1);
}

/** Logic value of bit i in word. */
inline constexpr bool
bitOf(uint64_t word, unsigned i)
{
    return (word >> i) & 1ull;
}

/** Word with bit i set to value. */
inline constexpr uint64_t
withBit(uint64_t word, unsigned i, bool value)
{
    return value ? (word | (1ull << i)) : (word & ~(1ull << i));
}

/** Number of set bits. */
inline constexpr unsigned
popcount(uint64_t word)
{
    return static_cast<unsigned>(std::popcount(word));
}

/** Hamming distance between two words over the low `width` bits. */
inline constexpr unsigned
hammingDistance(uint64_t a, uint64_t b, unsigned width)
{
    return popcount((a ^ b) & lowMask(width));
}

/** Mask selecting even bit positions (0, 2, 4, ...) within width. */
inline constexpr uint64_t
evenMask(unsigned width)
{
    return 0x5555555555555555ull & lowMask(width);
}

/** Mask selecting odd bit positions (1, 3, 5, ...) within width. */
inline constexpr uint64_t
oddMask(unsigned width)
{
    return 0xaaaaaaaaaaaaaaaaull & lowMask(width);
}

/**
 * In-place 64x64 bit-matrix transpose.
 *
 * `a` is 64 rows of 64 bits: row r is a[r], column c is bit c (LSB =
 * column 0). After the call, bit r of a[c] equals what bit c of a[r]
 * was. The packed transition kernel uses this to turn 64 bus words
 * (one word per cycle) into 64 line lanes (one u64 per line, bit k =
 * the line's value at cycle k).
 *
 * Classic Hacker's Delight recursive block swap. The high-half mask
 * with `(a[k + j] << j)` is the orientation that yields the true
 * transpose in this LSB-column convention — the low-half variant
 * produces the anti-transpose (pinned in tests/util/test_bitops.cc).
 */
inline constexpr void
transposeBits64(uint64_t a[64])
{
    uint64_t m = 0xffffffff00000000ull;
    for (unsigned j = 32; j != 0; j >>= 1, m ^= m >> j) {
        for (unsigned k = 0; k < 64; k = (k + j + 1) & ~j) {
            uint64_t t = (a[k] ^ (a[k + j] << j)) & m;
            a[k] ^= t;
            a[k + j] ^= t >> j;
        }
    }
}

} // namespace nanobus

#endif // NANOBUS_UTIL_BITOPS_HH
