/**
 * @file
 * Edge-case coverage for BusEncoder::encodeBatch: the devirtualized
 * state-hoisted loops (BusInvert, OddEvenBusInvert,
 * CouplingDrivenBusInvert) and the element-wise loop (Unencoded),
 * each against the per-word encode(). Empty batches, the width-1
 * degenerate bus, all-repeated-word batches, batches after a
 * stateful prefix, and inputs with garbage above the data width.
 * Every case asserts not only the emitted bus words but that the
 * encoder's latched state afterwards equals the per-word path's
 * state — the hoist-restore bookkeeping is exactly what these
 * corners stress.
 *
 * The kernel-state pins at the bottom drive whole BusSimulators
 * (Scalar vs Packed energy kernel) through interval-straddling
 * batches and require byte-identical encoder captureState(): the
 * energy kernel choice must never reach the encode stage.
 */

#include <gtest/gtest.h>

#include <memory>
#include <span>
#include <vector>

#include "encoding/encoder.hh"
#include "fabric/bus_sim.hh"
#include "util/bitops.hh"
#include "util/random.hh"

namespace nanobus {
namespace {

const std::vector<EncodingScheme> &
invertFamily()
{
    static const std::vector<EncodingScheme> schemes = {
        EncodingScheme::BusInvert,
        EncodingScheme::OddEvenBusInvert,
        EncodingScheme::CouplingDrivenBusInvert,
    };
    return schemes;
}

/**
 * Drive `batched` with one encodeBatch over `words` and `ref` with
 * the per-word loop, expecting identical outputs; then prove the
 * *states* converged by encoding a probe sequence through both —
 * any divergence in the latched bus word or per-scheme flags shows
 * up in the probe.
 */
void
expectBatchMatchesPerWord(BusEncoder &batched, BusEncoder &ref,
                          const std::vector<uint64_t> &words)
{
    std::vector<uint64_t> expect(words.size());
    for (size_t i = 0; i < words.size(); ++i)
        expect[i] = ref.encode(words[i]);

    std::vector<uint64_t> got(words.size());
    batched.encodeBatch(std::span<const uint64_t>(words),
                        std::span<uint64_t>(got));
    EXPECT_EQ(got, expect);

    const uint64_t probes[] = {0x0, 0x1, ~0ull, 0x5a5a5a5a, 0x1};
    for (uint64_t probe : probes)
        EXPECT_EQ(batched.encode(probe), ref.encode(probe))
            << "state diverged (probe 0x" << std::hex << probe << ")";
}

TEST(EncodeBatchEdges, EmptyBatchLeavesStateUntouched)
{
    for (EncodingScheme scheme : invertFamily()) {
        SCOPED_TRACE(schemeName(scheme));
        std::unique_ptr<BusEncoder> batched = makeEncoder(scheme, 32);
        std::unique_ptr<BusEncoder> ref = makeEncoder(scheme, 32);
        // Advance both to a non-initial state first, so "untouched"
        // is not vacuously the reset state.
        batched->encode(0xcafef00d);
        ref->encode(0xcafef00d);
        expectBatchMatchesPerWord(*batched, *ref, {});
    }
}

TEST(EncodeBatchEdges, WidthOneBus)
{
    // The degenerate 1-bit payload: invert decisions reduce to
    // single-transition counts and the control lines dominate the
    // bus word. Alternating, constant, and repeated-tail streams.
    const std::vector<std::vector<uint64_t>> streams = {
        {0, 1, 0, 1, 0, 1, 0, 1},
        {1, 1, 1, 1, 1},
        {0, 0, 1, 1, 1, 0},
    };
    for (EncodingScheme scheme : invertFamily()) {
        for (size_t s = 0; s < streams.size(); ++s) {
            SCOPED_TRACE(testing::Message()
                         << schemeName(scheme) << " stream " << s);
            std::unique_ptr<BusEncoder> batched =
                makeEncoder(scheme, 1);
            std::unique_ptr<BusEncoder> ref = makeEncoder(scheme, 1);
            ASSERT_EQ(batched->dataWidth(), 1u);
            ASSERT_GE(batched->busWidth(), 2u); // payload + control
            expectBatchMatchesPerWord(*batched, *ref, streams[s]);
        }
    }
}

TEST(EncodeBatchEdges, AllRepeatedWordsBatch)
{
    // A batch of identical words: zero transitions after the first,
    // so the invert heuristics must keep emitting the same bus word
    // and must NOT flip state mid-run. The first word is chosen with
    // high weight so BI-style "invert when > w/2 transitions" fires
    // on entry, making a latched-state bug visible immediately.
    for (EncodingScheme scheme : invertFamily()) {
        SCOPED_TRACE(schemeName(scheme));
        std::unique_ptr<BusEncoder> batched = makeEncoder(scheme, 16);
        std::unique_ptr<BusEncoder> ref = makeEncoder(scheme, 16);
        const std::vector<uint64_t> words(64, 0xffffu);
        expectBatchMatchesPerWord(*batched, *ref, words);

        // All bus words after the first must be identical (the line
        // holds its value).
        std::vector<uint64_t> bus(words.size());
        std::unique_ptr<BusEncoder> fresh = makeEncoder(scheme, 16);
        fresh->encodeBatch(std::span<const uint64_t>(words),
                           std::span<uint64_t>(bus));
        for (size_t i = 2; i < bus.size(); ++i)
            EXPECT_EQ(bus[i], bus[1]) << "index " << i;
    }
}

TEST(EncodeBatchEdges, RepeatedWordsAfterStatefulPrefix)
{
    // Split point inside a repeated run: encode a noisy prefix
    // per-word, then the repeated tail as one batch, and require the
    // state to match the pure per-word path. Catches overrides that
    // re-derive state from the batch instead of the latch.
    for (EncodingScheme scheme : paperSchemes()) {
        SCOPED_TRACE(schemeName(scheme));
        std::unique_ptr<BusEncoder> batched = makeEncoder(scheme, 8);
        std::unique_ptr<BusEncoder> ref = makeEncoder(scheme, 8);
        const uint64_t prefix[] = {0xff, 0x00, 0xaa, 0x55};
        for (uint64_t w : prefix) {
            batched->encode(w);
            ref->encode(w);
        }
        expectBatchMatchesPerWord(*batched, *ref,
                                  std::vector<uint64_t>(32, 0xaa));
    }
}

// ------------------------------------------------------------------ //
// Every scheme, the element-wise Unencoded loop included.

TEST(EncodeBatchSimd, EmptyBatchLeavesStateUntouched)
{
    for (EncodingScheme scheme : paperSchemes()) {
        SCOPED_TRACE(schemeName(scheme));
        std::unique_ptr<BusEncoder> batched = makeEncoder(scheme, 32);
        std::unique_ptr<BusEncoder> ref = makeEncoder(scheme, 32);
        batched->encode(0xcafef00d);
        ref->encode(0xcafef00d);
        expectBatchMatchesPerWord(*batched, *ref, {});
    }
}

TEST(EncodeBatchSimd, WidthOneBus)
{
    const std::vector<std::vector<uint64_t>> streams = {
        {0, 1, 0, 1, 0, 1, 0, 1},
        {1, 1, 1, 1, 1},
        {0, 0, 1, 1, 1, 0},
    };
    for (EncodingScheme scheme : paperSchemes()) {
        for (size_t s = 0; s < streams.size(); ++s) {
            SCOPED_TRACE(testing::Message()
                         << schemeName(scheme) << " stream " << s);
            std::unique_ptr<BusEncoder> batched =
                makeEncoder(scheme, 1);
            std::unique_ptr<BusEncoder> ref = makeEncoder(scheme, 1);
            ASSERT_EQ(batched->dataWidth(), 1u);
            expectBatchMatchesPerWord(*batched, *ref, streams[s]);
        }
    }
}

TEST(EncodeBatchSimd, RepeatedWordsBatch)
{
    for (EncodingScheme scheme : paperSchemes()) {
        SCOPED_TRACE(schemeName(scheme));
        std::unique_ptr<BusEncoder> batched = makeEncoder(scheme, 16);
        std::unique_ptr<BusEncoder> ref = makeEncoder(scheme, 16);
        expectBatchMatchesPerWord(
            *batched, *ref, std::vector<uint64_t>(70, 0xffffu));
    }
}

TEST(EncodeBatchSimd, GarbageAboveDataWidthIsMasked)
{
    // Inputs with every bit above the data width set: the batch
    // loops mask each word and must match the per-word encode()
    // exactly. Length 70 is an odd run, so no
    // unrolled loop can hide a mishandled tail.
    for (EncodingScheme scheme : paperSchemes()) {
        for (unsigned width : {1u, 7u, 31u, 32u, 33u, 62u}) {
            SCOPED_TRACE(testing::Message()
                         << schemeName(scheme) << " width "
                         << width);
            std::unique_ptr<BusEncoder> batched =
                makeEncoder(scheme, width);
            std::unique_ptr<BusEncoder> ref =
                makeEncoder(scheme, width);
            std::vector<uint64_t> words(70);
            uint64_t x = 0x9e3779b97f4a7c15ull;
            for (uint64_t &w : words) {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                w = x | ~((width == 64) ? ~0ull
                                        : ((1ull << width) - 1));
            }
            expectBatchMatchesPerWord(*batched, *ref, words);
        }
    }
}

// ------------------------------------------------------------------ //
// Lane reference: the element-wise batch loop against its closed
// form per element, over run lengths from 0 to 100 (every short tail
// an unrolled or vectorized loop could mishandle) and adversarial
// fills. The SimdParity suite name is kept from the lane-op parity
// suite these checks replace.

const std::vector<size_t> laneLengths = {0,  1,  2,  3,  4,  5,  7,
                                         8,  15, 16, 31, 33, 64, 100};

/** All-zeros, all-ones, alternating bits, alternating words, and
 *  random words, each of length n. */
std::vector<std::vector<uint64_t>>
laneFills(Rng &rng, size_t n)
{
    std::vector<std::vector<uint64_t>> fills;
    fills.emplace_back(n, 0ull);
    fills.emplace_back(n, ~0ull);
    fills.emplace_back(n, 0x5555555555555555ull);
    std::vector<uint64_t> lanes(n), random(n);
    for (size_t k = 0; k < n; ++k) {
        lanes[k] = (k & 1) ? ~0ull : 0ull;
        random[k] = rng.next();
    }
    fills.push_back(std::move(lanes));
    fills.push_back(std::move(random));
    return fills;
}

TEST(SimdParity, MaskInto)
{
    Rng rng(0xa5a5);
    for (size_t n : laneLengths) {
        for (const std::vector<uint64_t> &src : laneFills(rng, n)) {
            for (unsigned width : {1u, 31u, 32u, 33u, 62u}) {
                SCOPED_TRACE(testing::Message()
                             << "n=" << n << " width=" << width);
                std::vector<uint64_t> want(n);
                for (size_t k = 0; k < n; ++k)
                    want[k] = src[k] & lowMask(width);
                std::vector<uint64_t> bus(n, 0xdeadull);
                makeEncoder(EncodingScheme::Unencoded, width)
                    ->encodeBatch(src, bus);
                EXPECT_EQ(bus, want);
            }
        }
    }
}

// ------------------------------------------------------------------ //
// Energy-kernel independence: the encode stage must be untouched by
// the Scalar/Packed kernel choice.

const TechnologyNode &tech130 = itrsNode(ItrsNode::Nm130);

BusSimConfig
kernelConfig(EncodingScheme scheme, TransitionKernel kernel)
{
    BusSimConfig config;
    config.scheme = scheme;
    config.data_width = 16;
    config.interval_cycles = 100;
    config.thermal.stack_mode = StackMode::None;
    config.kernel = kernel;
    return config;
}

TEST(EncodeBatchKernels, IntervalStraddlingBatchesLeaveIdenticalState)
{
    // Drive a Scalar-kernel and a Packed-kernel simulator through
    // the same traffic in batches that straddle interval boundaries
    // (interval = 100 cycles, batch spans ~180) with idle gaps
    // inside the batch, then require the encoders' captured state to
    // be byte-identical, for every scheme.
    for (EncodingScheme scheme : paperSchemes()) {
        SCOPED_TRACE(schemeName(scheme));
        BusSimulator scalar_sim(
            tech130, kernelConfig(scheme, TransitionKernel::Scalar));
        BusSimulator packed_sim(
            tech130, kernelConfig(scheme, TransitionKernel::Packed));

        uint64_t x = 0x51caffe;
        uint64_t cycle = 0;
        for (int batch = 0; batch < 6; ++batch) {
            BusBatch a, b;
            for (int k = 0; k < 40; ++k) {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                cycle += 1 + (x % 9); // idle gaps inside the batch
                a.add(cycle, static_cast<uint32_t>(x));
                b.add(cycle, static_cast<uint32_t>(x));
            }
            scalar_sim.transmitBatch(a);
            packed_sim.transmitBatch(b);

            std::vector<uint64_t> state_s, state_p;
            scalar_sim.encoder().captureState(state_s);
            packed_sim.encoder().captureState(state_p);
            EXPECT_EQ(state_p, state_s) << "batch " << batch;
        }
        EXPECT_EQ(packed_sim.currentCycle(),
                  scalar_sim.currentCycle());
        EXPECT_EQ(packed_sim.transmissions(),
                  scalar_sim.transmissions());
        EXPECT_EQ(packed_sim.samples().size(),
                  scalar_sim.samples().size());
    }
}

} // namespace
} // namespace nanobus
