/**
 * @file
 * Packed transition kernel pins (energy/packed.hh + the Packed
 * branches of BusEnergyModel):
 *
 *  - exact integer counts against a naive per-word reference, across
 *    widths straddling the 64-cycle lane boundary and run lengths
 *    straddling block boundaries;
 *  - stale-tail regression: garbage bits above the bus width — in
 *    the input words, in the unused high bits of a tail block, or
 *    left over after reset() — must never leak into the counts;
 *  - bitwise split-invariance of the packed path under any chunking
 *    of the same word stream;
 *  - packed-vs-scalar model agreement to rounding, with the final
 *    transition's lastBreakdown()/lastLineEnergy() bitwise equal;
 *  - PackedState capture/restore round-trips and the error paths
 *    (shape mismatches, restoreAccumulation under Packed).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "energy/bus_energy.hh"
#include "energy/packed.hh"
#include "energy/transition.hh"
#include "util/bitops.hh"
#include "util/random.hh"

namespace nanobus {
namespace {

const TechnologyNode &tech130 = itrsNode(ItrsNode::Nm130);

BusEnergyModel
makeModel(unsigned width, unsigned radius, TransitionKernel kernel,
          uint64_t initial_word = 0)
{
    BusEnergyModel::Config config;
    config.coupling_radius = radius;
    config.kernel = kernel;
    config.initial_word = initial_word;
    return BusEnergyModel(
        tech130, CapacitanceMatrix::analytical(tech130, width),
        config);
}

/** Line delta of the transition prev->next: -1, 0, or +1. */
int
lineDelta(uint64_t prev, uint64_t next, unsigned i)
{
    const int before = bitOf(prev, i) ? 1 : 0;
    const int after = bitOf(next, i) ? 1 : 0;
    return after - before;
}

/** Naive per-word counts: the ground truth the packed block kernel
 *  must reproduce exactly. */
struct NaiveCounts
{
    std::vector<uint64_t> self;
    /** Σ couplingFactor(v_i, v_j) over all cycles, per (i, j). */
    std::vector<uint64_t> coupling_sum; // width x width, row-major

    NaiveCounts(unsigned width, uint64_t initial,
                std::span<const uint64_t> words)
        : self(width, 0),
          coupling_sum(static_cast<size_t>(width) * width, 0)
    {
        const uint64_t mask = lowMask(width);
        uint64_t prev = initial & mask;
        for (uint64_t raw : words) {
            const uint64_t next = raw & mask;
            for (unsigned i = 0; i < width; ++i) {
                const int vi = lineDelta(prev, next, i);
                if (vi == 0)
                    continue;
                ++self[i];
                for (unsigned j = 0; j < width; ++j) {
                    if (j == i)
                        continue;
                    const int vj = lineDelta(prev, next, j);
                    coupling_sum[static_cast<size_t>(i) * width + j]
                        += static_cast<uint64_t>(vi * vi - vi * vj);
                }
            }
            prev = next;
        }
    }
};

void
expectCountsMatchNaive(const PackedTransitionCounts &counts,
                       const NaiveCounts &naive, unsigned width)
{
    for (unsigned i = 0; i < width; ++i)
        EXPECT_EQ(counts.selfCount(i), naive.self[i]) << "line " << i;
    for (unsigned i = 0; i < width; ++i) {
        for (unsigned j = 0; j < width; ++j) {
            if (i == j)
                continue;
            const unsigned d = i < j ? j - i : i - j;
            if (d > counts.storedRadius())
                continue;
            const int64_t got =
                static_cast<int64_t>(counts.selfCount(i)) +
                counts.pairDeviationAt(i, j);
            const uint64_t want =
                naive.coupling_sum[static_cast<size_t>(i) * width +
                                   j];
            EXPECT_EQ(got, static_cast<int64_t>(want))
                << "pair (" << i << ", " << j << ")";
        }
    }
}

TEST(PackedCounts, MatchNaiveAcrossWidthsAndRunLengths)
{
    Rng rng(0xbead5);
    for (unsigned width : {1u, 5u, 31u, 32u, 33u, 63u, 64u}) {
        for (size_t run : {size_t(1), size_t(63), size_t(64),
                           size_t(65), size_t(129)}) {
            SCOPED_TRACE(testing::Message()
                         << "width=" << width << " run=" << run);
            std::vector<uint64_t> words(run);
            for (uint64_t &w : words)
                w = rng.next();
            const uint64_t initial = rng.next();
            const unsigned radius = width == 1 ? 0 : width / 2;
            PackedTransitionCounts counts(width, radius, initial);
            counts.process(words);
            expectCountsMatchNaive(
                counts, NaiveCounts(width, initial, words), width);
            EXPECT_EQ(counts.prevWord(),
                      words.back() & lowMask(width));
        }
    }
}

TEST(PackedCounts, RadiusZeroStoresNoPairs)
{
    Rng rng(0x0);
    std::vector<uint64_t> words(100);
    for (uint64_t &w : words)
        w = rng.next();
    PackedTransitionCounts counts(16, 0, 0);
    counts.process(words);
    EXPECT_EQ(counts.storedRadius(), 0u);
    EXPECT_TRUE(counts.pairDeviations().empty());
    EXPECT_EQ(counts.pairDeviationAt(3, 4), 0);
    expectCountsMatchNaive(counts, NaiveCounts(16, 0, words), 16);
}

TEST(PackedCounts, SplitInvarianceIsExact)
{
    Rng rng(0x5bead);
    const unsigned width = 33;
    const size_t n = 300;
    std::vector<uint64_t> words(n);
    for (uint64_t &w : words)
        w = rng.next();

    PackedTransitionCounts whole(width, width - 1, 42);
    whole.process(words);

    for (size_t chunk : {size_t(1), size_t(7), size_t(64),
                         size_t(65), size_t(299)}) {
        SCOPED_TRACE(testing::Message() << "chunk=" << chunk);
        PackedTransitionCounts split(width, width - 1, 42);
        for (size_t k = 0; k < n; k += chunk) {
            const size_t len = std::min(chunk, n - k);
            split.process(
                std::span<const uint64_t>(words).subspan(k, len));
        }
        EXPECT_EQ(split.prevWord(), whole.prevWord());
        for (unsigned i = 0; i < width; ++i)
            EXPECT_EQ(split.selfCount(i), whole.selfCount(i));
        const std::span<const int64_t> a = split.pairDeviations();
        const std::span<const int64_t> b = whole.pairDeviations();
        ASSERT_EQ(a.size(), b.size());
        for (size_t k = 0; k < a.size(); ++k)
            EXPECT_EQ(a[k], b[k]) << "slot " << k;
    }
}

TEST(PackedCounts, StaleTailGarbageNeverLeaks)
{
    // Three tail hazards at once: input words carrying garbage above
    // the bus width, a tail block shorter than 64 cycles, and a held
    // word whose high bits were garbage when latched. The counts must
    // equal the naive reference over *masked* words in every case.
    Rng rng(0x7a11);
    for (unsigned width : {1u, 31u, 33u, 63u}) {
        SCOPED_TRACE(testing::Message() << "width=" << width);
        const uint64_t garbage = ~lowMask(width);
        std::vector<uint64_t> words(97);
        for (uint64_t &w : words)
            w = rng.next() | garbage; // force every high bit on
        const uint64_t initial = rng.next() | garbage;
        PackedTransitionCounts counts(width, width, initial);
        counts.process(words);
        expectCountsMatchNaive(
            counts, NaiveCounts(width, initial, words), width);
        // The latched word must already be masked — a later block
        // must not see phantom transitions from the garbage bits.
        EXPECT_EQ(counts.prevWord() & garbage, 0u);

        // reset() with a garbage word, then an all-zeros run: any
        // leak shows up as a nonzero self count.
        counts.reset(garbage);
        const std::vector<uint64_t> zeros(130, 0);
        counts.process(zeros);
        for (unsigned i = 0; i < width; ++i)
            EXPECT_EQ(counts.selfCount(i), 0u) << "line " << i;
    }
}

TEST(PackedCounts, ResetCountsKeepsHeldWord)
{
    PackedTransitionCounts counts(8, 7, 0x0f);
    const std::vector<uint64_t> words = {0xf0, 0x0f, 0xf0};
    counts.process(words);
    counts.resetCounts();
    EXPECT_EQ(counts.prevWord(), 0xf0u);
    for (unsigned i = 0; i < 8; ++i)
        EXPECT_EQ(counts.selfCount(i), 0u);
    // Continue from the held word: first transition is f0 -> ff.
    counts.process(std::vector<uint64_t>{0xff});
    for (unsigned i = 0; i < 4; ++i)
        EXPECT_EQ(counts.selfCount(i), 1u) << "line " << i;
    for (unsigned i = 4; i < 8; ++i)
        EXPECT_EQ(counts.selfCount(i), 0u) << "line " << i;
}

TEST(PackedCounts, RestoreRejectsShapeMismatch)
{
    PackedTransitionCounts counts(8, 3, 0);
    const std::vector<uint64_t> self_ok(8, 0);
    const std::vector<int64_t> pairs_ok(8 * 3, 0);
    EXPECT_TRUE(counts.restore(0, self_ok, pairs_ok).ok());
    const std::vector<uint64_t> self_bad(7, 0);
    EXPECT_EQ(counts.restore(0, self_bad, pairs_ok).error().code,
              ErrorCode::InvalidArgument);
    const std::vector<int64_t> pairs_bad(8 * 2, 0);
    EXPECT_EQ(counts.restore(0, self_ok, pairs_bad).error().code,
              ErrorCode::InvalidArgument);
}

// The two per-line steps of each block — transition lanes and the
// popcount accumulation into the self counts — pinned on their own.
// The SimdParity suite name is kept from the lane-op parity suite
// these checks replace.

TEST(SimdParity, TransitionLanesMatchNaiveReference)
{
    // A line toggles at cycle k when its bit differs from cycle k-1's,
    // the held word's bit standing in for cycle -1. Runs shorter than
    // a block leave cycles past its end that the cycle mask must drop;
    // the fills are all-zeros, all-ones, alternating bits, alternating
    // words and random words.
    Rng rng(0x1f2e3d);
    for (unsigned width : {1u, 2u, 3u, 5u, 8u, 31u, 33u, 64u}) {
        for (size_t run : {size_t(1), size_t(17), size_t(63),
                           size_t(64)}) {
            std::vector<std::vector<uint64_t>> fills = {
                std::vector<uint64_t>(run, 0ull),
                std::vector<uint64_t>(run, ~0ull),
                std::vector<uint64_t>(run, 0x5555555555555555ull),
                std::vector<uint64_t>(run),
                std::vector<uint64_t>(run)};
            for (size_t k = 0; k < run; ++k) {
                fills[3][k] = (k & 1) ? ~0ull : 0ull;
                fills[4][k] = rng.next();
            }
            for (size_t f = 0; f < fills.size(); ++f) {
                SCOPED_TRACE(testing::Message() << "width=" << width
                                                << " run=" << run
                                                << " fill=" << f);
                const uint64_t initial = rng.next();
                PackedTransitionCounts counts(width, width, initial);
                counts.process(fills[f]);
                expectCountsMatchNaive(
                    counts, NaiveCounts(width, initial, fills[f]),
                    width);
            }
        }
    }
}

TEST(SimdParity, AccumulatePopcountsAddsInPlace)
{
    // Nonzero self counts seeded through restore(): processing a run
    // must *add* each line's toggles to them, not store.
    Rng rng(0x77aa);
    for (unsigned width : {1u, 4u, 33u, 64u}) {
        for (size_t run : {size_t(1), size_t(64), size_t(100)}) {
            SCOPED_TRACE(testing::Message()
                         << "width=" << width << " run=" << run);
            std::vector<uint64_t> seed(width);
            for (uint64_t &s : seed)
                s = rng.next() >> 8;
            const uint64_t held = rng.next();
            PackedTransitionCounts counts(width, 0, 0);
            ASSERT_TRUE(counts.restore(held, seed, {}).ok());
            std::vector<uint64_t> words(run);
            for (uint64_t &w : words)
                w = rng.next();
            counts.process(words);
            const NaiveCounts naive(width, held, words);
            for (unsigned i = 0; i < width; ++i)
                EXPECT_EQ(counts.selfCount(i), seed[i] + naive.self[i])
                    << "line " << i;
        }
    }
}

// ------------------------------------------------------------------ //
// BusEnergyModel under the Packed kernel.

std::vector<uint64_t>
randomWords(Rng &rng, size_t n)
{
    std::vector<uint64_t> words(n);
    for (uint64_t &w : words)
        w = rng.next();
    return words;
}

void
stepAll(BusEnergyModel &model, std::span<const uint64_t> words,
        size_t chunk)
{
    std::vector<double> scratch(model.width(), 0.0);
    EnergyBreakdown acc;
    for (size_t k = 0; k < words.size(); k += chunk) {
        const size_t len = std::min(chunk, words.size() - k);
        model.stepBatch(words.subspan(k, len), scratch, acc);
    }
}

TEST(PackedModel, AgreesWithScalarToRounding)
{
    Rng rng(0xe4e4);
    for (unsigned width : {1u, 16u, 33u, 64u}) {
        for (unsigned radius : {0u, 1u, 64u}) {
            SCOPED_TRACE(testing::Message()
                         << "width=" << width << " radius="
                         << radius);
            BusEnergyModel scalar_m =
                makeModel(width, radius, TransitionKernel::Scalar);
            BusEnergyModel packed_m =
                makeModel(width, radius, TransitionKernel::Packed);
            const std::vector<uint64_t> words =
                randomWords(rng, 500);
            stepAll(scalar_m, words, 17);
            stepAll(packed_m, words, 100);

            EXPECT_EQ(packed_m.cycles(), scalar_m.cycles());
            EXPECT_EQ(packed_m.lastWord(), scalar_m.lastWord());
            const double total_s =
                scalar_m.accumulatedTotal().raw();
            const double total_p =
                packed_m.accumulatedTotal().raw();
            EXPECT_NEAR(total_p, total_s,
                        1e-9 * std::abs(total_s));
            for (unsigned i = 0; i < width; ++i) {
                const double a =
                    scalar_m.accumulatedLineEnergy()[i];
                const double b =
                    packed_m.accumulatedLineEnergy()[i];
                EXPECT_NEAR(b, a, 1e-9 * std::abs(a) + 1e-30)
                    << "line " << i;
            }
            // The final transition is re-derived through the same
            // transitionEnergy() path in both kernels: bitwise.
            EXPECT_EQ(packed_m.lastBreakdown().self.raw(),
                      scalar_m.lastBreakdown().self.raw());
            EXPECT_EQ(packed_m.lastBreakdown().coupling.raw(),
                      scalar_m.lastBreakdown().coupling.raw());
            EXPECT_EQ(packed_m.lastLineEnergy(),
                      scalar_m.lastLineEnergy());
        }
    }
}

TEST(PackedModel, SingleStepIsBitwiseScalar)
{
    // One transition accumulates exactly one count per moving line,
    // so the derived energy is the same FP expression the scalar
    // kernel evaluates — bitwise, not just to rounding.
    BusEnergyModel scalar_m =
        makeModel(32, 64, TransitionKernel::Scalar, 0x0fff0fff);
    BusEnergyModel packed_m =
        makeModel(32, 64, TransitionKernel::Packed, 0x0fff0fff);
    const Joules es = scalar_m.step(0xf0f0a5a5);
    const Joules ep = packed_m.step(0xf0f0a5a5);
    EXPECT_EQ(ep.raw(), es.raw());
    EXPECT_EQ(packed_m.accumulatedTotal().raw(),
              scalar_m.accumulatedTotal().raw());
    for (unsigned i = 0; i < 32; ++i)
        EXPECT_EQ(packed_m.accumulatedLineEnergy()[i],
                  scalar_m.accumulatedLineEnergy()[i])
            << "line " << i;
}

TEST(PackedModel, SplitInvarianceIsBitwise)
{
    Rng rng(0x1234);
    const std::vector<uint64_t> words = randomWords(rng, 400);
    BusEnergyModel a = makeModel(33, 8, TransitionKernel::Packed);
    BusEnergyModel b = makeModel(33, 8, TransitionKernel::Packed);
    stepAll(a, words, 400);
    for (uint64_t w : words)
        b.step(w);
    EXPECT_EQ(a.accumulatedTotal().raw(),
              b.accumulatedTotal().raw());
    EXPECT_EQ(a.accumulatedLineEnergy(), b.accumulatedLineEnergy());
    EXPECT_EQ(a.lastBreakdown().self.raw(),
              b.lastBreakdown().self.raw());
    EXPECT_EQ(a.lastBreakdown().coupling.raw(),
              b.lastBreakdown().coupling.raw());
}

TEST(PackedModel, IntervalEnergyDerivesDeltas)
{
    Rng rng(0x9a9a);
    const unsigned width = 24;
    BusEnergyModel model =
        makeModel(width, 64, TransitionKernel::Packed);
    BusEnergyModel oracle =
        makeModel(width, 64, TransitionKernel::Packed);

    const std::vector<uint64_t> first = randomWords(rng, 130);
    const std::vector<uint64_t> second = randomWords(rng, 77);

    std::vector<double> scratch(width, 0.0);
    EnergyBreakdown unused;
    model.beginInterval();
    model.stepBatch(first, scratch, unused);
    std::vector<double> interval_lines(width, 0.0);
    EnergyBreakdown interval;
    model.intervalEnergy(interval_lines, interval);

    // Interval 1 alone == a fresh model's whole-run accumulation.
    oracle.stepBatch(first, scratch, unused);
    EXPECT_EQ(interval.self.raw(),
              oracle.accumulatedBreakdown().self.raw());
    EXPECT_EQ(interval.coupling.raw(),
              oracle.accumulatedBreakdown().coupling.raw());
    EXPECT_EQ(interval_lines, oracle.accumulatedLineEnergy());

    // Second interval: only the delta since beginInterval().
    model.beginInterval();
    model.stepBatch(second, scratch, unused);
    model.intervalEnergy(interval_lines, interval);
    // Re-run the second interval on a model primed with interval 1's
    // final word: the delta derivation must match it bitwise.
    BusEnergyModel primed = makeModel(
        width, 64, TransitionKernel::Packed, first.back());
    primed.stepBatch(second, scratch, unused);
    EXPECT_EQ(interval.self.raw(),
              primed.accumulatedBreakdown().self.raw());
    EXPECT_EQ(interval.coupling.raw(),
              primed.accumulatedBreakdown().coupling.raw());
    EXPECT_EQ(interval_lines, primed.accumulatedLineEnergy());

    // An idle interval derives exact zeros.
    model.beginInterval();
    model.intervalEnergy(interval_lines, interval);
    EXPECT_EQ(interval.total().raw(), 0.0);
    for (double e : interval_lines)
        EXPECT_EQ(e, 0.0);
}

TEST(PackedModel, PackedStateRoundTripsBitIdentically)
{
    Rng rng(0xc0de);
    const unsigned width = 40;
    const std::vector<uint64_t> words = randomWords(rng, 333);
    const size_t cut = 150;

    BusEnergyModel uninterrupted =
        makeModel(width, 5, TransitionKernel::Packed);
    stepAll(uninterrupted, words, 64);

    BusEnergyModel half = makeModel(width, 5, TransitionKernel::Packed);
    stepAll(half,
            std::span<const uint64_t>(words).subspan(0, cut), 64);
    const BusEnergyModel::PackedState state =
        half.capturePackedState();

    BusEnergyModel resumed =
        makeModel(width, 5, TransitionKernel::Packed);
    ASSERT_TRUE(resumed.restorePackedState(state).ok());
    EXPECT_EQ(resumed.cycles(), half.cycles());
    EXPECT_EQ(resumed.accumulatedTotal().raw(),
              half.accumulatedTotal().raw());
    EXPECT_EQ(resumed.lastBreakdown().self.raw(),
              half.lastBreakdown().self.raw());
    stepAll(resumed,
            std::span<const uint64_t>(words).subspan(cut), 64);

    EXPECT_EQ(resumed.accumulatedTotal().raw(),
              uninterrupted.accumulatedTotal().raw());
    EXPECT_EQ(resumed.accumulatedLineEnergy(),
              uninterrupted.accumulatedLineEnergy());
    EXPECT_EQ(resumed.cycles(), uninterrupted.cycles());
    EXPECT_EQ(resumed.lastWord(), uninterrupted.lastWord());
}

TEST(PackedModel, RestorePathsRejectMismatches)
{
    BusEnergyModel model = makeModel(16, 3, TransitionKernel::Packed);

    // The scalar restore entry is the wrong door under Packed.
    const std::vector<double> acc_line(16, 0.0);
    EXPECT_EQ(model
                  .restoreAccumulation(0, acc_line, EnergyBreakdown{},
                                       0)
                  .error()
                  .code,
              ErrorCode::InvalidArgument);

    BusEnergyModel::PackedState state = model.capturePackedState();
    state.self.resize(15);
    EXPECT_EQ(model.restorePackedState(state).error().code,
              ErrorCode::InvalidArgument);

    state = model.capturePackedState();
    state.interval_pairs.resize(1);
    EXPECT_EQ(model.restorePackedState(state).error().code,
              ErrorCode::InvalidArgument);

    // A scalar model rejects the packed restore entry.
    BusEnergyModel scalar_m =
        makeModel(16, 3, TransitionKernel::Scalar);
    EXPECT_EQ(
        scalar_m.restorePackedState(model.capturePackedState())
            .error()
            .code,
        ErrorCode::InvalidArgument);
}

TEST(PackedModel, ResetAccumulationClearsCountsAndBaselines)
{
    Rng rng(0xfeed);
    BusEnergyModel model = makeModel(20, 64, TransitionKernel::Packed);
    stepAll(model, randomWords(rng, 100), 50);
    ASSERT_GT(model.accumulatedTotal().raw(), 0.0);
    model.resetAccumulation();
    EXPECT_EQ(model.cycles(), 0u);
    EXPECT_EQ(model.accumulatedTotal().raw(), 0.0);
    std::vector<double> lines(20, 0.0);
    EnergyBreakdown interval;
    model.intervalEnergy(lines, interval);
    EXPECT_EQ(interval.total().raw(), 0.0);
    // The held word survives the reset, so replaying the same words
    // from a fresh model primed with it matches bitwise.
    const uint64_t held = model.lastWord();
    const std::vector<uint64_t> words = randomWords(rng, 100);
    stepAll(model, words, 100);
    BusEnergyModel fresh =
        makeModel(20, 64, TransitionKernel::Packed, held);
    stepAll(fresh, words, 100);
    EXPECT_EQ(model.accumulatedTotal().raw(),
              fresh.accumulatedTotal().raw());
}

} // namespace
} // namespace nanobus
