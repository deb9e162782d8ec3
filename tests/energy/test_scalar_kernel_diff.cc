/**
 * @file
 * Differential test of the Packed energy kernel (the default) against
 * the Scalar kernel, the plain per-line loop kept as its oracle.
 *
 * Three properties, over the same seeded draws:
 *
 *  - Packed is bit-identical to itself under any split of a word
 *    stream into step()/stepBatch() calls, across interval opens,
 *    accumulator resets and PackedState round trips;
 *  - a single transition derives bitwise as Scalar evaluates it:
 *    lastLineEnergy()/lastBreakdown() after every call, and the
 *    count-derived accumulators after one step from a reset;
 *  - over whole runs, Packed's accumulators and interval energies
 *    agree with Scalar's to 1e-9 relative (different FP summation
 *    order, same real-number sums).
 *
 * The draws cover widths {1, 2, 31, 32, 33, 63, 64}, radii {0, 1, 2,
 * w/2, w-1, 64}, the analytical and a BEM-extracted capacitance
 * matrix, and random, sparse (1-2 lines), dense (all-toggle), idle
 * and garbage-above-width words. Every case logs its seed; replay
 * one with
 *
 *   NANOBUS_FUZZ_SEED=<seed> ./tests/test_scalar_kernel_diff
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "energy/bus_energy.hh"
#include "extraction/bem.hh"
#include "extraction/capmatrix.hh"
#include "extraction/geometry.hh"
#include "util/bitops.hh"
#include "util/random.hh"

namespace nanobus {
namespace {

const TechnologyNode &tech130 = itrsNode(ItrsNode::Nm130);

/** Relative bound between the kernels' run accumulators (the one
 *  PackedModel.AgreesWithScalarToRounding uses). */
constexpr double kRel = 1e-9;

uint64_t
bits(double v)
{
    return std::bit_cast<uint64_t>(v);
}

void
expectSameBits(const std::vector<double> &got,
               const std::vector<double> &want, const char *what)
{
    ASSERT_EQ(got.size(), want.size()) << what;
    for (size_t i = 0; i < want.size(); ++i)
        EXPECT_EQ(bits(got[i]), bits(want[i]))
            << what << " line " << i << ": " << got[i] << " vs "
            << want[i];
}

void
expectSameBits(const EnergyBreakdown &got, const EnergyBreakdown &want,
               const char *what)
{
    EXPECT_EQ(bits(got.self.raw()), bits(want.self.raw()))
        << what << " self";
    EXPECT_EQ(bits(got.coupling.raw()), bits(want.coupling.raw()))
        << what << " coupling";
}

void
expectNear(const std::vector<double> &got,
           const std::vector<double> &want, const char *what)
{
    ASSERT_EQ(got.size(), want.size()) << what;
    for (size_t i = 0; i < want.size(); ++i)
        EXPECT_NEAR(got[i], want[i], kRel * std::abs(want[i]) + 1e-30)
            << what << " line " << i;
}

void
expectNear(const EnergyBreakdown &got, const EnergyBreakdown &want,
           const char *what)
{
    EXPECT_NEAR(got.self.raw(), want.self.raw(),
                kRel * std::abs(want.self.raw()) + 1e-30)
        << what << " self";
    EXPECT_NEAR(got.coupling.raw(), want.coupling.raw(),
                kRel * std::abs(want.coupling.raw()) + 1e-30)
        << what << " coupling";
}

enum class MatrixKind { Analytical, Bem };

/**
 * BEM extraction of the node's geometry at a coarse discretization
 * (the differential test needs a realistic, irregular matrix, not an
 * accurate one); cached per width because every radius reuses it.
 */
const CapacitanceMatrix &
bemMatrix(unsigned width)
{
    static std::map<unsigned, CapacitanceMatrix> cache;
    auto it = cache.find(width);
    if (it == cache.end()) {
        BemExtractor::Options options;
        options.panels_per_width = 1;
        const BusGeometry geometry =
            BusGeometry::forTechnology(tech130, width);
        it = cache.emplace(width,
                           BemExtractor(geometry, options).extract())
                 .first;
    }
    return it->second;
}

/** Heap-held so a test can swap in a freshly restored model. */
std::unique_ptr<BusEnergyModel>
makeModel(MatrixKind kind, unsigned width, unsigned radius,
          TransitionKernel kernel, uint64_t initial_word)
{
    BusEnergyModel::Config config;
    config.coupling_radius = radius;
    config.initial_word = initial_word;
    config.kernel = kernel;
    return std::make_unique<BusEnergyModel>(
        tech130,
        kind == MatrixKind::Bem
            ? bemMatrix(width)
            : CapacitanceMatrix::analytical(tech130, width),
        config);
}

/**
 * Next bus word after `prev`: random, sparse (1-2 lines flip), dense
 * (every line toggles), idle, or a change only above the bus width.
 * Garbage above the width rides along on every kind.
 */
uint64_t
nextWord(Rng &rng, uint64_t prev, unsigned width)
{
    const uint64_t above = ~lowMask(width);
    const uint64_t garbage = rng.next() & above;
    switch (rng.below(5)) {
      case 0:
        return rng.next();
      case 1: {
        uint64_t word = prev ^ (1ull << rng.below(width));
        if (rng.chance(0.5))
            word ^= 1ull << rng.below(width);
        return word ^ garbage;
      }
      case 2:
        return ~prev;
      case 3:
        return prev;
      default:
        return (prev & lowMask(width)) | garbage;
    }
}

/** A run of up to `max_words` words continuing from `word`, which
 *  ends as the run's last word. */
std::vector<uint64_t>
nextRun(Rng &rng, uint64_t &word, unsigned width, uint64_t max_words)
{
    std::vector<uint64_t> words(rng.below(max_words + 1));
    for (uint64_t &w : words)
        w = word = nextWord(rng, word, width);
    return words;
}

struct Case
{
    uint64_t seed;
    MatrixKind kind;
    unsigned width;
    unsigned radius;
};

std::string
describe(const Case &c)
{
    return "seed=" + std::to_string(c.seed) + " matrix=" +
        (c.kind == MatrixKind::Bem ? "bem" : "analytical") +
        " width=" + std::to_string(c.width) +
        " radius=" + std::to_string(c.radius);
}

/** Every (matrix, width, radius) draw, or the one NANOBUS_FUZZ_SEED
 *  names. */
std::vector<Case>
cases()
{
    const unsigned widths[] = {1, 2, 31, 32, 33, 63, 64};
    std::vector<Case> all;
    uint64_t seed = 0x5ca1ab1e;
    for (MatrixKind kind : {MatrixKind::Analytical, MatrixKind::Bem}) {
        for (unsigned w : widths) {
            const unsigned radii[] = {0, 1, 2, w / 2, w - 1, 64};
            for (unsigned r : radii)
                all.push_back({seed++, kind, w, r});
        }
    }
    if (const char *env = std::getenv("NANOBUS_FUZZ_SEED")) {
        const uint64_t wanted = std::strtoull(env, nullptr, 0);
        std::erase_if(all,
                      [&](const Case &c) { return c.seed != wanted; });
    }
    return all;
}

/** Interval energies of a Packed model since its last
 *  beginInterval(). */
struct Interval
{
    std::vector<double> lines;
    EnergyBreakdown total;
};

Interval
intervalOf(const BusEnergyModel &model)
{
    Interval out{std::vector<double>(model.width(), 0.0), {}};
    model.intervalEnergy(out.lines, out.total);
    return out;
}

TEST(KernelDiff, PackedSplitInvarianceIsBitwise)
{
    // `whole` takes each run in one stepBatch; `split` takes the same
    // run in random pieces (empty batches and single step()s
    // included) and now and then resumes from its own captured
    // state. Both see the same interval opens and resets between
    // runs, so every observable must match bit for bit.
    for (const Case &c : cases()) {
        SCOPED_TRACE(describe(c));
        Rng rng(c.seed ^ 0x57e9);
        const uint64_t initial = rng.next();
        const auto whole = makeModel(
            c.kind, c.width, c.radius, TransitionKernel::Packed,
            initial);
        std::unique_ptr<BusEnergyModel> split = makeModel(
            c.kind, c.width, c.radius, TransitionKernel::Packed,
            initial);
        std::vector<double> unused(c.width, 0.0);
        EnergyBreakdown unused_acc;
        uint64_t word = initial;
        for (int run = 0; run < 40; ++run) {
            const std::vector<uint64_t> words =
                nextRun(rng, word, c.width, 150);
            whole->stepBatch(words, unused, unused_acc);
            for (size_t k = 0; k < words.size();) {
                if (rng.chance(0.25)) {
                    split->step(words[k++]);
                    continue;
                }
                const size_t n =
                    std::min<size_t>(rng.below(70), words.size() - k);
                split->stepBatch(
                    std::span<const uint64_t>(words).subspan(k, n),
                    unused, unused_acc);
                k += n;
            }
            switch (rng.below(8)) {
              case 0:
                whole->beginInterval();
                split->beginInterval();
                break;
              case 1:
                whole->resetAccumulation();
                split->resetAccumulation();
                break;
              case 2: {
                // Resume, as a checkpoint would, into a model that
                // already stepped other words: the restore must drop
                // them.
                const BusEnergyModel::PackedState state =
                    split->capturePackedState();
                split = makeModel(c.kind, c.width, c.radius,
                                  TransitionKernel::Packed, 0);
                uint64_t stray = rng.next();
                split->stepBatch(nextRun(rng, stray, c.width, 70),
                                 unused, unused_acc);
                ASSERT_TRUE(split->restorePackedState(state).ok());
                break;
              }
              default:
                break;
            }

            expectSameBits(split->accumulatedLineEnergy(),
                           whole->accumulatedLineEnergy(),
                           "accumulatedLineEnergy");
            expectSameBits(split->accumulatedBreakdown(),
                           whole->accumulatedBreakdown(),
                           "accumulatedBreakdown");
            expectSameBits(split->lastLineEnergy(),
                           whole->lastLineEnergy(), "lastLineEnergy");
            expectSameBits(split->lastBreakdown(),
                           whole->lastBreakdown(), "lastBreakdown");
            const Interval a = intervalOf(*split);
            const Interval b = intervalOf(*whole);
            expectSameBits(a.lines, b.lines, "interval lines");
            expectSameBits(a.total, b.total, "interval breakdown");
            EXPECT_EQ(split->cycles(), whole->cycles());
            EXPECT_EQ(split->lastWord(), whole->lastWord());
            if (::testing::Test::HasFailure())
                return;
        }
    }
}

TEST(KernelDiff, PackedSingleTransitionIsBitwiseScalar)
{
    // A run's final transition is evaluated per line in both kernels,
    // and one step from a reset accumulates exactly one count per
    // moving line, so the count-derived accumulators reduce to the
    // same FP expressions Scalar evaluates: bitwise, no tolerance.
    for (const Case &c : cases()) {
        SCOPED_TRACE(describe(c));
        Rng rng(c.seed);
        const uint64_t initial = rng.next();
        const auto packed = makeModel(
            c.kind, c.width, c.radius, TransitionKernel::Packed,
            initial);
        const auto scalar = makeModel(
            c.kind, c.width, c.radius, TransitionKernel::Scalar,
            initial);
        std::vector<double> unused(c.width, 0.0);
        EnergyBreakdown unused_acc;
        uint64_t word = initial;
        for (int n = 0; n < 100; ++n) {
            if (rng.chance(0.5)) {
                const std::vector<uint64_t> words =
                    nextRun(rng, word, c.width, 24);
                packed->stepBatch(words, unused, unused_acc);
                scalar->stepBatch(words, unused, unused_acc);
            } else {
                packed->resetAccumulation();
                scalar->resetAccumulation();
                word = nextWord(rng, word, c.width);
                EXPECT_EQ(bits(packed->step(word).raw()),
                          bits(scalar->step(word).raw()));
                expectSameBits(packed->accumulatedLineEnergy(),
                               scalar->lastLineEnergy(),
                               "single-step accumulatedLineEnergy");
                expectSameBits(packed->accumulatedBreakdown(),
                               scalar->lastBreakdown(),
                               "single-step accumulatedBreakdown");
            }
            if (rng.chance(0.25)) {
                // An unrelated pair between the chained calls.
                const uint64_t a = rng.next();
                const uint64_t b = nextWord(rng, a, c.width);
                packed->transitionEnergy(a, b);
                scalar->transitionEnergy(a, b);
            }
            expectSameBits(packed->lastLineEnergy(),
                           scalar->lastLineEnergy(), "lastLineEnergy");
            expectSameBits(packed->lastBreakdown(),
                           scalar->lastBreakdown(), "lastBreakdown");
            EXPECT_EQ(packed->lastWord(), scalar->lastWord());
            if (::testing::Test::HasFailure())
                return;
        }
    }
}

TEST(KernelDiff, PackedAgreesWithScalarToRounding)
{
    // The production shape: batches of uneven size, interval closes
    // between them (Scalar fills the caller's spans, Packed derives
    // from count deltas) and whole-run accumulators.
    for (const Case &c : cases()) {
        SCOPED_TRACE(describe(c));
        Rng rng(c.seed ^ 0xba7c);
        const uint64_t initial = rng.next();
        const auto packed = makeModel(
            c.kind, c.width, c.radius, TransitionKernel::Packed,
            initial);
        const auto scalar = makeModel(
            c.kind, c.width, c.radius, TransitionKernel::Scalar,
            initial);
        std::vector<double> unused(c.width, 0.0);
        EnergyBreakdown unused_acc;
        std::vector<double> span(c.width, 0.0);
        EnergyBreakdown interval;
        uint64_t word = initial;
        for (int batch = 0; batch < 40; ++batch) {
            const std::vector<uint64_t> words =
                nextRun(rng, word, c.width, 100);
            packed->stepBatch(words, unused, unused_acc);
            scalar->stepBatch(words, span, interval);

            // Close or reset before any read.
            switch (rng.below(6)) {
              case 0:
                // Interval close: both restart their interval sums.
                packed->beginInterval();
                std::fill(span.begin(), span.end(), 0.0);
                interval = EnergyBreakdown();
                break;
              case 1:
                // A reset also clears Packed's interval baseline.
                packed->resetAccumulation();
                scalar->resetAccumulation();
                std::fill(span.begin(), span.end(), 0.0);
                interval = EnergyBreakdown();
                break;
              default:
                break;
            }

            expectNear(packed->accumulatedLineEnergy(),
                       scalar->accumulatedLineEnergy(),
                       "accumulatedLineEnergy");
            expectNear(packed->accumulatedBreakdown(),
                       scalar->accumulatedBreakdown(),
                       "accumulatedBreakdown");
            const Interval got = intervalOf(*packed);
            expectNear(got.lines, span, "interval lines");
            expectNear(got.total, interval, "interval breakdown");
            EXPECT_EQ(packed->cycles(), scalar->cycles());
            EXPECT_EQ(packed->lastWord(), scalar->lastWord());
            if (::testing::Test::HasFailure())
                return;
        }
    }
}

} // namespace
} // namespace nanobus
