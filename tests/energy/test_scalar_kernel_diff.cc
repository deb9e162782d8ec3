/**
 * @file
 * Bitwise differential test of the Scalar energy kernel against the
 * straightforward per-line evaluator it replaced.
 *
 * ReferenceBusEnergy below is that evaluator kept verbatim: one
 * branchy j loop per moving line ("did j change? which way?"), a
 * full-width zero fill per transition and full-width accumulation.
 * BusEnergyModel evaluates the same sums branch-free, several lines
 * at a time over a shared window, and accumulates only the moving
 * lines; every observable must still match the reference bit for
 * bit (EXPECT_EQ on the IEEE-754 bit patterns, no tolerance).
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
#include <cstdint>
#include <cstdlib>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "energy/bus_energy.hh"
#include "extraction/bem.hh"
#include "extraction/capmatrix.hh"
#include "extraction/geometry.hh"
#include "la/matrix.hh"
#include "util/bitops.hh"
#include "util/random.hh"

namespace nanobus {
namespace {

const TechnologyNode &tech130 = itrsNode(ItrsNode::Nm130);

/**
 * The per-line evaluator BusEnergyModel's Scalar kernel must
 * reproduce. It reads the model's stored capacitances through the
 * public accessors, which return the raw doubles unchanged.
 */
class ReferenceBusEnergy
{
  public:
    ReferenceBusEnergy(const TechnologyNode &tech,
                       const BusEnergyModel &model)
        : width_(model.width()),
          radius_(model.couplingRadius()),
          half_vdd2_(0.5 * (tech.vdd * tech.vdd).raw()),
          last_word_(model.lastWord()),
          word_mask_(lowMask(model.width())),
          coupling_cap_(model.width(), model.width(), 0.0)
    {
        self_cap_.resize(width_);
        for (unsigned i = 0; i < width_; ++i) {
            self_cap_[i] = model.selfCapacitance(i).raw();
            for (unsigned j = 0; j < width_; ++j)
                coupling_cap_(i, j) =
                    model.couplingCapacitance(i, j).raw();
        }
        line_energy_.assign(width_, 0.0);
        acc_line_.assign(width_, 0.0);
    }

    const std::vector<double> &transitionEnergy(uint64_t prev,
                                                uint64_t next)
    {
        std::fill(line_energy_.begin(), line_energy_.end(), 0.0);
        last_ = EnergyBreakdown();

        uint64_t changed = (prev ^ next) & word_mask_;
        if (changed == 0)
            return line_energy_;

        for (uint64_t bits = changed; bits;) {
            unsigned i = static_cast<unsigned>(std::countr_zero(bits));
            bits &= bits - 1;

            const int vi = bitOf(next, i) ? 1 : -1;

            double e_self = half_vdd2_ * self_cap_[i];

            double coupling_sum = 0.0;
            unsigned j_lo = i >= radius_ ? i - radius_ : 0;
            unsigned j_hi = std::min(width_ - 1, i + radius_);
            const double *row = coupling_cap_.rowPtr(i);
            for (unsigned j = j_lo; j <= j_hi; ++j) {
                if (j == i)
                    continue;
                int vj = 0;
                if ((changed >> j) & 1ull)
                    vj = bitOf(next, j) ? 1 : -1;
                coupling_sum += row[j] *
                    static_cast<double>(couplingFactor(vi, vj));
            }
            double e_coup = half_vdd2_ * coupling_sum;

            line_energy_[i] = e_self + e_coup;
            last_.self += Joules{e_self};
            last_.coupling += Joules{e_coup};
        }
        return line_energy_;
    }

    Joules step(uint64_t next)
    {
        next &= word_mask_;
        const std::vector<double> &energies =
            transitionEnergy(last_word_, next);
        for (unsigned i = 0; i < width_; ++i)
            acc_line_[i] += energies[i];
        acc_ += last_;
        last_word_ = next;
        ++cycles_;
        return last_.total();
    }

    void stepBatch(std::span<const uint64_t> words,
                   std::span<double> interval_line_acc,
                   EnergyBreakdown &interval_acc)
    {
        uint64_t last = last_word_;
        for (size_t k = 0; k < words.size(); ++k) {
            const uint64_t next = words[k] & word_mask_;
            transitionEnergy(last, next);
            for (unsigned i = 0; i < width_; ++i) {
                const double e = line_energy_[i];
                acc_line_[i] += e;
                interval_line_acc[i] += e;
            }
            acc_ += last_;
            interval_acc += last_;
            last = next;
        }
        last_word_ = last;
        cycles_ += words.size();
    }

    void resetAccumulation()
    {
        std::fill(acc_line_.begin(), acc_line_.end(), 0.0);
        acc_ = EnergyBreakdown();
        cycles_ = 0;
    }

    void restoreAccumulation(uint64_t last_word,
                             const std::vector<double> &acc_line,
                             const EnergyBreakdown &acc,
                             uint64_t cycles)
    {
        last_word_ = last_word & word_mask_;
        acc_line_ = acc_line;
        acc_ = acc;
        cycles_ = cycles;
    }

    const EnergyBreakdown &lastBreakdown() const { return last_; }
    const std::vector<double> &lastLineEnergy() const
    {
        return line_energy_;
    }
    const std::vector<double> &accumulatedLineEnergy() const
    {
        return acc_line_;
    }
    const EnergyBreakdown &accumulatedBreakdown() const { return acc_; }
    uint64_t cycles() const { return cycles_; }
    uint64_t lastWord() const { return last_word_; }

  private:
    unsigned width_;
    unsigned radius_;
    double half_vdd2_;
    uint64_t last_word_;
    uint64_t word_mask_;
    std::vector<double> self_cap_;
    Matrix coupling_cap_;
    std::vector<double> line_energy_;
    EnergyBreakdown last_;
    std::vector<double> acc_line_;
    EnergyBreakdown acc_;
    uint64_t cycles_ = 0;
};

uint64_t
bits(double v)
{
    return std::bit_cast<uint64_t>(v);
}

void
expectSameBits(const std::vector<double> &model,
               const std::vector<double> &ref, const char *what)
{
    ASSERT_EQ(model.size(), ref.size()) << what;
    for (size_t i = 0; i < ref.size(); ++i)
        EXPECT_EQ(bits(model[i]), bits(ref[i]))
            << what << " line " << i << ": " << model[i] << " vs "
            << ref[i];
}

void
expectSameBits(const EnergyBreakdown &model, const EnergyBreakdown &ref,
               const char *what)
{
    EXPECT_EQ(bits(model.self.raw()), bits(ref.self.raw()))
        << what << " self";
    EXPECT_EQ(bits(model.coupling.raw()), bits(ref.coupling.raw()))
        << what << " coupling";
}

/** Every observable of the model against the reference. */
void
expectSameState(const BusEnergyModel &model,
                const ReferenceBusEnergy &ref)
{
    expectSameBits(model.lastLineEnergy(), ref.lastLineEnergy(),
                   "lastLineEnergy");
    expectSameBits(model.lastBreakdown(), ref.lastBreakdown(),
                   "lastBreakdown");
    expectSameBits(model.accumulatedLineEnergy(),
                   ref.accumulatedLineEnergy(), "accumulatedLineEnergy");
    expectSameBits(model.accumulatedBreakdown(),
                   ref.accumulatedBreakdown(), "accumulatedBreakdown");
    EXPECT_EQ(model.cycles(), ref.cycles());
    EXPECT_EQ(model.lastWord(), ref.lastWord());
}

/**
 * Resume both evaluators from the model's accumulators with a new
 * held word, as a checkpoint restore would; returns the held word.
 */
uint64_t
restoreBoth(BusEnergyModel &model, ReferenceBusEnergy &ref,
            uint64_t word)
{
    const std::vector<double> acc_line = model.accumulatedLineEnergy();
    const EnergyBreakdown acc = model.accumulatedBreakdown();
    const uint64_t cycles = model.cycles();
    EXPECT_TRUE(model.restoreAccumulation(word, acc_line, acc, cycles)
                    .ok());
    ref.restoreAccumulation(word, acc_line, acc, cycles);
    return word;
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

BusEnergyModel
makeModel(MatrixKind kind, unsigned width, unsigned radius,
          uint64_t initial_word)
{
    BusEnergyModel::Config config;
    config.coupling_radius = radius;
    config.initial_word = initial_word;
    const CapacitanceMatrix caps = kind == MatrixKind::Bem
        ? bemMatrix(width)
        : CapacitanceMatrix::analytical(tech130, width);
    return BusEnergyModel(tech130, caps, config);
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

TEST(ScalarKernelDiff, TransitionEnergyMatchesReference)
{
    for (const Case &c : cases()) {
        SCOPED_TRACE(describe(c));
        Rng rng(c.seed);
        BusEnergyModel model = makeModel(c.kind, c.width, c.radius, 0);
        ReferenceBusEnergy ref(tech130, model);
        uint64_t prev = rng.next();
        for (int n = 0; n < 200; ++n) {
            const uint64_t next = nextWord(rng, prev, c.width);
            expectSameBits(model.transitionEnergy(prev, next),
                           ref.transitionEnergy(prev, next),
                           "transitionEnergy");
            expectSameBits(model.lastBreakdown(), ref.lastBreakdown(),
                           "lastBreakdown");
            // Unrelated pairs as often as chained ones, so one call's
            // scratch never lines up with the next call's lines.
            prev = rng.chance(0.5) ? next : rng.next();
            if (::testing::Test::HasFailure())
                return;
        }
    }
}

TEST(ScalarKernelDiff, StepMatchesReference)
{
    for (const Case &c : cases()) {
        SCOPED_TRACE(describe(c));
        Rng rng(c.seed ^ 0x57e9);
        const uint64_t initial = rng.next();
        BusEnergyModel model =
            makeModel(c.kind, c.width, c.radius, initial);
        ReferenceBusEnergy ref(tech130, model);
        uint64_t word = initial;
        for (int n = 0; n < 300; ++n) {
            word = nextWord(rng, word, c.width);
            const double e_model = model.step(word).raw();
            const double e_ref = ref.step(word).raw();
            EXPECT_EQ(bits(e_model), bits(e_ref));
            switch (rng.below(16)) {
              case 0:
                model.resetAccumulation();
                ref.resetAccumulation();
                break;
              case 1:
                word = restoreBoth(model, ref, rng.next());
                break;
              case 2: {
                const uint64_t a = rng.next();
                const uint64_t b = nextWord(rng, a, c.width);
                model.transitionEnergy(a, b);
                ref.transitionEnergy(a, b);
                break;
              }
              default:
                break;
            }
            expectSameState(model, ref);
            if (::testing::Test::HasFailure())
                return;
        }
    }
}

TEST(ScalarKernelDiff, StepBatchMatchesReference)
{
    for (const Case &c : cases()) {
        SCOPED_TRACE(describe(c));
        Rng rng(c.seed ^ 0xba7c);
        const uint64_t initial = rng.next();
        BusEnergyModel model =
            makeModel(c.kind, c.width, c.radius, initial);
        ReferenceBusEnergy ref(tech130, model);
        std::vector<double> span_model(c.width, 0.0);
        std::vector<double> span_ref(c.width, 0.0);
        EnergyBreakdown interval_model;
        EnergyBreakdown interval_ref;
        uint64_t word = initial;
        for (int batch = 0; batch < 40; ++batch) {
            std::vector<uint64_t> words(rng.below(24));
            for (uint64_t &w : words)
                w = word = nextWord(rng, word, c.width);
            model.stepBatch(words, span_model, interval_model);
            ref.stepBatch(words, span_ref, interval_ref);
            expectSameBits(span_model, span_ref, "interval span");
            expectSameBits(interval_model, interval_ref,
                           "interval breakdown");
            switch (rng.below(8)) {
              case 0:
                // Interval close: the caller restarts its spans.
                std::fill(span_model.begin(), span_model.end(), 0.0);
                std::fill(span_ref.begin(), span_ref.end(), 0.0);
                interval_model = EnergyBreakdown();
                interval_ref = EnergyBreakdown();
                break;
              case 1:
                model.resetAccumulation();
                ref.resetAccumulation();
                break;
              case 2:
                word = restoreBoth(model, ref, rng.next());
                break;
              case 3: {
                const uint64_t a = rng.next();
                const uint64_t b = nextWord(rng, a, c.width);
                model.transitionEnergy(a, b);
                ref.transitionEnergy(a, b);
                break;
              }
              case 4: {
                word = nextWord(rng, word, c.width);
                const double e_model = model.step(word).raw();
                const double e_ref = ref.step(word).raw();
                EXPECT_EQ(bits(e_model), bits(e_ref));
                break;
              }
              default:
                break;
            }
            expectSameState(model, ref);
            if (::testing::Test::HasFailure())
                return;
        }
    }
}

} // namespace
} // namespace nanobus
