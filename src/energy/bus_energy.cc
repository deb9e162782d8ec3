#include "energy/bus_energy.hh"

#include <algorithm>

#include "energy/packed.hh"
#include "energy/transition.hh"
#include "tech/repeater.hh"
#include "util/bitops.hh"
#include "util/contracts.hh"
#include "util/logging.hh"

namespace nanobus {

BusEnergyModel::BusEnergyModel(const TechnologyNode &tech,
                               const CapacitanceMatrix &caps)
    : BusEnergyModel(tech, caps, Config())
{
}

BusEnergyModel::BusEnergyModel(const TechnologyNode &tech,
                               const CapacitanceMatrix &caps,
                               const Config &config)
    : width_(caps.size()),
      radius_(std::min(config.coupling_radius,
                       caps.size() > 0 ? caps.size() - 1 : 0u)),
      half_vdd2_(0.5 * (tech.vdd * tech.vdd).raw()),
      last_word_(config.initial_word),
      word_mask_(lowMask(caps.size())),
      coupling_cap_(caps.size(), caps.size(), 0.0)
{
    if (width_ == 0 || width_ > 64)
        fatal("BusEnergyModel: width %u outside [1, 64]", width_);
    if (config.wire_length.raw() <= 0.0)
        fatal("BusEnergyModel: wire length %g must be positive",
              config.wire_length.raw());

    const Meters length = config.wire_length;
    RepeaterModel repeaters(tech, config.include_repeaters);
    const Farads c_rep = repeaters.totalCapacitance(length);

    // Per-line capacitances compose to farads before entering the
    // raw hot-path buffers.
    self_cap_.resize(width_);
    for (unsigned i = 0; i < width_; ++i) {
        self_cap_[i] = (caps.ground(i) * length + c_rep).raw();
        for (unsigned j = 0; j < width_; ++j) {
            if (i == j)
                continue;
            unsigned sep = j > i ? j - i : i - j;
            coupling_cap_(i, j) = sep <= radius_
                ? (caps.coupling(i, j) * length).raw()
                : 0.0;
        }
    }

    line_energy_.assign(width_, 0.0);
    factor_.assign(2 * static_cast<size_t>(width_), 1.0);
    acc_line_.assign(width_, 0.0);
    last_word_ &= word_mask_;

    kernel_ = config.kernel;
    final_prev_word_ = last_word_;
    if (kernel_ == TransitionKernel::Packed) {
        counts_ = std::make_unique<PackedTransitionCounts>(
            width_, radius_, last_word_);
        interval_self_base_.assign(width_, 0);
        interval_pair_base_.assign(
            static_cast<size_t>(width_) * counts_->storedRadius(),
            0);
    }
}

BusEnergyModel::~BusEnergyModel() = default;

Farads
BusEnergyModel::selfCapacitance(unsigned i) const
{
    if (i >= width_)
        panic("BusEnergyModel::selfCapacitance: line %u out of %u",
              i, width_);
    return Farads{self_cap_[i]};
}

Farads
BusEnergyModel::couplingCapacitance(unsigned i, unsigned j) const
{
    if (i >= width_ || j >= width_)
        panic("BusEnergyModel::couplingCapacitance: (%u, %u) out of %u",
              i, j, width_);
    return Farads{coupling_cap_(i, j)};
}

namespace {

/**
 * Smallest radius at which moving lines are grouped: below it a
 * line's window is so short that the data-dependent group size costs
 * more in mispredicted branches than the parallel chains save.
 */
constexpr unsigned kMinGroupRadius = 4;

/**
 * Coupling sums of K moving lines over one shared window [lo, hi]:
 * K independent add chains, each adding its own line's terms in
 * ascending j, so every chain is the per-line sum of the reference
 * evaluator (see transitionEnergy()).
 */
template <unsigned K>
inline void
couplingSums(const double *const *rows, const double *const *factors,
             unsigned lo, unsigned hi, double *sums)
{
    double s[K] = {};
    for (unsigned j = lo; j <= hi; ++j) {
        // Fully unrolled so the K sums stay in registers; a rolled
        // loop keeps them on the stack and every term then waits on
        // a store-to-load round trip.
#pragma GCC unroll 4
        for (unsigned k = 0; k < K; ++k)
            s[k] += rows[k][j] * factors[k][j];
    }
    for (unsigned k = 0; k < K; ++k)
        sums[k] = s[k];
}

} // namespace

const std::vector<double> &
BusEnergyModel::transitionEnergy(uint64_t prev, uint64_t next)
{
    const uint64_t changed = (prev ^ next) & word_mask_;
    double *const line = line_energy_.data();
    double *const rising = factor_.data();
    double *const falling = rising + width_;

    // couplingFactor(vi, vj) = 1 - vi vj, tabulated once per word for
    // both directions of line i: rising[j] for vi = +1, falling[j]
    // for vi = -1. A steady line j (vj = 0) has factor 1, a toggling
    // pair 2 (Miller doubling), a same-direction pair 0. The values
    // are small integers, so each is exactly the double the per-term
    // integer expression casts to. Only the lines this call or the
    // previous one moved can differ from the steady state (factor 1,
    // energy 0), so only those are rewritten.
    for (uint64_t bits = scratch_changed_ | changed; bits;
         bits &= bits - 1) {
        const unsigned j = static_cast<unsigned>(std::countr_zero(bits));
        const int vj = static_cast<int>(bitOf(changed, j)) *
            (2 * static_cast<int>(bitOf(next, j)) - 1);
        rising[j] = static_cast<double>(1 - vj);
        falling[j] = static_cast<double>(1 + vj);
        line[j] = 0.0;
    }
    scratch_changed_ = changed;
    last_ = EnergyBreakdown();
    if (changed == 0)
        return line_energy_;

    // Energy is dissipated only in lines that themselves transition
    // (V_i = 0 makes both the self and every coupling term vanish),
    // so iterate over set bits of the change mask only, in groups of
    // up to four lines summed as independent chains over one shared
    // ascending-j window. A group keeps its first and last lines'
    // own windows overlapping (span <= 2 radius), so the shared
    // window is under twice a line's own; below kMinGroupRadius, and
    // for lines too far apart, a line sums over its own window alone.
    //
    // Bit-identity with the per-line reference loop (one chain per
    // line over its own window, skipping j == i): every term the
    // shared window adds beyond line i's own window, and the
    // diagonal term, is exactly +0.0, because coupling_cap_ holds a
    // literal 0.0 on the diagonal and beyond the radius and every
    // factor is 0, 1 or 2. A sum that starts at +0.0 can never be
    // -0.0 (round-to-nearest only yields -0.0 from -0.0 + -0.0), and
    // x + (+0.0) == x bitwise for every other x, so each chain adds
    // the reference's nonzero terms in the same order and ends on
    // the same bits.
    const unsigned span = 2 * radius_;
    const unsigned max_group = radius_ >= kMinGroupRadius ? 4 : 1;
    double e_self_sum = 0.0;
    double e_coup_sum = 0.0;
    for (uint64_t bits = changed; bits;) {
        unsigned lines[4];
        unsigned n = 0;
        for (uint64_t b = bits; b && n < max_group; b &= b - 1)
            lines[n++] = static_cast<unsigned>(std::countr_zero(b));
        while (n > 1 && lines[n - 1] - lines[0] > span)
            --n;

        const double *rows[4];
        const double *factors[4];
        for (unsigned k = 0; k < n; ++k) {
            rows[k] = coupling_cap_.rowPtr(lines[k]);
            factors[k] = bitOf(next, lines[k]) ? rising : falling;
        }
        const unsigned lo = lines[0] >= radius_ ? lines[0] - radius_ : 0;
        const unsigned hi = std::min(width_ - 1, lines[n - 1] + radius_);
        double sums[4];
        switch (n) {
          case 4: couplingSums<4>(rows, factors, lo, hi, sums); break;
          case 3: couplingSums<3>(rows, factors, lo, hi, sums); break;
          case 2: couplingSums<2>(rows, factors, lo, hi, sums); break;
          default: couplingSums<1>(rows, factors, lo, hi, sums); break;
        }

        for (unsigned k = 0; k < n; ++k) {
            const unsigned i = lines[k];
            const double e_self = half_vdd2_ * self_cap_[i];
            const double e_coup = half_vdd2_ * sums[k];
            line[i] = e_self + e_coup;
            e_self_sum += e_self;
            e_coup_sum += e_coup;
            bits &= bits - 1;
        }
    }
    last_.self = Joules{e_self_sum};
    last_.coupling = Joules{e_coup_sum};
    return line_energy_;
}

Joules
BusEnergyModel::step(uint64_t next)
{
    next &= word_mask_;
    if (kernel_ == TransitionKernel::Packed) {
        final_prev_word_ = last_word_;
        counts_->process(std::span<const uint64_t>(&next, 1));
        last_word_ = next;
        ++cycles_;
        deriveAccumulators();
        transitionEnergy(final_prev_word_, last_word_);
        return last_.total();
    }
    const std::vector<double> &energies =
        transitionEnergy(last_word_, next);
    // Steady lines hold +0.0 energy, so only moving lines change an
    // accumulator (see stepBatch()).
    for (uint64_t bits = scratch_changed_; bits; bits &= bits - 1) {
        const unsigned i = static_cast<unsigned>(std::countr_zero(bits));
        acc_line_[i] += energies[i];
    }
    acc_ += last_;
    last_word_ = next;
    ++cycles_;
    return last_.total();
}

void
BusEnergyModel::stepBatch(std::span<const uint64_t> words,
                          std::span<double> interval_line_acc,
                          EnergyBreakdown &interval_acc)
{
    NANOBUS_EXPECT(interval_line_acc.size() == width_,
                   "stepBatch: scratch has %zu slots for a %u-line "
                   "bus", interval_line_acc.size(), width_);
    if (kernel_ == TransitionKernel::Packed) {
        // Counts only; the caller's interval spans stay untouched
        // (interval energies derive from beginInterval()/
        // intervalEnergy() count deltas instead — see the header).
        const size_t n = words.size();
        if (n == 0)
            return;
        final_prev_word_ =
            n >= 2 ? (words[n - 2] & word_mask_) : last_word_;
        counts_->process(words);
        last_word_ = counts_->prevWord();
        cycles_ += n;
        deriveAccumulators();
        // Re-derive the final transition through the scalar
        // evaluator: for a single transition the count form reduces
        // to it exactly, so lastBreakdown()/lastLineEnergy() keep
        // scalar-identical semantics.
        transitionEnergy(final_prev_word_, last_word_);
        return;
    }
    uint64_t last = last_word_;
    for (size_t k = 0; k < words.size(); ++k) {
        const uint64_t next = words[k] & word_mask_;
        transitionEnergy(last, next);
        // Each accumulator sees the same per-word addition sequence
        // as step() + the caller's per-record loop, so the sums are
        // bit-identical to the per-record path. Only moving lines are
        // added: a steady line's energy is +0.0, and adding +0.0 to
        // an accumulator that started at +0.0 leaves its bits as they
        // are (it can never hold -0.0), so skipping it is bitwise the
        // full-width loop.
        for (uint64_t bits = scratch_changed_; bits; bits &= bits - 1) {
            const unsigned i =
                static_cast<unsigned>(std::countr_zero(bits));
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

void
BusEnergyModel::resetAccumulation()
{
    std::fill(acc_line_.begin(), acc_line_.end(), 0.0);
    acc_ = EnergyBreakdown();
    cycles_ = 0;
    if (kernel_ == TransitionKernel::Packed) {
        counts_->resetCounts();
        std::fill(interval_self_base_.begin(),
                  interval_self_base_.end(), 0ull);
        std::fill(interval_pair_base_.begin(),
                  interval_pair_base_.end(), int64_t{0});
    }
}

Status
BusEnergyModel::restoreAccumulation(uint64_t last_word,
                                    const std::vector<double> &acc_line,
                                    const EnergyBreakdown &acc,
                                    uint64_t cycles)
{
    if (kernel_ == TransitionKernel::Packed) {
        return Status::failure(
            ErrorCode::InvalidArgument,
            "restoreAccumulation: packed-kernel models restore "
            "through restorePackedState()");
    }
    if (acc_line.size() != width_) {
        return Status::failure(
            ErrorCode::InvalidArgument,
            "restoreAccumulation: " +
                std::to_string(acc_line.size()) +
                " per-line accumulators for a " +
                std::to_string(width_) + "-wire bus");
    }
    last_word_ = last_word & word_mask_;
    acc_line_ = acc_line;
    acc_ = acc;
    cycles_ = cycles;
    return Status();
}

void
BusEnergyModel::deriveEnergies(const uint64_t *self_base,
                               const int64_t *pair_base,
                               std::span<double> line_out,
                               EnergyBreakdown &out) const
{
    // One shared derivation for whole-run and interval energies:
    // per line, E_i = 0.5 Vdd^2 (C_self N_i + sum_j c_ij (N_i +
    // D_ij)), where N_i and D_ij are exact integer counts (deltas
    // against the baseline when one is given). The j window and its
    // ascending order match transitionEnergy(), so for a single
    // transition this reduces to it bitwise.
    out = EnergyBreakdown();
    const unsigned stride = counts_->storedRadius();
    for (unsigned i = 0; i < width_; ++i) {
        const uint64_t n =
            counts_->selfCount(i) - (self_base ? self_base[i] : 0);
        const double e_self =
            half_vdd2_ * self_cap_[i] * static_cast<double>(n);

        double coupling_sum = 0.0;
        const double *row = coupling_cap_.rowPtr(i);
        const unsigned j_lo = i >= radius_ ? i - radius_ : 0;
        const unsigned j_hi = std::min(width_ - 1, i + radius_);
        for (unsigned j = j_lo; j <= j_hi; ++j) {
            if (j == i)
                continue;
            int64_t dev = counts_->pairDeviationAt(i, j);
            if (pair_base) {
                const unsigned lo = i < j ? i : j;
                const unsigned d = i < j ? j - i : i - j;
                if (d <= stride) {
                    dev -= pair_base[static_cast<size_t>(lo) *
                                         stride +
                                     (d - 1)];
                }
            }
            coupling_sum += row[j] *
                static_cast<double>(static_cast<int64_t>(n) + dev);
        }
        const double e_coup = half_vdd2_ * coupling_sum;

        line_out[i] = e_self + e_coup;
        out.self += Joules{e_self};
        out.coupling += Joules{e_coup};
    }
}

void
BusEnergyModel::deriveAccumulators()
{
    deriveEnergies(nullptr, nullptr, acc_line_, acc_);
}

void
BusEnergyModel::beginInterval()
{
    if (kernel_ != TransitionKernel::Packed)
        return;
    std::span<const uint64_t> self = counts_->selfCounts();
    std::span<const int64_t> pairs = counts_->pairDeviations();
    std::copy(self.begin(), self.end(),
              interval_self_base_.begin());
    std::copy(pairs.begin(), pairs.end(),
              interval_pair_base_.begin());
}

void
BusEnergyModel::intervalEnergy(std::span<double> line_out,
                               EnergyBreakdown &out) const
{
    if (kernel_ != TransitionKernel::Packed)
        panic("intervalEnergy: scalar-kernel models account "
              "intervals through the stepBatch spans");
    NANOBUS_EXPECT(line_out.size() == width_,
                   "intervalEnergy: %zu slots for a %u-line bus",
                   line_out.size(), width_);
    deriveEnergies(interval_self_base_.data(),
                   interval_pair_base_.data(), line_out, out);
}

unsigned
BusEnergyModel::packedPairStride() const
{
    if (kernel_ != TransitionKernel::Packed)
        panic("packedPairStride: model runs the scalar kernel");
    return counts_->storedRadius();
}

BusEnergyModel::PackedState
BusEnergyModel::capturePackedState() const
{
    if (kernel_ != TransitionKernel::Packed)
        panic("capturePackedState: model runs the scalar kernel");
    PackedState state;
    state.last_word = last_word_;
    state.final_prev_word = final_prev_word_;
    state.cycles = cycles_;
    std::span<const uint64_t> self = counts_->selfCounts();
    std::span<const int64_t> pairs = counts_->pairDeviations();
    state.self.assign(self.begin(), self.end());
    state.pairs.assign(pairs.begin(), pairs.end());
    state.interval_self = interval_self_base_;
    state.interval_pairs = interval_pair_base_;
    return state;
}

Status
BusEnergyModel::restorePackedState(const PackedState &state)
{
    if (kernel_ != TransitionKernel::Packed) {
        return Status::failure(
            ErrorCode::InvalidArgument,
            "restorePackedState: model runs the scalar kernel");
    }
    if (state.interval_self.size() != interval_self_base_.size() ||
        state.interval_pairs.size() != interval_pair_base_.size()) {
        return Status::failure(
            ErrorCode::InvalidArgument,
            "restorePackedState: interval baseline shape mismatch");
    }
    Status restored = counts_->restore(state.last_word, state.self,
                                       state.pairs);
    if (!restored.ok())
        return restored;
    last_word_ = state.last_word & word_mask_;
    final_prev_word_ = state.final_prev_word & word_mask_;
    cycles_ = state.cycles;
    interval_self_base_ = state.interval_self;
    interval_pair_base_ = state.interval_pairs;
    deriveAccumulators();
    transitionEnergy(final_prev_word_, last_word_);
    return Status();
}

} // namespace nanobus
