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
    acc_line_.assign(width_, 0.0);
    last_word_ &= word_mask_;

    kernel_ = config.kernel;
    last_prev_ = last_word_;
    last_next_ = last_word_;
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

EnergyBreakdown
BusEnergyModel::evaluate(uint64_t prev, uint64_t next,
                         std::span<double> line) const
{
    std::fill(line.begin(), line.end(), 0.0);
    EnergyBreakdown out;

    const uint64_t changed = (prev ^ next) & word_mask_;
    // Energy is dissipated only in lines that themselves transition
    // (V_i = 0 makes both the self and every coupling term vanish),
    // so iterate over set bits of the change mask only.
    for (uint64_t bits = changed; bits; bits &= bits - 1) {
        const unsigned i = static_cast<unsigned>(std::countr_zero(bits));
        const int vi = bitOf(next, i) ? 1 : -1;
        const double e_self = half_vdd2_ * self_cap_[i];

        double coupling_sum = 0.0;
        const double *row = coupling_cap_.rowPtr(i);
        const unsigned j_lo = i >= radius_ ? i - radius_ : 0;
        const unsigned j_hi = std::min(width_ - 1, i + radius_);
        for (unsigned j = j_lo; j <= j_hi; ++j) {
            if (j == i)
                continue;
            int vj = 0;
            if (bitOf(changed, j))
                vj = bitOf(next, j) ? 1 : -1;
            coupling_sum += row[j] *
                static_cast<double>(couplingFactor(vi, vj));
        }
        const double e_coup = half_vdd2_ * coupling_sum;

        line[i] = e_self + e_coup;
        out.self += Joules{e_self};
        out.coupling += Joules{e_coup};
    }
    return out;
}

const std::vector<double> &
BusEnergyModel::transitionEnergy(uint64_t prev, uint64_t next)
{
    evaluate(prev, next, line_energy_);
    last_prev_ = prev;
    last_next_ = next;
    return line_energy_;
}

EnergyBreakdown
BusEnergyModel::lastBreakdown() const
{
    std::vector<double> line(width_);
    return evaluate(last_prev_, last_next_, line);
}

std::vector<double>
BusEnergyModel::lastLineEnergy() const
{
    std::vector<double> line(width_);
    evaluate(last_prev_, last_next_, line);
    return line;
}

Joules
BusEnergyModel::step(uint64_t next)
{
    next &= word_mask_;
    if (kernel_ == TransitionKernel::Packed) {
        countWords(std::span<const uint64_t>(&next, 1));
        return evaluate(last_prev_, last_next_, line_energy_).total();
    }
    const EnergyBreakdown e = evaluate(last_word_, next, line_energy_);
    for (unsigned i = 0; i < width_; ++i)
        acc_line_[i] += line_energy_[i];
    acc_ += e;
    last_prev_ = last_word_;
    last_next_ = next;
    last_word_ = next;
    ++cycles_;
    return e.total();
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
        countWords(words);
        return;
    }
    uint64_t last = last_word_;
    for (size_t k = 0; k < words.size(); ++k) {
        const uint64_t next = words[k] & word_mask_;
        const EnergyBreakdown e = evaluate(last, next, line_energy_);
        // Each accumulator sees the same per-word addition sequence
        // as step() + the caller's per-record loop, so the sums are
        // bit-identical to the per-record path.
        for (unsigned i = 0; i < width_; ++i) {
            const double e_line = line_energy_[i];
            acc_line_[i] += e_line;
            interval_line_acc[i] += e_line;
        }
        acc_ += e;
        interval_acc += e;
        last_prev_ = last;
        last_next_ = next;
        last = next;
    }
    last_word_ = last;
    cycles_ += words.size();
}

void
BusEnergyModel::countWords(std::span<const uint64_t> words)
{
    const size_t n = words.size();
    if (n == 0)
        return;
    last_prev_ = n >= 2 ? (words[n - 2] & word_mask_) : last_word_;
    counts_->process(words);
    last_word_ = counts_->prevWord();
    last_next_ = last_word_;
    cycles_ += n;
}

std::vector<double>
BusEnergyModel::accumulatedLineEnergy() const
{
    if (kernel_ == TransitionKernel::Scalar)
        return acc_line_;
    std::vector<double> line(width_);
    EnergyBreakdown unused;
    deriveEnergies(nullptr, nullptr, line, unused);
    return line;
}

EnergyBreakdown
BusEnergyModel::accumulatedBreakdown() const
{
    if (kernel_ == TransitionKernel::Scalar)
        return acc_;
    std::vector<double> line(width_);
    EnergyBreakdown out;
    deriveEnergies(nullptr, nullptr, line, out);
    return out;
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

BusEnergyModel::PackedState
BusEnergyModel::capturePackedState() const
{
    if (kernel_ != TransitionKernel::Packed)
        panic("capturePackedState: model runs the scalar kernel");
    PackedState state;
    state.last_word = last_word_;
    state.final_prev_word = last_prev_;
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
    cycles_ = state.cycles;
    interval_self_base_ = state.interval_self;
    interval_pair_base_ = state.interval_pairs;
    last_prev_ = state.final_prev_word & word_mask_;
    last_next_ = last_word_;
    return Status();
}

} // namespace nanobus
