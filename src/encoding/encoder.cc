#include "encoding/encoder.hh"

#include "encoding/schemes.hh"
#include "energy/transition.hh"
#include "util/bitops.hh"
#include "util/logging.hh"

namespace nanobus {

const std::vector<EncodingScheme> &
paperSchemes()
{
    static const std::vector<EncodingScheme> schemes = {
        EncodingScheme::BusInvert,
        EncodingScheme::OddEvenBusInvert,
        EncodingScheme::CouplingDrivenBusInvert,
        EncodingScheme::Unencoded,
    };
    return schemes;
}

const char *
schemeName(EncodingScheme scheme)
{
    switch (scheme) {
      case EncodingScheme::Unencoded:
        return "unencoded";
      case EncodingScheme::BusInvert:
        return "bus-invert";
      case EncodingScheme::OddEvenBusInvert:
        return "odd-even-bus-invert";
      case EncodingScheme::CouplingDrivenBusInvert:
        return "coupling-driven-bus-invert";
    }
    return "?";
}

BusEncoder::BusEncoder(unsigned data_width)
    : data_width_(data_width), data_mask_(lowMask(data_width))
{
    if (data_width == 0 || data_width > 62)
        fatal("BusEncoder: data width %u outside [1, 62]", data_width);
}

void
BusEncoder::reset(uint64_t initial_bus_word)
{
    last_bus_ = initial_bus_word & lowMask(busWidth());
}

void
BusEncoder::captureState(std::vector<uint64_t> &out) const
{
    out.push_back(last_bus_);
}

bool
BusEncoder::restoreState(std::span<const uint64_t> words)
{
    if (words.size() != 1)
        return false;
    last_bus_ = words[0];
    return true;
}

unsigned
adjacentCouplingCostReference(uint64_t prev, uint64_t next,
                              unsigned width)
{
    unsigned cost = 0;
    int v_prev = transitionValue(prev, next, 0);
    for (unsigned i = 0; i + 1 < width; ++i) {
        int v_next = transitionValue(prev, next, i + 1);
        int diff = v_prev - v_next;
        cost += static_cast<unsigned>(diff * diff);
        v_prev = v_next;
    }
    return cost;
}

unsigned
adjacentCouplingCost(uint64_t prev, uint64_t next, unsigned width)
{
    if (width < 2)
        return 0;
    // Expand (v_i - v_j)^2 = v_i^2 + v_j^2 - 2 v_i v_j over adjacent
    // pairs and evaluate each sum with mask arithmetic:
    //   v^2 terms   -> changed-bit counts over the low/high pair
    //                  member positions;
    //   v_i v_j     -> +1 when both rise or both fall (same), -1
    //                  when they move oppositely (toggle).
    const uint64_t mask = lowMask(width);
    const uint64_t rising = ~prev & next & mask;
    const uint64_t falling = prev & ~next & mask;
    const uint64_t changed = rising | falling;
    const uint64_t pair_mask = lowMask(width - 1);

    unsigned low_changed = popcount(changed & pair_mask);
    unsigned high_changed = popcount((changed >> 1) & pair_mask);
    unsigned same = popcount(
        ((rising & (rising >> 1)) | (falling & (falling >> 1))) &
        pair_mask);
    unsigned toggle = popcount(
        ((rising & (falling >> 1)) | (falling & (rising >> 1))) &
        pair_mask);

    return low_changed + high_changed - 2 * same + 2 * toggle;
}

std::unique_ptr<BusEncoder>
makeEncoder(EncodingScheme scheme, unsigned data_width)
{
    switch (scheme) {
      case EncodingScheme::Unencoded:
        return std::make_unique<UnencodedBus>(data_width);
      case EncodingScheme::BusInvert:
        return std::make_unique<BusInvert>(data_width);
      case EncodingScheme::OddEvenBusInvert:
        return std::make_unique<OddEvenBusInvert>(data_width);
      case EncodingScheme::CouplingDrivenBusInvert:
        return std::make_unique<CouplingDrivenBusInvert>(data_width);
    }
    panic("makeEncoder: unknown scheme %d", static_cast<int>(scheme));
}

} // namespace nanobus
