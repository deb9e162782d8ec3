#include "encoding/schemes.hh"

#include "util/bitops.hh"
#include "util/contracts.hh"

namespace nanobus {

namespace {

/** Shared span precondition of the encodeBatch overrides. */
inline void
expectBatchSpans(std::span<const uint64_t> data,
                 std::span<uint64_t> bus)
{
    NANOBUS_EXPECT(data.size() == bus.size(),
                   "encodeBatch: %zu data words but %zu bus slots",
                   data.size(), bus.size());
}

} // anonymous namespace

// ---------------------------------------------------------------- //
// UnencodedBus

UnencodedBus::UnencodedBus(unsigned data_width)
    : BusEncoder(data_width)
{
}

uint64_t
UnencodedBus::encode(uint64_t data)
{
    last_bus_ = data & data_mask_;
    return last_bus_;
}

void
UnencodedBus::encodeBatch(std::span<const uint64_t> data,
                          std::span<uint64_t> bus)
{
    expectBatchSpans(data, bus);
    // Stateless element-wise masking over the whole batch.
    for (size_t k = 0; k < data.size(); ++k)
        bus[k] = data[k] & data_mask_;
    if (!bus.empty())
        last_bus_ = bus[bus.size() - 1];
}

uint64_t
UnencodedBus::decode(uint64_t bus_word)
{
    return bus_word & data_mask_;
}

void
UnencodedBus::reset(uint64_t initial_bus_word)
{
    last_bus_ = initial_bus_word & data_mask_;
}

// ---------------------------------------------------------------- //
// BusInvert

BusInvert::BusInvert(unsigned data_width)
    : BusEncoder(data_width)
{
}

uint64_t
BusInvert::encode(uint64_t data)
{
    data &= data_mask_;
    const uint64_t last_payload = last_bus_ & data_mask_;
    const bool last_invert = bitOf(last_bus_, data_width_);

    unsigned distance = popcount(data ^ last_payload);
    bool invert;
    if (2 * distance > data_width_) {
        invert = true;
    } else if (2 * distance == data_width_) {
        // Tie: keep the invert line steady to avoid a gratuitous
        // transition on it (the payload cost is identical).
        invert = last_invert;
    } else {
        invert = false;
    }

    uint64_t payload = invert ? (~data & data_mask_) : data;
    last_bus_ = payload | (static_cast<uint64_t>(invert)
                           << data_width_);
    return last_bus_;
}

void
BusInvert::encodeBatch(std::span<const uint64_t> data,
                       std::span<uint64_t> bus)
{
    expectBatchSpans(data, bus);
    // Same decision logic as encode(), with the latched bus word
    // hoisted into a register for the whole run.
    const uint64_t mask = data_mask_;
    const unsigned width = data_width_;
    uint64_t last = last_bus_;
    for (size_t k = 0; k < data.size(); ++k) {
        const uint64_t d = data[k] & mask;
        const uint64_t last_payload = last & mask;
        const bool last_invert = bitOf(last, width);

        const unsigned distance = popcount(d ^ last_payload);
        bool invert;
        if (2 * distance > width) {
            invert = true;
        } else if (2 * distance == width) {
            invert = last_invert;
        } else {
            invert = false;
        }

        const uint64_t payload = invert ? (~d & mask) : d;
        last = payload | (static_cast<uint64_t>(invert) << width);
        bus[k] = last;
    }
    last_bus_ = last;
}

uint64_t
BusInvert::decode(uint64_t bus_word)
{
    uint64_t payload = bus_word & data_mask_;
    return bitOf(bus_word, data_width_) ? (~payload & data_mask_)
                                        : payload;
}

void
BusInvert::reset(uint64_t initial_bus_word)
{
    last_bus_ = initial_bus_word & lowMask(busWidth());
}

// ---------------------------------------------------------------- //
// OddEvenBusInvert

OddEvenBusInvert::OddEvenBusInvert(unsigned data_width)
    : BusEncoder(data_width)
{
}

uint64_t
OddEvenBusInvert::buildBusWord(uint64_t payload, bool invert_odd,
                               bool invert_even) const
{
    // Layout (paper, Sec 5.2.1): odd-invert line at bus LSB, payload
    // shifted up one, even-invert line at bus MSB.
    return (static_cast<uint64_t>(invert_even) << (data_width_ + 1)) |
        ((payload & data_mask_) << 1) |
        static_cast<uint64_t>(invert_odd);
}

uint64_t
OddEvenBusInvert::encode(uint64_t data)
{
    data &= data_mask_;

    uint64_t best_word = 0;
    unsigned best_cost = ~0u;
    // Modes: 00 none, 01 even inverted, 10 odd inverted, 11 all
    // inverted; evaluated on the full bus word so invert-line
    // transitions count toward the cost too.
    for (unsigned mode = 0; mode < 4; ++mode) {
        bool inv_even = mode & 1;
        bool inv_odd = mode & 2;
        uint64_t payload = data;
        if (inv_even)
            payload ^= evenMask(data_width_);
        if (inv_odd)
            payload ^= oddMask(data_width_);
        uint64_t word = buildBusWord(payload, inv_odd, inv_even);
        unsigned cost = adjacentCouplingCost(last_bus_, word,
                                             busWidth());
        if (cost < best_cost) {
            best_cost = cost;
            best_word = word;
        }
    }
    last_bus_ = best_word;
    return last_bus_;
}

void
OddEvenBusInvert::encodeBatch(std::span<const uint64_t> data,
                              std::span<uint64_t> bus)
{
    expectBatchSpans(data, bus);
    const uint64_t mask = data_mask_;
    const uint64_t even_mask = evenMask(data_width_);
    const uint64_t odd_mask = oddMask(data_width_);
    const unsigned width = busWidth();
    uint64_t last = last_bus_;
    for (size_t k = 0; k < data.size(); ++k) {
        const uint64_t d = data[k] & mask;
        uint64_t best_word = 0;
        unsigned best_cost = ~0u;
        for (unsigned mode = 0; mode < 4; ++mode) {
            const bool inv_even = mode & 1;
            const bool inv_odd = mode & 2;
            uint64_t payload = d;
            if (inv_even)
                payload ^= even_mask;
            if (inv_odd)
                payload ^= odd_mask;
            const uint64_t word =
                buildBusWord(payload, inv_odd, inv_even);
            const unsigned cost =
                adjacentCouplingCost(last, word, width);
            if (cost < best_cost) {
                best_cost = cost;
                best_word = word;
            }
        }
        last = best_word;
        bus[k] = last;
    }
    last_bus_ = last;
}

uint64_t
OddEvenBusInvert::decode(uint64_t bus_word)
{
    bool inv_odd = bitOf(bus_word, 0);
    bool inv_even = bitOf(bus_word, data_width_ + 1);
    uint64_t payload = (bus_word >> 1) & data_mask_;
    if (inv_even)
        payload ^= evenMask(data_width_);
    if (inv_odd)
        payload ^= oddMask(data_width_);
    return payload;
}

void
OddEvenBusInvert::reset(uint64_t initial_bus_word)
{
    last_bus_ = initial_bus_word & lowMask(busWidth());
}

// ---------------------------------------------------------------- //
// CouplingDrivenBusInvert

CouplingDrivenBusInvert::CouplingDrivenBusInvert(unsigned data_width)
    : BusEncoder(data_width)
{
}

uint64_t
CouplingDrivenBusInvert::encode(uint64_t data)
{
    data &= data_mask_;
    // Invert line is the bus MSB (bit data_width_).
    uint64_t plain = data;
    uint64_t inverted = (~data & data_mask_) |
        (1ull << data_width_);

    unsigned cost_plain = adjacentCouplingCost(last_bus_, plain,
                                               busWidth());
    unsigned cost_inverted = adjacentCouplingCost(last_bus_, inverted,
                                                  busWidth());
    // Invert only on a strict win, per Kim et al.
    last_bus_ = cost_inverted < cost_plain ? inverted : plain;
    return last_bus_;
}

void
CouplingDrivenBusInvert::encodeBatch(std::span<const uint64_t> data,
                                     std::span<uint64_t> bus)
{
    expectBatchSpans(data, bus);
    const uint64_t mask = data_mask_;
    const uint64_t invert_bit = 1ull << data_width_;
    const unsigned width = busWidth();
    uint64_t last = last_bus_;
    for (size_t k = 0; k < data.size(); ++k) {
        const uint64_t d = data[k] & mask;
        const uint64_t plain = d;
        const uint64_t inverted = (~d & mask) | invert_bit;

        const unsigned cost_plain =
            adjacentCouplingCost(last, plain, width);
        const unsigned cost_inverted =
            adjacentCouplingCost(last, inverted, width);
        last = cost_inverted < cost_plain ? inverted : plain;
        bus[k] = last;
    }
    last_bus_ = last;
}

uint64_t
CouplingDrivenBusInvert::decode(uint64_t bus_word)
{
    uint64_t payload = bus_word & data_mask_;
    return bitOf(bus_word, data_width_) ? (~payload & data_mask_)
                                        : payload;
}

void
CouplingDrivenBusInvert::reset(uint64_t initial_bus_word)
{
    last_bus_ = initial_bus_word & lowMask(busWidth());
}

// ------------------------------------------------------------------ //
// Checkpoint state capture (encoder.hh captureState/restoreState).
//
// Every scheme's mutable state is the single word {last_bus_};
// restoreState validates the word count so a malformed snapshot is
// rejected instead of silently misinterpreted.

void
UnencodedBus::captureState(std::vector<uint64_t> &out) const
{
    out.push_back(last_bus_);
}

bool
UnencodedBus::restoreState(std::span<const uint64_t> words)
{
    if (words.size() != 1)
        return false;
    last_bus_ = words[0];
    return true;
}

void
BusInvert::captureState(std::vector<uint64_t> &out) const
{
    out.push_back(last_bus_);
}

bool
BusInvert::restoreState(std::span<const uint64_t> words)
{
    if (words.size() != 1)
        return false;
    last_bus_ = words[0];
    return true;
}

void
OddEvenBusInvert::captureState(std::vector<uint64_t> &out) const
{
    out.push_back(last_bus_);
}

bool
OddEvenBusInvert::restoreState(std::span<const uint64_t> words)
{
    if (words.size() != 1)
        return false;
    last_bus_ = words[0];
    return true;
}

void
CouplingDrivenBusInvert::captureState(std::vector<uint64_t> &out) const
{
    out.push_back(last_bus_);
}

bool
CouplingDrivenBusInvert::restoreState(std::span<const uint64_t> words)
{
    if (words.size() != 1)
        return false;
    last_bus_ = words[0];
    return true;
}

} // namespace nanobus
