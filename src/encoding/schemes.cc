#include "encoding/schemes.hh"

#include <algorithm>
#include <string>

#include "util/bitops.hh"
#include "util/contracts.hh"
#include "util/logging.hh"

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

// ---------------------------------------------------------------- //
// GrayEncoder

GrayEncoder::GrayEncoder(unsigned data_width)
    : BusEncoder(data_width)
{
}

uint64_t
GrayEncoder::encode(uint64_t data)
{
    return toGray(data & data_mask_) & data_mask_;
}

void
GrayEncoder::encodeBatch(std::span<const uint64_t> data,
                         std::span<uint64_t> bus)
{
    expectBatchSpans(data, bus);
    // Gray coding is stateless and element-wise, so the batch is one
    // vectorizable pass. Each input is masked *before* the shift, as
    // in encode()'s toGray(data & mask): a stray bit at position
    // `width` would otherwise leak into result bit width-1.
    for (size_t k = 0; k < data.size(); ++k) {
        const uint64_t t = data[k] & data_mask_;
        bus[k] = t ^ (t >> 1);
    }
}

uint64_t
GrayEncoder::decode(uint64_t bus_word)
{
    return fromGray(bus_word & data_mask_) & data_mask_;
}

void
GrayEncoder::reset(uint64_t)
{
}

// ---------------------------------------------------------------- //
// T0Encoder

T0Encoder::T0Encoder(unsigned data_width, uint64_t stride)
    : BusEncoder(data_width), stride_(stride)
{
    if (stride == 0)
        fatal("T0Encoder: stride must be positive");
}

uint64_t
T0Encoder::encode(uint64_t data)
{
    data &= data_mask_;
    const uint64_t inc_bit = 1ull << data_width_;

    if (tx_primed_ &&
        data == ((last_data_tx_ + stride_) & data_mask_)) {
        // In-stride: freeze the payload, raise INC.
        last_bus_ = (last_bus_ & data_mask_) | inc_bit;
    } else {
        last_bus_ = data;
    }
    last_data_tx_ = data;
    tx_primed_ = true;
    return last_bus_;
}

uint64_t
T0Encoder::decode(uint64_t bus_word)
{
    if (bitOf(bus_word, data_width_)) {
        if (!rx_primed_)
            fatal("T0Encoder::decode: INC received before any data");
        last_data_rx_ = (last_data_rx_ + stride_) & data_mask_;
    } else {
        last_data_rx_ = bus_word & data_mask_;
    }
    rx_primed_ = true;
    return last_data_rx_;
}

void
T0Encoder::reset(uint64_t initial_bus_word)
{
    last_bus_ = initial_bus_word & lowMask(busWidth());
    last_data_tx_ = last_bus_ & data_mask_;
    last_data_rx_ = last_data_tx_;
    tx_primed_ = true;
    rx_primed_ = true;
}

// ---------------------------------------------------------------- //
// SegmentedBusInvert

SegmentedBusInvert::SegmentedBusInvert(unsigned data_width,
                                       unsigned segments)
    : BusEncoder(data_width), segments_(segments)
{
    if (segments == 0 || segments > data_width)
        fatal("SegmentedBusInvert: %u segments for %u data bits",
              segments, data_width);
    if (data_width + segments > 62)
        fatal("SegmentedBusInvert: bus width %u exceeds 62",
              data_width + segments);
}

std::string
SegmentedBusInvert::name() const
{
    return "segmented-bus-invert-" + std::to_string(segments_);
}

std::pair<unsigned, unsigned>
SegmentedBusInvert::segmentRange(unsigned s) const
{
    if (s >= segments_)
        panic("SegmentedBusInvert: segment %u out of %u", s,
              segments_);
    // Spread the width as evenly as possible; early segments take
    // the remainder.
    unsigned base = data_width_ / segments_;
    unsigned extra = data_width_ % segments_;
    unsigned lo = s * base + std::min(s, extra);
    unsigned len = base + (s < extra ? 1 : 0);
    return {lo, lo + len};
}

uint64_t
SegmentedBusInvert::encode(uint64_t data)
{
    data &= data_mask_;
    uint64_t word = 0;
    for (unsigned s = 0; s < segments_; ++s) {
        auto [lo, hi] = segmentRange(s);
        unsigned len = hi - lo;
        uint64_t seg_mask = lowMask(len);
        uint64_t seg_data = (data >> lo) & seg_mask;
        uint64_t seg_prev = (last_bus_ >> lo) & seg_mask;
        bool last_invert = bitOf(last_bus_, data_width_ + s);

        unsigned distance = popcount(seg_data ^ seg_prev);
        bool invert;
        if (2 * distance > len)
            invert = true;
        else if (2 * distance == len)
            invert = last_invert; // tie: keep the line steady
        else
            invert = false;

        uint64_t payload = invert ? (~seg_data & seg_mask)
                                  : seg_data;
        word |= payload << lo;
        word |= static_cast<uint64_t>(invert)
            << (data_width_ + s);
    }
    last_bus_ = word;
    return word;
}

uint64_t
SegmentedBusInvert::decode(uint64_t bus_word)
{
    uint64_t data = 0;
    for (unsigned s = 0; s < segments_; ++s) {
        auto [lo, hi] = segmentRange(s);
        uint64_t seg_mask = lowMask(hi - lo);
        uint64_t payload = (bus_word >> lo) & seg_mask;
        if (bitOf(bus_word, data_width_ + s))
            payload = ~payload & seg_mask;
        data |= payload << lo;
    }
    return data;
}

void
SegmentedBusInvert::reset(uint64_t initial_bus_word)
{
    last_bus_ = initial_bus_word & lowMask(busWidth());
}

// ---------------------------------------------------------------- //
// OffsetEncoder

OffsetEncoder::OffsetEncoder(unsigned data_width)
    : BusEncoder(data_width)
{
}

uint64_t
OffsetEncoder::encode(uint64_t data)
{
    data &= data_mask_;
    uint64_t diff = (data - last_data_tx_) & data_mask_;
    last_data_tx_ = data;
    return diff;
}

void
OffsetEncoder::encodeBatch(std::span<const uint64_t> data,
                           std::span<uint64_t> bus)
{
    expectBatchSpans(data, bus);
    if (data.empty())
        return;
    // The difference chain looks serial but each output depends only
    // on two *inputs* — bus[k] = (data[k] - data[k-1]) & mask — so
    // the whole batch vectorizes against a shifted copy of itself.
    // Truncation to the data width makes the pre-masking of encode()
    // redundant: subtraction mod 2^64 then & mask equals subtraction
    // mod 2^width. State hoists to the edges: the held word seeds
    // element 0 and the final masked input becomes the new held word.
    bus[0] = (data[0] - last_data_tx_) & data_mask_;
    for (size_t k = 1; k < data.size(); ++k)
        bus[k] = (data[k] - data[k - 1]) & data_mask_;
    last_data_tx_ = data[data.size() - 1] & data_mask_;
}

uint64_t
OffsetEncoder::decode(uint64_t bus_word)
{
    acc_rx_ = (acc_rx_ + (bus_word & data_mask_)) & data_mask_;
    return acc_rx_;
}

void
OffsetEncoder::reset(uint64_t initial_bus_word)
{
    // Both sides agree the accumulator starts at the initial word.
    last_data_tx_ = initial_bus_word & data_mask_;
    acc_rx_ = last_data_tx_;
}

// ------------------------------------------------------------------ //
// Checkpoint state capture (encoder.hh captureState/restoreState).
//
// Each scheme serializes exactly its mutable members, in declaration
// order, as opaque u64 words; restoreState validates the word count
// so a snapshot from a different scheme shape is rejected instead of
// silently misinterpreted. The invert family and the pass-through
// bus share the single-word {last_bus_} layout.

bool
UnencodedBus::captureState(std::vector<uint64_t> &out) const
{
    out.push_back(last_bus_);
    return true;
}

bool
UnencodedBus::restoreState(std::span<const uint64_t> words)
{
    if (words.size() != 1)
        return false;
    last_bus_ = words[0];
    return true;
}

bool
BusInvert::captureState(std::vector<uint64_t> &out) const
{
    out.push_back(last_bus_);
    return true;
}

bool
BusInvert::restoreState(std::span<const uint64_t> words)
{
    if (words.size() != 1)
        return false;
    last_bus_ = words[0];
    return true;
}

bool
OddEvenBusInvert::captureState(std::vector<uint64_t> &out) const
{
    out.push_back(last_bus_);
    return true;
}

bool
OddEvenBusInvert::restoreState(std::span<const uint64_t> words)
{
    if (words.size() != 1)
        return false;
    last_bus_ = words[0];
    return true;
}

bool
CouplingDrivenBusInvert::captureState(std::vector<uint64_t> &out) const
{
    out.push_back(last_bus_);
    return true;
}

bool
CouplingDrivenBusInvert::restoreState(std::span<const uint64_t> words)
{
    if (words.size() != 1)
        return false;
    last_bus_ = words[0];
    return true;
}

bool
GrayEncoder::captureState(std::vector<uint64_t> &) const
{
    // Stateless: the empty capture still reports "supported".
    return true;
}

bool
GrayEncoder::restoreState(std::span<const uint64_t> words)
{
    return words.empty();
}

bool
T0Encoder::captureState(std::vector<uint64_t> &out) const
{
    out.push_back(last_bus_);
    out.push_back(last_data_tx_);
    out.push_back(last_data_rx_);
    out.push_back((tx_primed_ ? 1u : 0u) | (rx_primed_ ? 2u : 0u));
    return true;
}

bool
T0Encoder::restoreState(std::span<const uint64_t> words)
{
    if (words.size() != 4 || (words[3] & ~uint64_t{3}) != 0)
        return false;
    last_bus_ = words[0];
    last_data_tx_ = words[1];
    last_data_rx_ = words[2];
    tx_primed_ = (words[3] & 1) != 0;
    rx_primed_ = (words[3] & 2) != 0;
    return true;
}

bool
SegmentedBusInvert::captureState(std::vector<uint64_t> &out) const
{
    out.push_back(last_bus_);
    return true;
}

bool
SegmentedBusInvert::restoreState(std::span<const uint64_t> words)
{
    if (words.size() != 1)
        return false;
    last_bus_ = words[0];
    return true;
}

bool
OffsetEncoder::captureState(std::vector<uint64_t> &out) const
{
    out.push_back(last_data_tx_);
    out.push_back(acc_rx_);
    return true;
}

bool
OffsetEncoder::restoreState(std::span<const uint64_t> words)
{
    if (words.size() != 2)
        return false;
    last_data_tx_ = words[0];
    acc_rx_ = words[1];
    return true;
}

} // namespace nanobus
