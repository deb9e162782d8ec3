/**
 * @file
 * Low-power bus encoder interface (Sec 5.2 of the paper).
 *
 * An encoder maps a stream of data words onto a (possibly wider) bus
 * word stream; extra control lines (invert lines) occupy physical bus
 * positions and therefore participate in the energy model like any
 * other line. Encoders are stateful — most schemes decide based on the
 * previously transmitted bus word.
 */

#ifndef NANOBUS_ENCODING_ENCODER_HH
#define NANOBUS_ENCODING_ENCODER_HH

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

namespace nanobus {

/** Encoding schemes known to the factory. */
enum class EncodingScheme {
    Unencoded,
    BusInvert,
    OddEvenBusInvert,
    CouplingDrivenBusInvert,
};

/** All schemes evaluated in Fig 3 of the paper, in its order. */
const std::vector<EncodingScheme> &paperSchemes();

/** Scheme name, e.g. "bus-invert". */
const char *schemeName(EncodingScheme scheme);

/**
 * Abstract stateful bus encoder.
 */
class BusEncoder
{
  public:
    virtual ~BusEncoder() = default;

    /** Human-readable scheme name. */
    virtual std::string name() const = 0;

    /** Payload width in bits. */
    unsigned dataWidth() const { return data_width_; }

    /** Physical bus width (payload + control lines). */
    virtual unsigned busWidth() const = 0;

    /**
     * Encode the next data word into the bus word to transmit, and
     * latch it as the encoder's transmitted state.
     */
    virtual uint64_t encode(uint64_t data) = 0;

    /**
     * Encode a run of data words into bus words: `bus[k]` is the bus
     * word for `data[k]`, with encoder state advanced exactly as `n`
     * sequential encode() calls would. The spans must be the same
     * size and may not alias.
     *
     * BusInvert, OddEvenBusInvert and CouplingDrivenBusInvert run
     * devirtualized loops that hoist the latched state into locals;
     * Unencoded is an element-wise loop over the whole batch. Each is
     * bit-identical to the per-word encode(), pinned by
     * tests/encoding/test_encode_batch_edges.cc and
     * tests/sim/test_pipeline_batch.cc.
     */
    virtual void encodeBatch(std::span<const uint64_t> data,
                             std::span<uint64_t> bus) = 0;

    /**
     * Recover the data word from a received bus word. Every scheme
     * decodes from the bus word alone.
     */
    virtual uint64_t decode(uint64_t bus_word) = 0;

    /** Reset transmit/receive state to an initial bus word. */
    virtual void reset(uint64_t initial_bus_word) = 0;

    /**
     * Append the encoder's full mutable state to `out` as opaque
     * 64-bit words, for checkpoint/resume (sim/snapshot.hh). A
     * restored encoder continues the stream bit-identically to one
     * that never stopped.
     */
    virtual void captureState(std::vector<uint64_t> &out) const = 0;

    /**
     * Restore state captured by captureState() on an identically
     * configured encoder. Returns false when `words` has the wrong
     * shape for this scheme (snapshots are read from files).
     */
    virtual bool restoreState(std::span<const uint64_t> words) = 0;

  protected:
    explicit BusEncoder(unsigned data_width);

    unsigned data_width_;
    uint64_t data_mask_;
};

/**
 * Adjacent-pair coupling cost of transmitting `next` after `prev` on
 * a bus of the given width: sum over adjacent pairs of (v_i - v_j)^2
 * — 4 for a Miller-doubled toggle, 1 for a charge/discharge, 0 for
 * idle or same-direction pairs, proportional to the physical pair
 * energy. This is the metric OEBI and CBI minimize. Bit-parallel;
 * O(1) in the bus width.
 */
unsigned adjacentCouplingCost(uint64_t prev, uint64_t next,
                              unsigned width);

/**
 * Straightforward per-pair implementation of adjacentCouplingCost;
 * kept as the oracle for property tests of the bit-parallel version.
 */
unsigned adjacentCouplingCostReference(uint64_t prev, uint64_t next,
                                       unsigned width);

/** Create an encoder of the given scheme for `data_width` payloads. */
std::unique_ptr<BusEncoder> makeEncoder(EncodingScheme scheme,
                                        unsigned data_width);

} // namespace nanobus

#endif // NANOBUS_ENCODING_ENCODER_HH
