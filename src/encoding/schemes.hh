/**
 * @file
 * Concrete bus encoding schemes.
 *
 * Line layouts follow the paper's implementation notes (Sec 5.2.1):
 *  - Bus-invert and coupling-driven bus-invert place their single
 *    invert line as the bus MSB (bit data_width).
 *  - Odd/even bus-invert places the odd-invert line as the bus LSB
 *    (bit 0, payload shifted up by one) and the even-invert line as
 *    the bus MSB (bit data_width + 1).
 */

#ifndef NANOBUS_ENCODING_SCHEMES_HH
#define NANOBUS_ENCODING_SCHEMES_HH

#include "encoding/encoder.hh"

namespace nanobus {

/** Pass-through: bus word == data word. */
class UnencodedBus : public BusEncoder
{
  public:
    explicit UnencodedBus(unsigned data_width);

    std::string name() const override { return "unencoded"; }
    unsigned busWidth() const override { return data_width_; }
    uint64_t encode(uint64_t data) override;
    void encodeBatch(std::span<const uint64_t> data,
                     std::span<uint64_t> bus) override;
    uint64_t decode(uint64_t bus_word) override;
    void reset(uint64_t initial_bus_word) override;
    void captureState(std::vector<uint64_t> &out) const override;
    bool restoreState(std::span<const uint64_t> words) override;

  private:
    uint64_t last_bus_ = 0;
};

/**
 * Bus-invert coding (Stan & Burleson 1995): invert the word when its
 * Hamming distance to the previously transmitted payload exceeds half
 * the width; signal on the invert line. Reduces self transitions.
 */
class BusInvert : public BusEncoder
{
  public:
    explicit BusInvert(unsigned data_width);

    std::string name() const override { return "bus-invert"; }
    unsigned busWidth() const override { return data_width_ + 1; }
    uint64_t encode(uint64_t data) override;
    void encodeBatch(std::span<const uint64_t> data,
                     std::span<uint64_t> bus) override;
    uint64_t decode(uint64_t bus_word) override;
    void reset(uint64_t initial_bus_word) override;
    void captureState(std::vector<uint64_t> &out) const override;
    bool restoreState(std::span<const uint64_t> words) override;

  private:
    uint64_t last_bus_ = 0;
};

/**
 * Odd/even bus-invert (Zhang et al. 2002): odd and even bit positions
 * are invertible independently; of the four inversion modes the one
 * with the lowest adjacent coupling cost (over the full bus word,
 * invert lines included) is transmitted.
 */
class OddEvenBusInvert : public BusEncoder
{
  public:
    explicit OddEvenBusInvert(unsigned data_width);

    std::string name() const override { return "odd-even-bus-invert"; }
    unsigned busWidth() const override { return data_width_ + 2; }
    uint64_t encode(uint64_t data) override;
    void encodeBatch(std::span<const uint64_t> data,
                     std::span<uint64_t> bus) override;
    uint64_t decode(uint64_t bus_word) override;
    void reset(uint64_t initial_bus_word) override;
    void captureState(std::vector<uint64_t> &out) const override;
    bool restoreState(std::span<const uint64_t> words) override;

  private:
    uint64_t buildBusWord(uint64_t payload, bool invert_odd,
                          bool invert_even) const;

    uint64_t last_bus_ = 0;
};

/**
 * Coupling-driven bus-invert (Kim et al. 2000): invert the whole word
 * (one invert line) when the inverted pattern has strictly lower
 * adjacent coupling cost than the original.
 */
class CouplingDrivenBusInvert : public BusEncoder
{
  public:
    explicit CouplingDrivenBusInvert(unsigned data_width);

    std::string name() const override
    {
        return "coupling-driven-bus-invert";
    }
    unsigned busWidth() const override { return data_width_ + 1; }
    uint64_t encode(uint64_t data) override;
    void encodeBatch(std::span<const uint64_t> data,
                     std::span<uint64_t> bus) override;
    uint64_t decode(uint64_t bus_word) override;
    void reset(uint64_t initial_bus_word) override;
    void captureState(std::vector<uint64_t> &out) const override;
    bool restoreState(std::span<const uint64_t> words) override;

  private:
    uint64_t last_bus_ = 0;
};

} // namespace nanobus

#endif // NANOBUS_ENCODING_SCHEMES_HH
