#include "fabric/bus_sim.hh"

#include <algorithm>
#include <cmath>
#include <span>

#include "tech/layer_stack.hh"
#include "thermal/interlayer.hh"
#include "util/contracts.hh"
#include "util/logging.hh"

namespace nanobus {

BusSimulator::BusSimulator(const TechnologyNode &tech,
                           const BusSimConfig &config,
                           const CapacitanceMatrix *caps)
    : tech_(tech), config_(config),
      encoder_(makeEncoder(config.scheme, config.data_width)),
      interval_end_(config.interval_cycles)
{
    if (config_.interval_cycles == 0)
        fatal("BusSimulator: interval length must be positive");

    const unsigned bus_width = encoder_->busWidth();

    CapacitanceMatrix matrix = caps
        ? *caps
        : CapacitanceMatrix::analytical(tech, bus_width);
    if (matrix.size() != bus_width)
        fatal("BusSimulator: capacitance matrix is for %u wires but "
              "the physical bus has %u", matrix.size(), bus_width);

    BusEnergyModel::Config energy_config;
    energy_config.wire_length = config_.wire_length;
    energy_config.coupling_radius = config_.coupling_radius;
    energy_config.include_repeaters = config_.include_repeaters;
    energy_config.kernel = config_.kernel;
    energy_ = std::make_unique<BusEnergyModel>(tech, matrix,
                                               energy_config);

    ThermalConfig thermal_config = config_.thermal;
    if (thermal_config.stack_mode != StackMode::None &&
        thermal_config.delta_theta.raw() == 0.0) {
        MetalLayerStack stack(tech);
        thermal_config.delta_theta =
            InterLayerModel(tech, stack).deltaTheta();
    }
    thermal_ = std::make_unique<ThermalNetwork>(tech, bus_width,
                                                thermal_config);
    thermal_->reset(config_.initial_temperature);

    interval_line_energy_.assign(bus_width, 0.0);
    power_scratch_.assign(bus_width, 0.0);
}

void
BusSimulator::closeInterval()
{
    // The packed kernel bypasses the stepBatch interval spans; its
    // interval energies are derived here, at the one point they are
    // consumed, from the count deltas since the interval opened.
    if (config_.kernel == TransitionKernel::Packed) {
        energy_->intervalEnergy(interval_line_energy_,
                                interval_energy_);
    }

    // cycles / f_clk composes to seconds.
    const Seconds interval_seconds =
        static_cast<double>(config_.interval_cycles) /
        tech_.f_clk;

    // Average per-line power over the interval [W/m]; the per-line
    // energy buffer is raw, so divide by the raw J -> W/m factor.
    const double denom =
        (interval_seconds * config_.wire_length).raw();
    for (unsigned i = 0; i < busWidth(); ++i)
        power_scratch_[i] = interval_line_energy_[i] / denom;
    // Lateral inter-segment coupling (BusFabric hand-off). The
    // zero-guard keeps the standalone path bit-identical: the loop
    // below is skipped entirely, not merely adding +0.0.
    if (boundary_power_ != 0.0) {
        for (unsigned i = 0; i < busWidth(); ++i)
            power_scratch_[i] += boundary_power_;
    }
    std::vector<ThermalFault> faults =
        thermal_->advanceChecked(power_scratch_, interval_seconds);
    for (ThermalFault &fault : faults) {
        fault.cycle = interval_end_;
        thermal_faults_.push_back(std::move(fault));
    }

    // Supply-current profile (Sec 5.3.1): the charge for every
    // dissipated joule is drawn from the rails at Vdd; J / (V s)
    // composes to amps.
    const Amps avg_current =
        interval_energy_.total() / (tech_.vdd * interval_seconds);
    current_.add(avg_current.raw());
    if (have_last_current_) {
        didt_.add(std::fabs(avg_current.raw() -
                            last_interval_current_) /
                  interval_seconds.raw());
    }
    last_interval_current_ = avg_current.raw();
    have_last_current_ = true;

    if (config_.record_samples) {
        IntervalSample sample;
        sample.end_cycle = interval_end_;
        sample.transmissions = interval_transmissions_;
        sample.energy = interval_energy_;
        sample.avg_temperature = thermal_->averageTemperature();
        sample.max_temperature = thermal_->maxTemperature();
        sample.avg_current = avg_current;
        samples_.push_back(sample);
    }

    std::fill(interval_line_energy_.begin(),
              interval_line_energy_.end(), 0.0);
    interval_energy_ = EnergyBreakdown();
    interval_transmissions_ = 0;
    interval_end_ += config_.interval_cycles;
    if (config_.kernel == TransitionKernel::Packed)
        energy_->beginInterval();
}

void
BusSimulator::advanceTo(uint64_t cycle)
{
    if (cycle < current_cycle_)
        fatal("BusSimulator: cycle %llu moves backwards from %llu",
              static_cast<unsigned long long>(cycle),
              static_cast<unsigned long long>(current_cycle_));
    while (interval_end_ <= cycle)
        closeInterval();
    current_cycle_ = cycle;
}

void
BusSimulator::transmit(uint64_t cycle, uint32_t address)
{
    advanceTo(cycle);

    uint64_t data = address;
    uint64_t bus_word = 0;
    encoder_->encodeBatch(std::span<const uint64_t>(&data, 1),
                          std::span<uint64_t>(&bus_word, 1));
    energy_->stepBatch(std::span<const uint64_t>(&bus_word, 1),
                       interval_line_energy_, interval_energy_);
    ++transmissions_;
    ++interval_transmissions_;
}

void
BusSimulator::transmitBatch(BusBatch &batch)
{
    const size_t n = batch.size();
    NANOBUS_EXPECT(batch.addresses.size() == n,
                   "transmitBatch: %zu cycles but %zu addresses",
                   n, batch.addresses.size());
    if (n == 0)
        return;

    // Encode stage. Encoder state depends only on the address
    // sequence — never on interval or thermal state — so the whole
    // batch encodes in one pass before any interval bookkeeping.
    batch.bus_words.resize(n);
    encoder_->encodeBatch(batch.addresses, batch.bus_words);

    // Energy + interval stage: clock in maximal runs of records
    // that fall inside the same open interval; close boundaries
    // (thermal advance) between runs, exactly where the per-record
    // path would.
    size_t i = 0;
    while (i < n) {
        advanceTo(batch.cycles[i]);
        size_t j = i + 1;
        while (j < n && batch.cycles[j] < interval_end_) {
            if (batch.cycles[j] < batch.cycles[j - 1])
                fatal("BusSimulator: cycle %llu moves backwards "
                      "from %llu",
                      static_cast<unsigned long long>(
                          batch.cycles[j]),
                      static_cast<unsigned long long>(
                          batch.cycles[j - 1]));
            ++j;
        }
        energy_->stepBatch(
            std::span<const uint64_t>(batch.bus_words)
                .subspan(i, j - i),
            interval_line_energy_, interval_energy_);
        transmissions_ += j - i;
        interval_transmissions_ += j - i;
        current_cycle_ = batch.cycles[j - 1];
        i = j;
    }
}

} // namespace nanobus
