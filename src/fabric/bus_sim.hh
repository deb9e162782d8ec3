/**
 * @file
 * Trace-driven bus energy + thermal simulator (Sec 5 methodology).
 *
 * A BusSimulator models one physical address bus: each transmitted
 * address is encoded (the encoder's control lines occupy physical
 * bus positions), the per-line transition energies are accumulated,
 * and at every interval boundary (the paper uses 100K cycles) the
 * interval's per-line average power drives the thermal-RC network
 * one interval forward. Idle cycles — the bus holding its last
 * value — dissipate nothing but still advance the thermal network,
 * which is exactly the dynamic the paper studies in Fig 5.
 */

#ifndef NANOBUS_FABRIC_BUS_SIM_HH
#define NANOBUS_FABRIC_BUS_SIM_HH

#include <memory>
#include <vector>

#include "encoding/encoder.hh"
#include "energy/bus_energy.hh"
#include "extraction/capmatrix.hh"
#include "tech/technology.hh"
#include "thermal/network.hh"
#include "util/result.hh"
#include "util/stats.hh"

namespace nanobus {

class SnapshotReader;
class SnapshotWriter;

/** One interval of the simulation time series (Fig 4 rows). */
struct IntervalSample
{
    /** Cycle at the end of this interval. */
    uint64_t end_cycle = 0;
    /** Transmissions during the interval. */
    uint64_t transmissions = 0;
    /** Energy dissipated in the interval, self + coupling. */
    EnergyBreakdown energy;
    /** Mean wire temperature at interval end. */
    Kelvin avg_temperature{};
    /** Hottest wire temperature at interval end. */
    Kelvin max_temperature{};
    /**
     * Average supply current drawn over the interval:
     * I = E / (Vdd * dt). The paper's Sec 5.3.1 observation is that
     * fluctuation of this quantity between intervals loads the
     * power-supply network inductively (L di/dt noise).
     */
    Amps avg_current{};
};

/**
 * One bus's slice of an ingest batch, in SoA layout: `cycles[k]` and
 * `addresses[k]` describe the k-th transmission routed to this bus
 * (cycles non-decreasing); `bus_words` is scratch the encode stage
 * fills. Addresses are widened to uint64_t so the encode stage
 * consumes them as spans without a conversion pass.
 */
struct BusBatch
{
    std::vector<uint64_t> cycles;
    std::vector<uint64_t> addresses;
    /** Encode-stage output; sized by BusSimulator::transmitBatch. */
    std::vector<uint64_t> bus_words;

    size_t size() const { return cycles.size(); }
    bool empty() const { return cycles.empty(); }

    void clear()
    {
        cycles.clear();
        addresses.clear();
    }

    void add(uint64_t cycle, uint32_t address)
    {
        cycles.push_back(cycle);
        addresses.push_back(address);
    }
};

/** Bus simulator configuration. */
struct BusSimConfig
{
    /** Payload width in bits (the paper studies 32-bit buses). */
    unsigned data_width = 32;
    /** Encoding scheme driving the bus. */
    EncodingScheme scheme = EncodingScheme::Unencoded;
    /** Physical wire length. */
    Meters wire_length{0.010};
    /** Coupling radius for the energy model (see BusEnergyModel). */
    unsigned coupling_radius = 64;
    /** Model repeater capacitance. */
    bool include_repeaters = true;
    /** Thermal interval length [cycles]; the paper uses 100K. */
    uint64_t interval_cycles = 100000;
    /**
     * Transition kernel for the energy model (see
     * BusEnergyModel::Config::kernel): Packed, the default, is the
     * bit-packed integer-count kernel, Scalar the plain per-word FP
     * oracle. A given kernel is bit-identical to itself under any
     * batch/pool split; the two kernels agree to FP rounding, not
     * bitwise.
     */
    TransitionKernel kernel = TransitionKernel::Packed;
    /** Thermal network settings. delta_theta == 0 with a non-None
     *  stack mode is auto-filled from the Eq 7 model. */
    ThermalConfig thermal;
    /** Initial wire temperature; paper: 318.15 K. */
    Kelvin initial_temperature{318.15};
    /** Record the per-interval time series (disable for pure energy
     *  studies to save memory). */
    bool record_samples = true;
};

/** One simulated address bus. */
class BusSimulator
{
  public:
    /**
     * @param tech Technology node.
     * @param config Simulator configuration.
     * @param caps Capacitance structure sized to the *physical* bus
     *             width (payload + control lines); pass nullptr to
     *             use the ITRS-calibrated analytical matrix.
     */
    BusSimulator(const TechnologyNode &tech, const BusSimConfig &config,
                 const CapacitanceMatrix *caps = nullptr);

    /** Physical bus width (payload + encoder control lines). */
    unsigned busWidth() const { return encoder_->busWidth(); }

    /** The encoder driving this bus. */
    const BusEncoder &encoder() const { return *encoder_; }

    /** The per-line energy model. */
    const BusEnergyModel &energyModel() const { return *energy_; }

    /** The thermal network. */
    const ThermalNetwork &thermalNetwork() const { return *thermal_; }

    /**
     * Transmit an address at the given cycle. Cycles must be
     * non-decreasing; gaps are idle cycles. A thin wrapper over
     * transmitBatch() with a batch of one.
     */
    void transmit(uint64_t cycle, uint32_t address);

    /**
     * Transmit a whole batch through the composable stages: the
     * encode stage maps `batch.addresses` to `batch.bus_words` in
     * one encodeBatch() call, then the energy/interval stage clocks
     * in maximal runs of words that share an open interval,
     * closing interval boundaries (and advancing the thermal
     * network) between runs. Bit-identical to one transmit() call
     * per record — including batches that straddle interval
     * boundaries and idle gaps inside the batch.
     */
    void transmitBatch(BusBatch &batch);

    /**
     * Advance simulated time to `cycle` (idle), closing any interval
     * boundaries crossed. Used to flush trailing idle time.
     */
    void advanceTo(uint64_t cycle);

    /**
     * Extra per-wire power [W/m] folded into every interval close
     * until changed — the lateral inter-segment coupling hand-off:
     * BusFabric recomputes it at each interval boundary from the
     * neighbouring segments' mean temperatures (docs/FABRIC.md).
     * Zero (the default) is bit-identical to a standalone simulator;
     * the term may be negative (heat flowing out to cooler
     * neighbours) — the thermal network treats it as a heat sink.
     */
    void setBoundaryPower(WattsPerMeter per_wire)
    {
        boundary_power_ = per_wire.raw();
    }

    /** Current inter-segment boundary power [W/m per wire]. */
    WattsPerMeter boundaryPower() const
    {
        return WattsPerMeter{boundary_power_};
    }

    /** Current simulated cycle. */
    uint64_t currentCycle() const { return current_cycle_; }

    /** Total transmissions so far. */
    uint64_t transmissions() const { return transmissions_; }

    /** Whole-run energy breakdown [J] (derived on each call under
     *  Packed, see BusEnergyModel::accumulatedBreakdown()). */
    EnergyBreakdown totalEnergy() const
    {
        return energy_->accumulatedBreakdown();
    }

    /** Whole-run per-line energies [J]. */
    std::vector<double> lineEnergies() const
    {
        return energy_->accumulatedLineEnergy();
    }

    /** Recorded interval time series. */
    const std::vector<IntervalSample> &samples() const
    {
        return samples_;
    }

    /** Statistics over per-interval average supply current [A]. */
    const RunningStats &currentStats() const { return current_; }

    /**
     * Statistics over |dI/dt| between consecutive intervals [A/s] —
     * the supply-noise proxy of Sec 5.3.1. Tracked even when sample
     * recording is off.
     */
    const RunningStats &didtStats() const { return didt_; }

    /**
     * Thermal anomalies detected and contained during the run
     * (temperature ceiling, divergence, non-finite states), stamped
     * with the interval-end cycle where they occurred. An empty
     * vector means every interval integrated cleanly.
     */
    const std::vector<ThermalFault> &thermalFaults() const
    {
        return thermal_faults_;
    }

    /**
     * Serialize the simulator's full mutable state — encoder,
     * energy accumulators, thermal nodes, interval bookkeeping, and
     * the recorded time series — into `w` (implemented in
     * fabric/bus_snapshot.cc; format documented in
     * docs/ROBUSTNESS.md).
     */
    void saveState(SnapshotWriter &w) const;

    /**
     * Restore state written by saveState() into an identically
     * configured simulator (same scheme, width, interval, thermal
     * setup). After a successful restore, further transmits are
     * bit-identical to a simulator that never stopped. The snapshot
     * records the encoder identity and bus shape; mismatches are
     * rejected with InvalidArgument. A failed restore leaves the
     * simulator partially updated — discard it and cold-start.
     */
    [[nodiscard]] Status restoreState(SnapshotReader &r);

  private:
    void closeInterval();

    const TechnologyNode &tech_;
    BusSimConfig config_;
    std::unique_ptr<BusEncoder> encoder_;
    std::unique_ptr<BusEnergyModel> energy_;
    std::unique_ptr<ThermalNetwork> thermal_;

    uint64_t current_cycle_ = 0;
    uint64_t interval_end_;
    uint64_t transmissions_ = 0;
    uint64_t interval_transmissions_ = 0;

    /** Per-line energy accumulated in the open interval [J]. */
    std::vector<double> interval_line_energy_;
    EnergyBreakdown interval_energy_;
    /** Scratch for the thermal power hand-off [W/m]. */
    std::vector<double> power_scratch_;

    std::vector<IntervalSample> samples_;
    std::vector<ThermalFault> thermal_faults_;
    RunningStats current_;
    RunningStats didt_;
    double last_interval_current_ = 0.0;
    bool have_last_current_ = false;
    /** Inter-segment coupling power [W/m per wire]; see
     *  setBoundaryPower(). Not serialized: BusFabric re-derives it
     *  every interval, and standalone snapshots keep it at zero. */
    double boundary_power_ = 0.0;
};

} // namespace nanobus

#endif // NANOBUS_FABRIC_BUS_SIM_HH
