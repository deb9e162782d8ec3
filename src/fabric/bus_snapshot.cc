/**
 * @file
 * BusSimulator state serialization (fabric/bus_sim.hh). Field order
 * here *is* the wire format: change it and the sim layer's
 * kSnapshotFormatVersion must bump. The twin-bus container format
 * lives in sim/snapshot.cc; this file owns only the single-bus
 * payload both buses of a twin serialize through.
 */

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "fabric/bus_sim.hh"
#include "util/checkpoint.hh"

// Early-return plumbing for the field-by-field decode below.
#define NANOBUS_SNAP_TRY(expr)                                       \
    do {                                                             \
        Status try_status_ = (expr);                                 \
        if (!try_status_.ok())                                       \
            return try_status_;                                      \
    } while (0)

namespace nanobus {

namespace {

void
putStats(SnapshotWriter &w, const RunningStats &stats)
{
    const RunningStats::State s = stats.state();
    w.putU64(s.count);
    w.putF64(s.mean);
    w.putF64(s.m2);
    w.putF64(s.sum);
    w.putF64(s.min);
    w.putF64(s.max);
}

[[nodiscard]] Status
getStats(SnapshotReader &r, RunningStats &stats)
{
    RunningStats::State s;
    NANOBUS_SNAP_TRY(r.getU64(s.count));
    NANOBUS_SNAP_TRY(r.getF64(s.mean));
    NANOBUS_SNAP_TRY(r.getF64(s.m2));
    NANOBUS_SNAP_TRY(r.getF64(s.sum));
    NANOBUS_SNAP_TRY(r.getF64(s.min));
    NANOBUS_SNAP_TRY(r.getF64(s.max));
    stats.restore(s);
    return Status();
}

/**
 * Read a u64 element count and refuse one the rest of the payload
 * cannot hold before anything is allocated for it: a corrupted
 * length field fails as a ParseError instead of driving an unbounded
 * allocation. `element_bytes` is the smallest wire size of one
 * element.
 */
[[nodiscard]] Status
getCount(SnapshotReader &r, uint64_t &count, size_t element_bytes)
{
    NANOBUS_SNAP_TRY(r.getU64(count));
    if (count <= r.remaining() / element_bytes)
        return Status();
    return Status::failure(
        ErrorCode::ParseError,
        "restoreState: " + std::to_string(count) +
            " element(s) declared but only " +
            std::to_string(r.remaining()) + " byte(s) left");
}

[[nodiscard]] Status
getF64Vector(SnapshotReader &r, std::vector<double> &out)
{
    uint64_t count = 0;
    NANOBUS_SNAP_TRY(getCount(r, count, 8));
    out.assign(static_cast<size_t>(count), 0.0);
    for (double &value : out)
        NANOBUS_SNAP_TRY(r.getF64(value));
    return Status();
}

void
putF64Vector(SnapshotWriter &w, const std::vector<double> &values)
{
    w.putU64(values.size());
    for (double value : values)
        w.putF64(value);
}

[[nodiscard]] Status
getU64Vector(SnapshotReader &r, std::vector<uint64_t> &out)
{
    uint64_t count = 0;
    NANOBUS_SNAP_TRY(getCount(r, count, 8));
    out.assign(static_cast<size_t>(count), 0);
    for (uint64_t &value : out)
        NANOBUS_SNAP_TRY(r.getU64(value));
    return Status();
}

void
putU64Vector(SnapshotWriter &w, const std::vector<uint64_t> &values)
{
    w.putU64(values.size());
    for (uint64_t value : values)
        w.putU64(value);
}

[[nodiscard]] Status
getI64Vector(SnapshotReader &r, std::vector<int64_t> &out)
{
    uint64_t count = 0;
    NANOBUS_SNAP_TRY(getCount(r, count, 8));
    out.assign(static_cast<size_t>(count), 0);
    for (int64_t &value : out) {
        uint64_t bits = 0;
        NANOBUS_SNAP_TRY(r.getU64(bits));
        value = std::bit_cast<int64_t>(bits);
    }
    return Status();
}

void
putI64Vector(SnapshotWriter &w, const std::vector<int64_t> &values)
{
    w.putU64(values.size());
    for (int64_t value : values)
        w.putU64(std::bit_cast<uint64_t>(value));
}

} // namespace

Status
BusSimulator::saveState(SnapshotWriter &w) const
{
    // Identity guard: restore refuses a snapshot taken under a
    // different scheme, bus shape, interval length, transition
    // kernel, or thermal solver, since the serialized state would be
    // meaningless there (the two kernels persist different
    // energy-state payloads) or the resumed run would silently mix
    // integrators.
    w.putString(encoder_->name());
    w.putU32(encoder_->busWidth());
    w.putU32(encoder_->dataWidth());
    w.putU64(config_.interval_cycles);
    w.putU32(static_cast<uint32_t>(config_.kernel));
    w.putU32(static_cast<uint32_t>(config_.thermal.solver));

    std::vector<uint64_t> words;
    if (!encoder_->captureState(words)) {
        return Status::failure(
            ErrorCode::InvalidArgument,
            "saveState: encoder '" + encoder_->name() +
                "' does not support state capture");
    }
    w.putU64(words.size());
    for (uint64_t word : words)
        w.putU64(word);

    // Energy model. Scalar persists the FP accumulators; Packed
    // persists the exact integer count state instead (energies are
    // re-derived from it on restore), int64 deviations carried
    // bit-cast through the u64 stream.
    if (config_.kernel == TransitionKernel::Packed) {
        const BusEnergyModel::PackedState state =
            energy_->capturePackedState();
        w.putU64(state.last_word);
        w.putU64(state.final_prev_word);
        w.putU64(state.cycles);
        putU64Vector(w, state.self);
        putI64Vector(w, state.pairs);
        putU64Vector(w, state.interval_self);
        putI64Vector(w, state.interval_pairs);
    } else {
        w.putU64(energy_->lastWord());
        w.putU64(energy_->cycles());
        putF64Vector(w, energy_->accumulatedLineEnergy());
        const EnergyBreakdown &acc = energy_->accumulatedBreakdown();
        w.putF64(acc.self.raw());
        w.putF64(acc.coupling.raw());
    }

    // Thermal network: node temperatures + divergence guard.
    const ThermalNetwork::SnapshotState thermal =
        thermal_->snapshotState();
    putF64Vector(w, thermal.nodes);
    w.putF64(thermal.last_max_temp);
    w.putU32(thermal.rising_streak);

    // Interval bookkeeping.
    w.putU64(current_cycle_);
    w.putU64(interval_end_);
    w.putU64(transmissions_);
    w.putU64(interval_transmissions_);
    putF64Vector(w, interval_line_energy_);
    w.putF64(interval_energy_.self.raw());
    w.putF64(interval_energy_.coupling.raw());

    // Recorded time series and contained anomalies.
    w.putU64(samples_.size());
    for (const IntervalSample &s : samples_) {
        w.putU64(s.end_cycle);
        w.putU64(s.transmissions);
        w.putF64(s.energy.self.raw());
        w.putF64(s.energy.coupling.raw());
        w.putF64(s.avg_temperature.raw());
        w.putF64(s.max_temperature.raw());
        w.putF64(s.avg_current.raw());
    }
    w.putU64(thermal_faults_.size());
    for (const ThermalFault &fault : thermal_faults_) {
        w.putU32(static_cast<uint32_t>(fault.kind));
        w.putU32(fault.node);
        w.putF64(fault.temperature.raw());
        w.putU64(fault.cycle);
        w.putString(fault.message);
    }

    // Supply-current statistics (Sec 5.3.1 bookkeeping).
    putStats(w, current_);
    putStats(w, didt_);
    w.putF64(last_interval_current_);
    w.putBool(have_last_current_);
    return Status();
}

Status
BusSimulator::restoreState(SnapshotReader &r)
{
    std::string encoder_name;
    uint32_t bus_width = 0;
    uint32_t data_width = 0;
    uint64_t interval_cycles = 0;
    uint32_t kernel_tag = 0;
    uint32_t solver_tag = 0;
    NANOBUS_SNAP_TRY(r.getString(encoder_name));
    NANOBUS_SNAP_TRY(r.getU32(bus_width));
    NANOBUS_SNAP_TRY(r.getU32(data_width));
    NANOBUS_SNAP_TRY(r.getU64(interval_cycles));
    NANOBUS_SNAP_TRY(r.getU32(kernel_tag));
    NANOBUS_SNAP_TRY(r.getU32(solver_tag));
    if (encoder_name != encoder_->name() ||
        bus_width != encoder_->busWidth() ||
        data_width != encoder_->dataWidth() ||
        interval_cycles != config_.interval_cycles) {
        return Status::failure(
            ErrorCode::InvalidArgument,
            "restoreState: snapshot is for encoder '" + encoder_name +
                "' (" + std::to_string(bus_width) + "-wire bus, " +
                std::to_string(interval_cycles) +
                "-cycle intervals) but this simulator runs '" +
                encoder_->name() + "' (" +
                std::to_string(encoder_->busWidth()) + "-wire bus, " +
                std::to_string(config_.interval_cycles) +
                "-cycle intervals)");
    }
    if (kernel_tag !=
        static_cast<uint32_t>(config_.kernel)) {
        return Status::failure(
            ErrorCode::InvalidArgument,
            "restoreState: snapshot was taken under the '" +
                std::string(transitionKernelName(
                    static_cast<TransitionKernel>(kernel_tag))) +
                "' transition kernel but this simulator runs '" +
                transitionKernelName(config_.kernel) + "'");
    }
    if (solver_tag != static_cast<uint32_t>(config_.thermal.solver)) {
        return Status::failure(
            ErrorCode::InvalidArgument,
            "restoreState: snapshot was taken under the '" +
                std::string(thermalSolverName(
                    static_cast<ThermalSolver>(solver_tag))) +
                "' thermal solver but this simulator runs '" +
                thermalSolverName(config_.thermal.solver) + "'");
    }

    uint64_t word_count = 0;
    NANOBUS_SNAP_TRY(getCount(r, word_count, 8));
    std::vector<uint64_t> words(static_cast<size_t>(word_count), 0);
    for (uint64_t &word : words)
        NANOBUS_SNAP_TRY(r.getU64(word));
    if (!encoder_->restoreState(words)) {
        return Status::failure(
            ErrorCode::InvalidArgument,
            "restoreState: encoder '" + encoder_->name() +
                "' rejected " + std::to_string(word_count) +
                " state words");
    }

    if (config_.kernel == TransitionKernel::Packed) {
        BusEnergyModel::PackedState state;
        NANOBUS_SNAP_TRY(r.getU64(state.last_word));
        NANOBUS_SNAP_TRY(r.getU64(state.final_prev_word));
        NANOBUS_SNAP_TRY(r.getU64(state.cycles));
        NANOBUS_SNAP_TRY(getU64Vector(r, state.self));
        NANOBUS_SNAP_TRY(getI64Vector(r, state.pairs));
        NANOBUS_SNAP_TRY(getU64Vector(r, state.interval_self));
        NANOBUS_SNAP_TRY(getI64Vector(r, state.interval_pairs));
        NANOBUS_SNAP_TRY(energy_->restorePackedState(state));
    } else {
        uint64_t last_word = 0;
        uint64_t cycles = 0;
        std::vector<double> acc_line;
        EnergyBreakdown acc;
        double acc_self = 0.0;
        double acc_coupling = 0.0;
        NANOBUS_SNAP_TRY(r.getU64(last_word));
        NANOBUS_SNAP_TRY(r.getU64(cycles));
        NANOBUS_SNAP_TRY(getF64Vector(r, acc_line));
        NANOBUS_SNAP_TRY(r.getF64(acc_self));
        NANOBUS_SNAP_TRY(r.getF64(acc_coupling));
        acc.self = Joules{acc_self};
        acc.coupling = Joules{acc_coupling};
        NANOBUS_SNAP_TRY(energy_->restoreAccumulation(
            last_word, acc_line, acc, cycles));
    }

    ThermalNetwork::SnapshotState thermal;
    NANOBUS_SNAP_TRY(getF64Vector(r, thermal.nodes));
    NANOBUS_SNAP_TRY(r.getF64(thermal.last_max_temp));
    NANOBUS_SNAP_TRY(r.getU32(thermal.rising_streak));
    NANOBUS_SNAP_TRY(thermal_->restoreSnapshotState(thermal));

    NANOBUS_SNAP_TRY(r.getU64(current_cycle_));
    NANOBUS_SNAP_TRY(r.getU64(interval_end_));
    NANOBUS_SNAP_TRY(r.getU64(transmissions_));
    NANOBUS_SNAP_TRY(r.getU64(interval_transmissions_));
    NANOBUS_SNAP_TRY(getF64Vector(r, interval_line_energy_));
    if (interval_line_energy_.size() != busWidth()) {
        return Status::failure(
            ErrorCode::InvalidArgument,
            "restoreState: " +
                std::to_string(interval_line_energy_.size()) +
                " interval accumulators for a " +
                std::to_string(busWidth()) + "-wire bus");
    }
    double interval_self = 0.0;
    double interval_coupling = 0.0;
    NANOBUS_SNAP_TRY(r.getF64(interval_self));
    NANOBUS_SNAP_TRY(r.getF64(interval_coupling));
    interval_energy_.self = Joules{interval_self};
    interval_energy_.coupling = Joules{interval_coupling};

    // end_cycle, transmissions and five doubles per sample.
    uint64_t sample_count = 0;
    NANOBUS_SNAP_TRY(getCount(r, sample_count, 7 * 8));
    samples_.clear();
    samples_.reserve(static_cast<size_t>(sample_count));
    for (uint64_t i = 0; i < sample_count; ++i) {
        IntervalSample sample;
        double energy_self = 0.0;
        double energy_coupling = 0.0;
        double avg_temp = 0.0;
        double max_temp = 0.0;
        double avg_current = 0.0;
        NANOBUS_SNAP_TRY(r.getU64(sample.end_cycle));
        NANOBUS_SNAP_TRY(r.getU64(sample.transmissions));
        NANOBUS_SNAP_TRY(r.getF64(energy_self));
        NANOBUS_SNAP_TRY(r.getF64(energy_coupling));
        NANOBUS_SNAP_TRY(r.getF64(avg_temp));
        NANOBUS_SNAP_TRY(r.getF64(max_temp));
        NANOBUS_SNAP_TRY(r.getF64(avg_current));
        sample.energy.self = Joules{energy_self};
        sample.energy.coupling = Joules{energy_coupling};
        sample.avg_temperature = Kelvin{avg_temp};
        sample.max_temperature = Kelvin{max_temp};
        sample.avg_current = Amps{avg_current};
        samples_.push_back(sample);
    }

    // kind, node, temperature, cycle and the message's length
    // prefix per fault.
    uint64_t fault_count = 0;
    NANOBUS_SNAP_TRY(getCount(r, fault_count, 4 + 4 + 8 + 8 + 8));
    thermal_faults_.clear();
    thermal_faults_.reserve(static_cast<size_t>(fault_count));
    for (uint64_t i = 0; i < fault_count; ++i) {
        ThermalFault fault;
        uint32_t kind = 0;
        double temperature = 0.0;
        NANOBUS_SNAP_TRY(r.getU32(kind));
        if (kind >
            static_cast<uint32_t>(ThermalFault::Kind::Divergence)) {
            return Status::failure(
                ErrorCode::ParseError,
                "restoreState: unknown thermal-fault kind " +
                    std::to_string(kind));
        }
        fault.kind = static_cast<ThermalFault::Kind>(kind);
        NANOBUS_SNAP_TRY(r.getU32(fault.node));
        NANOBUS_SNAP_TRY(r.getF64(temperature));
        fault.temperature = Kelvin{temperature};
        NANOBUS_SNAP_TRY(r.getU64(fault.cycle));
        NANOBUS_SNAP_TRY(r.getString(fault.message));
        thermal_faults_.push_back(std::move(fault));
    }

    NANOBUS_SNAP_TRY(getStats(r, current_));
    NANOBUS_SNAP_TRY(getStats(r, didt_));
    NANOBUS_SNAP_TRY(r.getF64(last_interval_current_));
    NANOBUS_SNAP_TRY(r.getBool(have_last_current_));
    return Status();
}

} // namespace nanobus
