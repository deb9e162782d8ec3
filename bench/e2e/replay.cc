#include "replay.hh"

#include <algorithm>
#include <cmath>
#include <span>

#include "bench_common.hh"
#include "extraction/capmatrix.hh"
#include "tech/layer_stack.hh"
#include "thermal/interlayer.hh"
#include "trace/batch.hh"

namespace nanobus {
namespace e2e {

namespace {

double
seconds(const bench::WallTimer &timer)
{
    return timer.ms() * 1e-3;
}

double
relativeDeviation(double a, double b)
{
    const double diff = std::fabs(a - b);
    return b == 0.0 ? diff : diff / std::fabs(b);
}

} // namespace

BusReplay::BusReplay(const TechnologyNode &tech,
                     const BusSimConfig &config, LayerStats &stats)
    : tech_(tech), config_(config), stats_(stats),
      interval_end_(config.interval_cycles)
{
    bench::WallTimer encode_timer;
    encoder_ = makeEncoder(config_.scheme, config_.data_width);
    stats_.encode_s += seconds(encode_timer);
    const unsigned width = encoder_->busWidth();

    // The analytical matrix is what BusSimulator builds when given no
    // extraction; extraction is outside the benchmark's layers.
    const CapacitanceMatrix caps =
        CapacitanceMatrix::analytical(tech_, width);

    bench::WallTimer energy_timer;
    BusEnergyModel::Config energy_config;
    energy_config.wire_length = config_.wire_length;
    energy_config.coupling_radius = config_.coupling_radius;
    energy_config.include_repeaters = config_.include_repeaters;
    energy_config.kernel = config_.kernel;
    energy_ = std::make_unique<BusEnergyModel>(tech_, caps,
                                               energy_config);
    stats_.energy_s += seconds(energy_timer);

    // Copied from the BusSimulator constructor (src/fabric/bus_sim.cc):
    // keep the delta_theta derivation in step with it.
    bench::WallTimer thermal_timer;
    ThermalConfig thermal_config = config_.thermal;
    if (thermal_config.stack_mode != StackMode::None &&
        thermal_config.delta_theta.raw() == 0.0) {
        MetalLayerStack stack(tech_);
        thermal_config.delta_theta =
            InterLayerModel(tech_, stack).deltaTheta();
    }
    thermal_ = std::make_unique<ThermalNetwork>(tech_, width,
                                                thermal_config);
    thermal_->reset(config_.initial_temperature);
    stats_.thermal_s += seconds(thermal_timer);
    ++stats_.networks;

    interval_line_.assign(width, 0.0);
    power_.assign(width, 0.0);
    peak_temp_ = -HUGE_VAL;
}

// Copies BusSimulator::closeInterval (src/fabric/bus_sim.cc): the
// Packed intervalEnergy / beginInterval sequencing and the power
// expression must track it, or the traced run's exactness checks fail.
void
BusReplay::closeInterval()
{
    if (config_.kernel == TransitionKernel::Packed) {
        bench::WallTimer timer;
        energy_->intervalEnergy(interval_line_, interval_energy_);
        stats_.energy_s += seconds(timer);
    }
    // The same expression, so the network receives bit-identical power.
    const Seconds interval_seconds =
        static_cast<double>(config_.interval_cycles) / tech_.f_clk;
    const double denom =
        (interval_seconds * config_.wire_length).raw();
    for (size_t i = 0; i < power_.size(); ++i)
        power_[i] = interval_line_[i] / denom;

    bench::WallTimer timer;
    const std::vector<ThermalFault> faults =
        thermal_->advanceChecked(power_, interval_seconds);
    stats_.thermal_s += seconds(timer);
    stats_.faults += faults.size();
    ++stats_.intervals;
    ++intervals_;
    peak_temp_ =
        std::max(peak_temp_, thermal_->maxTemperature().raw());

    std::fill(interval_line_.begin(), interval_line_.end(), 0.0);
    interval_energy_ = EnergyBreakdown();
    interval_end_ += config_.interval_cycles;
    if (config_.kernel == TransitionKernel::Packed) {
        bench::WallTimer begin_timer;
        energy_->beginInterval();
        stats_.energy_s += seconds(begin_timer);
    }
}

void
BusReplay::advanceTo(uint64_t cycle)
{
    while (interval_end_ <= cycle)
        closeInterval();
}

void
BusReplay::transmit(const BusBatch &batch)
{
    const size_t n = batch.size();
    if (n == 0)
        return;
    words_.resize(n);
    bench::WallTimer encode_timer;
    encoder_->encodeBatch(batch.addresses, words_);
    stats_.encode_s += seconds(encode_timer);
    stats_.encoded_words += n;

    size_t i = 0;
    while (i < n) {
        advanceTo(batch.cycles[i]);
        size_t j = i + 1;
        while (j < n && batch.cycles[j] < interval_end_)
            ++j;
        bench::WallTimer energy_timer;
        energy_->stepBatch(std::span<const uint64_t>(words_).subspan(
                               i, j - i),
                           interval_line_, interval_energy_);
        stats_.energy_s += seconds(energy_timer);
        stats_.energy_words += j - i;
        ++stats_.energy_calls;
        transmissions_ += j - i;
        i = j;
    }
}

Cell
BusReplay::cell(const std::string &label, unsigned op) const
{
    Cell c;
    c.label = label;
    c.op = op;
    c.count = transmissions_;
    c.intervals = intervals_;
    c.self = energy_->accumulatedBreakdown().self.raw();
    c.coupling = energy_->accumulatedBreakdown().coupling.raw();
    c.avg_temp = thermal_->averageTemperature().raw();
    c.max_temp =
        std::max(peak_temp_, thermal_->maxTemperature().raw());
    return c;
}

TwinReplay
replayTwin(TraceSource &source, const TechnologyNode &tech,
           const BusSimConfig &config, uint64_t horizon,
           const std::string &prefix, unsigned op, LayerStats &stats)
{
    BusReplay ia(tech, config, stats);
    BusReplay da(tech, config, stats);
    BatchReader reader(source, kDefaultTraceBatchSize);
    BusBatch ia_batch;
    BusBatch da_batch;
    TwinReplay out;
    for (;;) {
        bench::WallTimer trace_timer;
        Result<RecordBatch> next = reader.nextBatch();
        stats.trace_s += seconds(trace_timer);
        if (!next.ok()) {
            stats.mismatches.push_back(prefix + "trace replay failed: " +
                                       next.error().describe());
            break;
        }
        const RecordBatch batch = next.value();
        if (batch.empty())
            break;
        out.records += batch.size();
        ++out.batches;
        out.last_cycle = batch[batch.size() - 1].cycle;

        bench::WallTimer route_timer;
        ia_batch.clear();
        da_batch.clear();
        scatterByKind(batch, ia_batch, da_batch);
        stats.route_s += seconds(route_timer);

        ia.transmit(ia_batch);
        da.transmit(da_batch);
    }
    stats.records += out.records;
    const uint64_t end = std::max(out.last_cycle, horizon);
    ia.advanceTo(end);
    da.advanceTo(end);
    out.ia = ia.cell(prefix + "IA", op);
    out.da = da.cell(prefix + "DA", op);
    return out;
}

double
energyDeviation(const Cell &a, const Cell &b)
{
    return std::max(relativeDeviation(a.self, b.self),
                    relativeDeviation(a.coupling, b.coupling));
}

double
temperatureDeviation(const Cell &a, const Cell &b)
{
    return std::max(std::fabs(a.avg_temp - b.avg_temp),
                    std::fabs(a.max_temp - b.max_temp));
}

void
checkReplay(const Cell &replayed, const Cell &run,
            double temp_tolerance, LayerStats &stats)
{
    ++stats.replays;
    std::string why;
    if (replayed.count != run.count)
        why = "count " + std::to_string(replayed.count) + " vs " +
            std::to_string(run.count);
    else if (replayed.intervals != run.intervals)
        why = "intervals " + std::to_string(replayed.intervals) +
            " vs " + std::to_string(run.intervals);
    else if (!(energyDeviation(replayed, run) <= 1e-12))
        why = "energy deviates by " +
            std::to_string(energyDeviation(replayed, run));
    else if (temp_tolerance >= 0.0 &&
             !(temperatureDeviation(replayed, run) <= temp_tolerance))
        why = "temperature deviates by " +
            std::to_string(temperatureDeviation(replayed, run)) + " K";
    if (!why.empty()) {
        ++stats.failed_replays;
        stats.mismatches.push_back(run.label + ": " + why);
    }
}

} // namespace e2e
} // namespace nanobus
