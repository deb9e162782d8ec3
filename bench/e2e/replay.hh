/**
 * @file
 * Layer replays for the traced run: each layer's public entry point
 * driven single-threaded on exactly the inputs it saw in the run, one
 * bench::WallTimer per call.
 */

#ifndef NANOBUS_BENCH_E2E_REPLAY_HH
#define NANOBUS_BENCH_E2E_REPLAY_HH

#include <memory>
#include <string>
#include <vector>

#include "e2e.hh"
#include "encoding/encoder.hh"
#include "energy/bus_energy.hh"
#include "fabric/bus_sim.hh"
#include "thermal/network.hh"
#include "trace/record.hh"

namespace nanobus {
namespace e2e {

/**
 * A fresh encoder, BusEnergyModel and ThermalNetwork chained the way
 * BusSimulator chains them: encodeBatch per batch, stepBatch split at
 * interval boundaries, one advanceChecked per interval close. The
 * optional boundary power of a fabric segment is not replayed.
 */
class BusReplay
{
  public:
    BusReplay(const TechnologyNode &tech, const BusSimConfig &config,
              LayerStats &stats);

    /** Encode and clock in one batch (cycles non-decreasing). */
    void transmit(const BusBatch &batch);

    /** Idle up to `cycle`, closing every interval crossed. */
    void advanceTo(uint64_t cycle);

    /** The replay's outputs in the run's Cell form. */
    Cell cell(const std::string &label, unsigned op) const;

    uint64_t transmissions() const { return transmissions_; }

  private:
    void closeInterval();

    const TechnologyNode &tech_;
    BusSimConfig config_;
    LayerStats &stats_;
    std::unique_ptr<BusEncoder> encoder_;
    std::unique_ptr<BusEnergyModel> energy_;
    std::unique_ptr<ThermalNetwork> thermal_;

    std::vector<uint64_t> words_;
    std::vector<double> interval_line_;
    EnergyBreakdown interval_energy_;
    std::vector<double> power_;
    uint64_t interval_end_ = 0;
    uint64_t transmissions_ = 0;
    uint64_t intervals_ = 0;
    double peak_temp_ = 0.0;
};

/** Outcome of one replayed twin-bus stream. */
struct TwinReplay
{
    Cell ia;
    Cell da;
    uint64_t records = 0;
    uint64_t batches = 0;
    uint64_t last_cycle = 0;
};

/**
 * Drain `source` through a BatchReader at the library batch size,
 * split each batch by access kind, and replay both buses; then idle
 * both to max(last record cycle, `horizon`). Labels are
 * `prefix` + "IA" / "DA".
 */
TwinReplay replayTwin(TraceSource &source, const TechnologyNode &tech,
                      const BusSimConfig &config, uint64_t horizon,
                      const std::string &prefix, unsigned op,
                      LayerStats &stats);

/** Largest relative deviation of self and coupling energy. */
double energyDeviation(const Cell &a, const Cell &b);

/** Largest absolute deviation of final-average and peak temperature. */
double temperatureDeviation(const Cell &a, const Cell &b);

/**
 * Check a replayed cell against the run's: exact counts, energies
 * within 1e-12 relative, and (when `temp_tolerance` >= 0)
 * temperatures within it. A failure is recorded in `stats`.
 */
void checkReplay(const Cell &replayed, const Cell &run,
                 double temp_tolerance, LayerStats &stats);

} // namespace e2e
} // namespace nanobus

#endif // NANOBUS_BENCH_E2E_REPLAY_HH
