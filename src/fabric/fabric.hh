/**
 * @file
 * BusFabric — N bus segments in a NoC topology with routed traffic
 * and lateral inter-segment thermal coupling.
 *
 * Every tile of a FabricTopology owns one BusSimulator (encoder +
 * BusEnergyModel + ThermalNetwork — the paper's single-bus pipeline,
 * unchanged); a FabricTransaction becomes one bus word on each
 * segment along its deterministic route, `hop_latency_cycles` apart.
 * Simulation advances in interval-lockstep epochs: at each interval
 * boundary the fabric snapshots every segment's mean temperature,
 * then steps all segments through the next interval *independently*
 * and in parallel (an exec::parallelFor over segment chunks), each
 * folding a frozen inter-segment conductance term — heat exchanged
 * with physically adjacent segments, Jacobi-style — into its
 * interval thermal close.
 *
 * Determinism contract (docs/FABRIC.md): a fabric run is a pure
 * function of (technology, config, transaction stream). Pool size
 * affects wall-clock only — every observable (energies,
 * temperatures, samples, faults, statistics) is bit-identical across
 * pool sizes, and a single-segment fabric is bit-identical to the
 * same stream driven through a standalone BusSimulator.
 */

#ifndef NANOBUS_FABRIC_FABRIC_HH
#define NANOBUS_FABRIC_FABRIC_HH

#include <memory>
#include <string>
#include <vector>

#include "exec/supervisor.hh"
#include "exec/thread_pool.hh"
#include "fabric/bus_sim.hh"
#include "fabric/topology.hh"
#include "fabric/traffic.hh"

namespace nanobus {

/** BusFabric configuration. */
struct FabricConfig
{
    /** Fabric arrangement; segment count == tile count. */
    TopologyKind topology = TopologyKind::Mesh2D;
    /** Mesh shape (Mesh2D only). */
    unsigned rows = 6;
    unsigned cols = 6;
    /** Tile count (Ring / Crossbar only). */
    unsigned tiles = 16;
    /** Per-segment simulator configuration, applied uniformly; the
     *  shared interval_cycles is the fabric's epoch length. */
    BusSimConfig segment;
    /** Cycles a transaction spends per segment before entering the
     *  next one along its route. */
    uint64_t hop_latency_cycles = 1;
    /** Enable lateral heat exchange between adjacent segments. */
    bool segment_coupling = true;
    /**
     * Thermal resistance between adjacent segments' mean wire
     * temperatures [K·m/W]: each interval, segment i absorbs
     * (T_j - T_i) / R from every adjacent j, spread uniformly over
     * its wires. Pairwise antisymmetric, so the exchange conserves
     * heat by construction.
     */
    KelvinMetersPerWatt segment_resistance{50.0};
};

/** Per-segment end-of-run rollup (the BENCH_fabric.json rows). */
struct SegmentSummary
{
    unsigned segment = 0;
    /** Bus words this segment transmitted (routed hops). */
    uint64_t transmissions = 0;
    EnergyBreakdown energy;
    Kelvin avg_temperature{};
    Kelvin max_temperature{};
    size_t thermal_faults = 0;
};

/** Aggregate outcome of one BusFabric::run. */
struct FabricRunStats
{
    /** Transactions ingested from the traffic source. */
    uint64_t transactions = 0;
    /** Segment traversals (sum of route lengths). */
    uint64_t hops = 0;
    /** Highest hop cycle — where every segment's clock ends. */
    uint64_t last_cycle = 0;
    /** Interval epochs stepped. */
    uint64_t epochs = 0;
};

/**
 * Whole-fabric supervised report: everything a retried attempt must
 * reproduce from scratch, since the fabric itself is stateful.
 */
struct FabricRunReport
{
    exec::ExecStats exec;
    FabricRunStats stats;
    std::vector<SegmentSummary> segments;
    EnergyBreakdown total_energy;
    Kelvin max_temperature{};
    size_t thermal_faults = 0;
};

namespace exec {

/** Fabric instantiation of the supervised execution layer. */
using SupervisedFabricJob = BasicSupervisedJob<FabricRunReport>;
using SupervisedFabricReport = BasicSupervisedReport<FabricRunReport>;
using FabricSupervisor = BasicSupervisor<FabricRunReport>;

} // namespace exec

/** A topology of BusSimulator segments with routed traffic. */
class BusFabric
{
  public:
    BusFabric(const TechnologyNode &tech, const FabricConfig &config);

    const FabricTopology &topology() const { return topology_; }
    unsigned numSegments() const { return topology_.numSegments(); }

    /** Segment s's simulator (read-only; the fabric owns time). */
    const BusSimulator &segment(unsigned s) const;

    /**
     * Drain `source` (cycles must be non-decreasing), route every
     * transaction, and step all segments to the stream's last hop
     * cycle in interval-lockstep epochs sharded over `pool`. May be
     * called repeatedly; later calls continue simulated time (the
     * next stream's cycles must not precede the previous last
     * cycle). Contained thermal faults degrade fidelity, not
     * completion.
     */
    FabricRunStats run(TrafficSource &source, exec::ThreadPool &pool);

    /** Per-segment rollup for reports. */
    SegmentSummary summarize(unsigned s) const;

    /** Whole-fabric energy across segments [J]. */
    EnergyBreakdown totalEnergy() const;

    /** Hottest wire temperature across segments. */
    Kelvin maxTemperature() const;

    /** Contained thermal faults across segments. */
    size_t thermalFaultCount() const;

  private:
    /** One routed hop waiting on a segment's pending queue. */
    struct PendingWord
    {
        uint64_t cycle = 0;
        uint32_t payload = 0;
    };

    /** Drain the stream, then route it into the pending queues in
     *  parallel transaction chunks, in serial ingest order; returns
     *  transactions read and updates hops/last-cycle bookkeeping. */
    uint64_t ingest(TrafficSource &source, exec::ThreadPool &pool,
                    uint64_t &hops, uint64_t &last_cycle);

    /** Step segments [begin, end): feed pending words below
     *  `window_end`, then advance to `advance_to`. */
    void stepSegments(size_t begin, size_t end);

    const TechnologyNode &tech_;
    FabricConfig config_;
    FabricTopology topology_;
    std::vector<std::unique_ptr<BusSimulator>> segments_;

    /** Routed-but-unplayed words, per segment, cycle-sorted before
     *  each run's epoch loop. */
    std::vector<std::vector<PendingWord>> pending_;
    std::vector<size_t> cursor_;
    /** Per-segment batch scratch; segment-exclusive, so segment
     *  chunks touch disjoint entries. */
    std::vector<BusBatch> batch_scratch_;
    /** Mean segment temperatures frozen at the epoch boundary. */
    std::vector<double> temps_;

    /** Epoch window the segment chunks currently execute. */
    uint64_t window_end_ = 0;
    uint64_t advance_to_ = 0;

    /** Where simulated time stands after previous run() calls. */
    uint64_t resume_cycle_ = 0;
};

/**
 * Supervised whole-run shard: constructs the fabric *and* its
 * synthetic traffic from scratch on every attempt (run-to-completion
 * retry safety), runs it — nested parallelism degrades to serial on
 * pool threads by policy — and rolls up the report.
 */
exec::SupervisedFabricJob
supervisedFabricRunJob(std::string label, const TechnologyNode &tech,
                       FabricConfig config, TrafficConfig traffic);

} // namespace nanobus

#endif // NANOBUS_FABRIC_FABRIC_HH
