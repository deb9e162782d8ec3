#include "fabric/fabric.hh"

#include <algorithm>
#include <utility>

#include "exec/parallel.hh"
#include "util/contracts.hh"
#include "util/logging.hh"

namespace nanobus {

namespace {

FabricTopology
buildTopology(const FabricConfig &config)
{
    switch (config.topology) {
    case TopologyKind::Ring:
        return FabricTopology::ring(config.tiles);
    case TopologyKind::Mesh2D:
        return FabricTopology::mesh(config.rows, config.cols);
    case TopologyKind::Crossbar:
        return FabricTopology::crossbar(config.tiles);
    }
    fatal("BusFabric: unknown topology kind %u",
          static_cast<unsigned>(config.topology));
}

} // namespace

BusFabric::BusFabric(const TechnologyNode &tech,
                     const FabricConfig &config)
    : tech_(tech), config_(config), topology_(buildTopology(config))
{
    if (config_.segment_coupling &&
        config_.segment_resistance.raw() <= 0.0)
        fatal("BusFabric: segment resistance must be positive "
              "(got %g K*m/W)", config_.segment_resistance.raw());

    const unsigned n = topology_.numSegments();
    segments_.reserve(n);
    for (unsigned s = 0; s < n; ++s)
        segments_.push_back(
            std::make_unique<BusSimulator>(tech_, config_.segment));
    pending_.resize(n);
    cursor_.assign(n, 0);
    batch_scratch_.resize(n);
    temps_.assign(n, config_.segment.initial_temperature.raw());
}

const BusSimulator &
BusFabric::segment(unsigned s) const
{
    if (s >= segments_.size())
        fatal("BusFabric: segment %u outside %zu segments", s,
              segments_.size());
    return *segments_[s];
}

uint64_t
BusFabric::ingest(TrafficSource &source, exec::ThreadPool &pool,
                  uint64_t &hops, uint64_t &last_cycle)
{
    // Drain serially: the stream is sequential, and the cycle check
    // and the hop/last-cycle bookkeeping need only hopCount().
    std::vector<FabricTransaction> txs;
    uint64_t prev_cycle = resume_cycle_;
    FabricTransaction tx;
    while (source.next(tx)) {
        if (tx.cycle < prev_cycle)
            fatal("BusFabric: transaction cycle %llu moves backwards "
                  "from %llu",
                  static_cast<unsigned long long>(tx.cycle),
                  static_cast<unsigned long long>(prev_cycle));
        prev_cycle = tx.cycle;

        const unsigned route_hops = topology_.hopCount(tx.src, tx.dst);
        const uint64_t arrival =
            tx.cycle + config_.hop_latency_cycles * (route_hops - 1);
        last_cycle = std::max(last_cycle, arrival);
        hops += route_hops;
        txs.push_back(tx);
    }

    // Route in fixed transaction chunks, twice. The count pass
    // tallies each chunk's hops per segment; a prefix sum over the
    // chunks turns the tallies into each chunk's first slot in every
    // segment queue; the scatter pass routes again and writes its
    // hops from there. Chunk c's words land after chunk c-1's, so
    // every queue holds exactly the serial ingest order at any pool
    // size.
    auto forEachHop = [&](size_t begin, size_t end, auto &&visit) {
        std::vector<unsigned> route;
        for (size_t i = begin; i < end; ++i) {
            route.clear();
            topology_.route(txs[i].src, txs[i].dst, route);
            uint64_t hop_cycle = txs[i].cycle;
            for (unsigned seg : route) {
                visit(seg, PendingWord{hop_cycle, txs[i].payload});
                hop_cycle += config_.hop_latency_cycles;
            }
        }
    };
    const size_t n = segments_.size();
    const size_t grain = exec::chunkGrain(txs.size(), 0);
    const size_t chunks = exec::chunkCount(txs.size(), grain);
    // offsets[c * n + s]: chunk c's hop count on segment s after the
    // count pass, its first slot in pending_[s] after the prefix sum.
    std::vector<size_t> offsets(chunks * n, 0);

    exec::parallelFor(pool, txs.size(), [&](size_t begin, size_t end) {
        size_t *count = &offsets[begin / grain * n];
        forEachHop(begin, end,
                   [count](unsigned seg, PendingWord) { ++count[seg]; });
    });

    for (size_t s = 0; s < n; ++s) {
        size_t slot = 0;
        for (size_t c = 0; c < chunks; ++c)
            slot += std::exchange(offsets[c * n + s], slot);
        pending_[s].resize(slot);
    }

    exec::parallelFor(pool, txs.size(), [&](size_t begin, size_t end) {
        const size_t c = begin / grain;
        std::vector<size_t> next(&offsets[c * n],
                                 &offsets[c * n] + n);
        forEachHop(begin, end, [&](unsigned seg, PendingWord word) {
            pending_[seg][next[seg]++] = word;
        });
        for (size_t s = 0; s < n; ++s) {
            const size_t chunk_end = c + 1 < chunks
                                         ? offsets[(c + 1) * n + s]
                                         : pending_[s].size();
            NANOBUS_ENSURE(next[s] == chunk_end,
                           "BusFabric: ingest chunk %zu stopped at "
                           "slot %zu of segment %zu, counted %zu",
                           c, next[s], s, chunk_end);
        }
    });
    return txs.size();
}

void
BusFabric::stepSegments(size_t begin, size_t end)
{
    const bool coupled =
        config_.segment_coupling && segments_.size() > 1;
    for (size_t s = begin; s < end; ++s) {
        BusSimulator &bus = *segments_[s];

        if (coupled) {
            // Heat flowing in from adjacent segments, against the
            // temperature snapshot frozen at the epoch boundary
            // (Jacobi exchange: antisymmetric per pair, so the
            // fabric-wide sum is zero and order cannot matter).
            double inflow = 0.0;
            for (unsigned j : topology_.neighbors(
                     static_cast<unsigned>(s)))
                inflow += (temps_[j] - temps_[s]) /
                          config_.segment_resistance.raw();
            bus.setBoundaryPower(
                WattsPerMeter{inflow / bus.busWidth()});
        }

        const std::vector<PendingWord> &pend = pending_[s];
        size_t &cur = cursor_[s];
        BusBatch &batch = batch_scratch_[s];
        batch.clear();
        while (cur < pend.size() && pend[cur].cycle < window_end_) {
            batch.add(pend[cur].cycle, pend[cur].payload);
            ++cur;
        }
        if (!batch.empty())
            bus.transmitBatch(batch);
        bus.advanceTo(advance_to_);
    }
}

FabricRunStats
BusFabric::run(TrafficSource &source, exec::ThreadPool &pool)
{
    const unsigned n = topology_.numSegments();
    for (unsigned s = 0; s < n; ++s) {
        pending_[s].clear();
        cursor_[s] = 0;
    }

    FabricRunStats stats;
    stats.last_cycle = resume_cycle_;
    stats.transactions =
        ingest(source, pool, stats.hops, stats.last_cycle);
    if (stats.transactions == 0)
        return stats;

    // Routed hop cycles are not globally sorted (a long route
    // injected early lands words after a short route injected
    // late), but each segment's queue sorts independently; the
    // pre-sort order is the deterministic ingest order, so
    // stable_sort fixes a total order.
    exec::parallelFor(
        pool, n,
        [&](size_t begin, size_t end) {
            for (size_t s = begin; s < end; ++s)
                std::stable_sort(
                    pending_[s].begin(), pending_[s].end(),
                    [](const PendingWord &a, const PendingWord &b) {
                        return a.cycle < b.cycle;
                    });
        },
        1);

    const uint64_t interval = config_.segment.interval_cycles;
    // Segments all share interval_cycles, so they cross interval
    // boundaries in lockstep; epochs resume at the first boundary
    // the previous run() left unclosed.
    uint64_t boundary = (resume_cycle_ / interval + 1) * interval;

    // Default-grain chunks of segments: the partition is a pure
    // function of the segment count, never of the pool, and every
    // chunk touches only its own segments plus the shared read-only
    // temperature snapshot.
    auto runEpoch = [&] {
        for (unsigned s = 0; s < n; ++s)
            temps_[s] = segments_[s]
                            ->thermalNetwork()
                            .averageTemperature()
                            .raw();
        exec::parallelFor(
            pool, n,
            [this](size_t begin, size_t end) {
                stepSegments(begin, end);
            });
    };

    while (boundary <= stats.last_cycle) {
        window_end_ = boundary;
        advance_to_ = boundary;
        runEpoch();
        ++stats.epochs;
        boundary += interval;
    }

    // Trailing partial interval: feed the remaining words and stop
    // the clocks at the last hop cycle — exactly where a standalone
    // simulator's finish() would leave them; no interval closes, so
    // the boundary-power refresh is bookkeeping only.
    window_end_ = stats.last_cycle + 1;
    advance_to_ = stats.last_cycle;
    runEpoch();

    for (unsigned s = 0; s < n; ++s) {
        NANOBUS_EXPECT(cursor_[s] == pending_[s].size(),
                       "BusFabric: segment %u left %zu unplayed "
                       "words", s, pending_[s].size() - cursor_[s]);
    }
    resume_cycle_ = stats.last_cycle;
    return stats;
}

SegmentSummary
BusFabric::summarize(unsigned s) const
{
    const BusSimulator &bus = segment(s);
    SegmentSummary summary;
    summary.segment = s;
    summary.transmissions = bus.transmissions();
    summary.energy = bus.totalEnergy();
    summary.avg_temperature =
        bus.thermalNetwork().averageTemperature();
    summary.max_temperature = bus.thermalNetwork().maxTemperature();
    summary.thermal_faults = bus.thermalFaults().size();
    return summary;
}

EnergyBreakdown
BusFabric::totalEnergy() const
{
    EnergyBreakdown total;
    for (const auto &bus : segments_)
        total += bus->totalEnergy();
    return total;
}

Kelvin
BusFabric::maxTemperature() const
{
    Kelvin hottest = segments_[0]->thermalNetwork().maxTemperature();
    for (const auto &bus : segments_) {
        const Kelvin t = bus->thermalNetwork().maxTemperature();
        if (t.raw() > hottest.raw())
            hottest = t;
    }
    return hottest;
}

size_t
BusFabric::thermalFaultCount() const
{
    size_t count = 0;
    for (const auto &bus : segments_)
        count += bus->thermalFaults().size();
    return count;
}

exec::SupervisedFabricJob
supervisedFabricRunJob(std::string label, const TechnologyNode &tech,
                       FabricConfig config, TrafficConfig traffic)
{
    exec::SupervisedFabricJob job;
    job.label = std::move(label);
    job.body = [&tech, config = std::move(config),
                traffic = std::move(traffic)](exec::JobContext &ctx)
        -> Result<FabricRunReport> {
        // Fresh fabric + traffic per attempt: a retried attempt
        // replays the identical stream against identical cold
        // state, so retries are bit-identical to first tries.
        BusFabric fabric(tech, config);
        SyntheticTraffic source(fabric.topology(), traffic);
        if (!ctx.pulse())
            return Result<FabricRunReport>::failure(
                ErrorCode::BudgetExhausted,
                "fabric run aborted before start");
        FabricRunStats stats =
            fabric.run(source, exec::ThreadPool::global());
        if (!ctx.pulse())
            return Result<FabricRunReport>::failure(
                ErrorCode::BudgetExhausted,
                "fabric run aborted after completion");

        FabricRunReport report;
        report.stats = stats;
        report.segments.reserve(fabric.numSegments());
        for (unsigned s = 0; s < fabric.numSegments(); ++s)
            report.segments.push_back(fabric.summarize(s));
        report.total_energy = fabric.totalEnergy();
        report.max_temperature = fabric.maxTemperature();
        report.thermal_faults = fabric.thermalFaultCount();
        return report;
    };
    return job;
}

} // namespace nanobus
