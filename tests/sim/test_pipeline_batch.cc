/**
 * @file
 * Equivalence pins for the batched streaming pipeline (ISSUE: the
 * refactor's correctness contract). Every batch-oriented entry point
 * — BusEncoder::encodeBatch, BusEnergyModel::stepBatch, and the full
 * SimPipeline — must reproduce the per-record path BIT-identically,
 * for every encoding scheme, at every pool size, including batches
 * that straddle interval boundaries and traces with idle gaps.
 * Bitwise means memcmp on the doubles: no tolerance, no ULPs.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <span>
#include <stdexcept>
#include <vector>

#include "encoding/encoder.hh"
#include "exec/thread_pool.hh"
#include "fabric/bus_sim.hh"
#include "sim/experiment.hh"
#include "sim/pipeline.hh"
#include "trace/batch.hh"
#include "trace/profile.hh"
#include "trace/record.hh"
#include "trace/synthetic.hh"
#include "util/result.hh"

namespace nanobus {
namespace {

const TechnologyNode &tech130 = itrsNode(ItrsNode::Nm130);

bool
sameBits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof(double)) == 0;
}

bool
sameBits(const std::vector<double> &a, const std::vector<double> &b)
{
    if (a.size() != b.size())
        return false;
    return a.empty() ||
        std::memcmp(a.data(), b.data(),
                    a.size() * sizeof(double)) == 0;
}

/** Deterministic mildly-structured word stream (xorshift + strides
 *  so the bus-invert style encoders exercise both branches). */
std::vector<uint64_t>
makeWords(size_t n, uint64_t seed)
{
    std::vector<uint64_t> words;
    words.reserve(n);
    uint64_t x = seed | 1;
    uint64_t addr = 0x10000;
    for (size_t i = 0; i < n; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        // Mix sequential strides with random jumps, like a trace.
        addr = (i % 3 == 0) ? x : addr + 4;
        words.push_back(addr & 0xffffffffu);
    }
    return words;
}

// ----------------------------------------------------------------
// BusEncoder::encodeBatch
// ----------------------------------------------------------------

TEST(EncodeBatch, MatchesSequentialEncodeForEveryScheme)
{
    const std::vector<uint64_t> words = makeWords(1000, 0x9e3779b9);
    for (EncodingScheme scheme : paperSchemes()) {
        std::unique_ptr<BusEncoder> ref = makeEncoder(scheme, 32);
        std::unique_ptr<BusEncoder> batched = makeEncoder(scheme, 32);

        std::vector<uint64_t> expect(words.size());
        for (size_t i = 0; i < words.size(); ++i)
            expect[i] = ref->encode(words[i]);

        // Feed the same stream in uneven chunks (1, 3, 7, 1, 3, ...)
        // so chunk boundaries land everywhere.
        std::vector<uint64_t> got(words.size());
        const size_t chunks[] = {1, 3, 7, 64, 13};
        size_t i = 0, c = 0;
        while (i < words.size()) {
            size_t n = std::min(chunks[c % 5], words.size() - i);
            batched->encodeBatch(
                std::span<const uint64_t>(words).subspan(i, n),
                std::span<uint64_t>(got).subspan(i, n));
            i += n;
            ++c;
        }
        EXPECT_EQ(got, expect) << schemeName(scheme);

        // Encoder state advanced identically: the next word encodes
        // the same through both.
        EXPECT_EQ(batched->encode(0xdeadbeef), ref->encode(0xdeadbeef))
            << schemeName(scheme);
    }
}

TEST(EncodeBatch, EmptyBatchIsANoOp)
{
    for (EncodingScheme scheme : paperSchemes()) {
        std::unique_ptr<BusEncoder> a = makeEncoder(scheme, 16);
        std::unique_ptr<BusEncoder> b = makeEncoder(scheme, 16);
        a->encode(0x1234);
        b->encode(0x1234);
        a->encodeBatch({}, {});
        EXPECT_EQ(a->encode(0x4321), b->encode(0x4321))
            << schemeName(scheme);
    }
}

// ----------------------------------------------------------------
// BusEnergyModel::stepBatch
// ----------------------------------------------------------------

TEST(StepBatch, MatchesSequentialStepBitwise)
{
    const std::vector<uint64_t> words = makeWords(600, 0xabcdef);
    BusEnergyModel::Config config;
    config.coupling_radius = 4;
    // Scalar: the only kernel that fills the stepBatch interval spans.
    config.kernel = TransitionKernel::Scalar;

    const CapacitanceMatrix caps =
        CapacitanceMatrix::analytical(tech130, 32);
    BusEnergyModel ref(tech130, caps, config);
    BusEnergyModel batched(tech130, caps, config);

    // Per-record path: step() then interval accumulation per word,
    // exactly as BusSimulator::transmit historically did.
    std::vector<double> ref_interval(32, 0.0);
    EnergyBreakdown ref_breakdown;
    for (uint64_t w : words) {
        ref.step(w);
        const std::vector<double> &line = ref.lastLineEnergy();
        for (size_t i = 0; i < line.size(); ++i)
            ref_interval[i] += line[i];
        ref_breakdown += ref.lastBreakdown();
    }

    std::vector<double> got_interval(32, 0.0);
    EnergyBreakdown got_breakdown;
    // Uneven chunking again so batch boundaries land everywhere.
    const size_t chunks[] = {1, 5, 17, 127};
    size_t i = 0, c = 0;
    while (i < words.size()) {
        size_t n = std::min(chunks[c % 4], words.size() - i);
        batched.stepBatch(
            std::span<const uint64_t>(words).subspan(i, n),
            got_interval, got_breakdown);
        i += n;
        ++c;
    }

    EXPECT_TRUE(sameBits(ref.accumulatedLineEnergy(),
                         batched.accumulatedLineEnergy()));
    EXPECT_TRUE(sameBits(ref.accumulatedBreakdown().self.raw(),
                         batched.accumulatedBreakdown().self.raw()));
    EXPECT_TRUE(sameBits(ref.accumulatedBreakdown().coupling.raw(),
                         batched.accumulatedBreakdown().coupling.raw()));
    EXPECT_TRUE(sameBits(ref_interval, got_interval));
    EXPECT_TRUE(sameBits(ref_breakdown.self.raw(),
                         got_breakdown.self.raw()));
    EXPECT_TRUE(sameBits(ref_breakdown.coupling.raw(),
                         got_breakdown.coupling.raw()));
    EXPECT_EQ(ref.lastWord(), batched.lastWord());
    EXPECT_EQ(ref.cycles(), batched.cycles());
}

// ----------------------------------------------------------------
// SimPipeline vs per-record TwinBusSimulator
// ----------------------------------------------------------------

BusSimConfig
pinConfig(EncodingScheme scheme,
          TransitionKernel kernel = TransitionKernel::Packed)
{
    BusSimConfig config;
    config.scheme = scheme;
    config.kernel = kernel;
    config.data_width = 32;
    // Far smaller than the batch sizes below, so every batch
    // straddles several interval (and thermal) closes.
    config.interval_cycles = 500;
    config.record_samples = true;
    return config;
}

/** Compare every observable of the two buses bitwise. */
void
expectTwinsIdentical(const TwinBusSimulator &a,
                     const TwinBusSimulator &b)
{
    const BusSimulator *lhs[] = {&a.instructionBus(), &a.dataBus()};
    const BusSimulator *rhs[] = {&b.instructionBus(), &b.dataBus()};
    for (int bus = 0; bus < 2; ++bus) {
        SCOPED_TRACE(bus == 0 ? "instruction bus" : "data bus");
        EXPECT_EQ(lhs[bus]->transmissions(), rhs[bus]->transmissions());
        EXPECT_EQ(lhs[bus]->currentCycle(), rhs[bus]->currentCycle());
        EXPECT_TRUE(sameBits(lhs[bus]->totalEnergy().self.raw(),
                             rhs[bus]->totalEnergy().self.raw()));
        EXPECT_TRUE(sameBits(lhs[bus]->totalEnergy().coupling.raw(),
                             rhs[bus]->totalEnergy().coupling.raw()));
        EXPECT_TRUE(sameBits(lhs[bus]->lineEnergies(),
                             rhs[bus]->lineEnergies()));
        EXPECT_EQ(lhs[bus]->thermalFaults().size(),
                  rhs[bus]->thermalFaults().size());
        ASSERT_EQ(lhs[bus]->samples().size(),
                  rhs[bus]->samples().size());
        for (size_t i = 0; i < lhs[bus]->samples().size(); ++i) {
            const IntervalSample &x = lhs[bus]->samples()[i];
            const IntervalSample &y = rhs[bus]->samples()[i];
            EXPECT_EQ(x.end_cycle, y.end_cycle);
            EXPECT_EQ(x.transmissions, y.transmissions);
            EXPECT_TRUE(sameBits(x.energy.self.raw(),
                                 y.energy.self.raw()));
            EXPECT_TRUE(sameBits(x.energy.coupling.raw(),
                                 y.energy.coupling.raw()));
            EXPECT_TRUE(sameBits(x.avg_temperature.raw(),
                                 y.avg_temperature.raw()));
            EXPECT_TRUE(sameBits(x.max_temperature.raw(),
                                 y.max_temperature.raw()));
            EXPECT_TRUE(sameBits(x.avg_current.raw(),
                                 y.avg_current.raw()));
        }
    }
}

std::vector<TraceRecord>
syntheticRecords(uint64_t cycles, uint64_t seed)
{
    SyntheticCpu cpu(benchmarkProfile("swim"), seed, cycles);
    std::vector<TraceRecord> records;
    TraceRecord r;
    while (cpu.next(r))
        records.push_back(r);
    return records;
}

void
pinPipelineAgainstPerRecord(
    const std::vector<TraceRecord> &records, EncodingScheme scheme,
    TransitionKernel kernel = TransitionKernel::Packed)
{
    TwinBusSimulator oracle(tech130, pinConfig(scheme, kernel));
    VectorTraceSource oracle_source(records);
    oracle.runPerRecord(oracle_source);

    for (unsigned pool_size : {1u, 2u, 4u}) {
        exec::ThreadPool pool(pool_size);
        for (bool prefetch : {false, true}) {
            SCOPED_TRACE(testing::Message()
                         << schemeName(scheme) << " kernel="
                         << transitionKernelName(kernel)
                         << " pool=" << pool_size
                         << " prefetch=" << prefetch);
            TwinBusSimulator twin(tech130, pinConfig(scheme, kernel));
            SimPipeline::Config pc;
            pc.batch_size = 1024; // >> interval_cycles transactions
            pc.prefetch = prefetch;
            SimPipeline pipeline(twin, pool, pc);
            VectorTraceSource source(records);
            Result<uint64_t> n = pipeline.run(source);
            ASSERT_TRUE(n.ok());
            EXPECT_EQ(n.value(), records.size());
            expectTwinsIdentical(oracle, twin);
        }
    }
}

TEST(SimPipelineEquivalence, BitIdenticalForEveryPaperScheme)
{
    // Each kernel against its own per-record replay: Scalar (the
    // plain oracle) and Packed (the default) share no counting code.
    const std::vector<TraceRecord> records =
        syntheticRecords(6000, 7);
    for (TransitionKernel kernel :
         {TransitionKernel::Scalar, TransitionKernel::Packed})
        for (EncodingScheme scheme : paperSchemes())
            pinPipelineAgainstPerRecord(records, scheme, kernel);
}

TEST(SimPipelineEquivalence, IdleGapsAndTrailingIdle)
{
    // Hand-built trace: bursts separated by long idle gaps (several
    // interval closes with zero transmissions) and a trailing record
    // far past the last burst, so the final flush crosses intervals.
    std::vector<TraceRecord> records;
    uint64_t cycle = 0;
    uint32_t addr = 0x4000;
    for (int burst = 0; burst < 5; ++burst) {
        for (int i = 0; i < 40; ++i) {
            records.push_back({cycle, addr,
                               i % 3 == 0 ? AccessKind::Load
                                          : AccessKind::InstructionFetch});
            cycle += 1 + static_cast<uint64_t>(i % 2);
            addr = addr * 1664525u + 1013904223u;
        }
        cycle += 2600; // straddles several 500-cycle intervals idle
    }
    records.push_back({cycle + 5000, 0xffffffffu, AccessKind::Store});
    pinPipelineAgainstPerRecord(records,
                                EncodingScheme::BusInvert);
}

TEST(SimPipelineEquivalence, BatchSizeDoesNotChangeResults)
{
    const std::vector<TraceRecord> records =
        syntheticRecords(3000, 11);
    TwinBusSimulator oracle(tech130,
                            pinConfig(EncodingScheme::BusInvert));
    VectorTraceSource oracle_source(records);
    oracle.runPerRecord(oracle_source);

    exec::ThreadPool pool(2);
    for (size_t batch : {size_t(1), size_t(7), size_t(256),
                         size_t(100000)}) {
        SCOPED_TRACE(testing::Message() << "batch_size=" << batch);
        TwinBusSimulator twin(tech130,
                              pinConfig(EncodingScheme::BusInvert));
        SimPipeline::Config pc;
        pc.batch_size = batch;
        SimPipeline pipeline(twin, pool, pc);
        VectorTraceSource source(records);
        ASSERT_TRUE(pipeline.run(source).ok());
        expectTwinsIdentical(oracle, twin);
    }
}

TEST(SimPipelineEquivalence, EmptyStreamMatchesPerRecord)
{
    TwinBusSimulator oracle(tech130,
                            pinConfig(EncodingScheme::Unencoded));
    VectorTraceSource empty_a{{}};
    oracle.runPerRecord(empty_a);

    exec::ThreadPool pool(2);
    TwinBusSimulator twin(tech130,
                          pinConfig(EncodingScheme::Unencoded));
    SimPipeline pipeline(twin, pool);
    VectorTraceSource empty_b{{}};
    Result<uint64_t> n = pipeline.run(empty_b);
    ASSERT_TRUE(n.ok());
    EXPECT_EQ(n.value(), 0u);
    expectTwinsIdentical(oracle, twin);
}

// ----------------------------------------------------------------
// Batch readers: exact sequence + fault surfacing
// ----------------------------------------------------------------

/** Source that throws (like TraceReader's budget exhaustion path
 *  converted to an exception boundary) after `limit` records. */
class FaultingSource : public TraceSource
{
  public:
    FaultingSource(std::vector<TraceRecord> records, size_t limit)
        : records_(std::move(records)), limit_(limit)
    {
    }

    bool next(TraceRecord &out) override
    {
        if (pos_ >= limit_)
            throw std::runtime_error("simulated read fault");
        if (pos_ >= records_.size())
            return false;
        out = records_[pos_++];
        return true;
    }

  private:
    std::vector<TraceRecord> records_;
    size_t limit_;
    size_t pos_ = 0;
};

std::vector<TraceRecord>
drainBatches(BatchSource &batches, std::vector<size_t> *sizes)
{
    std::vector<TraceRecord> out;
    for (;;) {
        Result<RecordBatch> next = batches.nextBatch();
        EXPECT_TRUE(next.ok());
        if (!next.ok() || next.value().empty())
            return out;
        if (sizes)
            sizes->push_back(next.value().size());
        for (const TraceRecord &r : next.value())
            out.push_back(r);
    }
}

TEST(BatchReaders, PrefetchPreservesExactSequenceAtEveryPoolSize)
{
    const std::vector<TraceRecord> records =
        syntheticRecords(4000, 3);
    for (unsigned pool_size : {1u, 2u, 4u}) {
        SCOPED_TRACE(testing::Message() << "pool=" << pool_size);
        exec::ThreadPool pool(pool_size);
        VectorTraceSource source(records);
        PrefetchReader reader(source, pool, 256);
        std::vector<size_t> sizes;
        EXPECT_EQ(drainBatches(reader, &sizes), records);
        // Batch boundaries are a pure function of (source, size):
        // all full except possibly the last.
        for (size_t i = 0; i + 1 < sizes.size(); ++i)
            EXPECT_EQ(sizes[i], 256u);
    }
}

TEST(BatchReaders, BatchReaderMatchesPrefetchReader)
{
    const std::vector<TraceRecord> records =
        syntheticRecords(2000, 5);
    VectorTraceSource a(records);
    BatchReader plain(a, 100);
    std::vector<size_t> plain_sizes;
    const std::vector<TraceRecord> plain_records =
        drainBatches(plain, &plain_sizes);

    exec::ThreadPool pool(2);
    VectorTraceSource b(records);
    PrefetchReader prefetch(b, pool, 100);
    std::vector<size_t> pf_sizes;
    EXPECT_EQ(drainBatches(prefetch, &pf_sizes), plain_records);
    EXPECT_EQ(pf_sizes, plain_sizes);
    EXPECT_EQ(plain_records, records);
}

TEST(BatchReaders, MidStreamFaultSurfacesThroughResult)
{
    const std::vector<TraceRecord> records =
        syntheticRecords(1000, 9);
    for (unsigned pool_size : {1u, 2u}) {
        SCOPED_TRACE(testing::Message() << "pool=" << pool_size);
        exec::ThreadPool pool(pool_size);
        FaultingSource source(records, 650);
        PrefetchReader reader(source, pool, 256);

        // Batches before the faulting one arrive intact...
        Result<RecordBatch> first = reader.nextBatch();
        ASSERT_TRUE(first.ok());
        EXPECT_EQ(first.value().size(), 256u);
        Result<RecordBatch> second = reader.nextBatch();
        ASSERT_TRUE(second.ok());
        EXPECT_EQ(second.value().size(), 256u);

        // ...the faulting batch is dropped whole and reported as an
        // IoError, and the error latches for every later call.
        Result<RecordBatch> faulted = reader.nextBatch();
        ASSERT_FALSE(faulted.ok());
        EXPECT_EQ(faulted.error().code, ErrorCode::IoError);
        Result<RecordBatch> again = reader.nextBatch();
        ASSERT_FALSE(again.ok());
        EXPECT_EQ(again.error().code, ErrorCode::IoError);
    }
}

TEST(BatchReaders, BatchReaderFaultMatchesPrefetchReader)
{
    const std::vector<TraceRecord> records =
        syntheticRecords(1000, 9);
    FaultingSource source(records, 650);
    BatchReader reader(source, 256);
    ASSERT_TRUE(reader.nextBatch().ok());
    ASSERT_TRUE(reader.nextBatch().ok());
    Result<RecordBatch> faulted = reader.nextBatch();
    ASSERT_FALSE(faulted.ok());
    EXPECT_EQ(faulted.error().code, ErrorCode::IoError);
}

TEST(BatchReaders, PipelineSurfacesSourceFaultAsError)
{
    exec::ThreadPool pool(2);
    TwinBusSimulator twin(tech130,
                          pinConfig(EncodingScheme::Unencoded));
    SimPipeline pipeline(twin, pool);
    FaultingSource source(syntheticRecords(1000, 13), 650);
    Result<uint64_t> n = pipeline.run(source);
    ASSERT_FALSE(n.ok());
    EXPECT_EQ(n.error().code, ErrorCode::IoError);
}

} // namespace
} // namespace nanobus
