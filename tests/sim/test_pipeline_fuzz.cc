/**
 * @file
 * Randomized differential harness for the batched streaming pipeline:
 * every case draws a random trace shape (bursty, idle-gap, or
 * fault-injected), bus width, encoding scheme, transition kernel
 * (scalar or packed), batch size, and pool size, replays it through
 * SimPipeline, and requires the result to match the per-record
 * oracle BIT-identically (memcmp on the doubles — no tolerance;
 * the oracle runs the same kernel, and each kernel is bit-identical
 * to itself under any batching). Half the widths come from a list
 * straddling the packed kernel's 64-bit lane boundary.
 * Packed cases additionally run a *scalar* oracle and require the
 * totals to agree to FP rounding — the cross-kernel check that the
 * self-consistency pin alone cannot provide.
 *
 * Reproducing a failure: every case logs its seed via SCOPED_TRACE,
 * so a red run prints the exact seed. Replay just that case with
 *
 *   NANOBUS_FUZZ_SEED=<seed> ./tests/test_pipeline_fuzz \
 *       --gtest_filter='PipelineFuzz.*'
 *
 * NANOBUS_FUZZ_CASES overrides the case count (default 200; CI runs
 * the default, soak runs can turn it up).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "exec/thread_pool.hh"
#include "fabric/bus_sim.hh"
#include "sim/experiment.hh"
#include "sim/pipeline.hh"
#include "trace/record.hh"
#include "util/random.hh"
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

/** Compare every observable of the two twins bitwise. */
void
expectTwinsIdentical(const TwinBusSimulator &a,
                     const TwinBusSimulator &b)
{
    const BusSimulator *lhs[] = {&a.instructionBus(), &a.dataBus()};
    const BusSimulator *rhs[] = {&b.instructionBus(), &b.dataBus()};
    for (int bus = 0; bus < 2; ++bus) {
        SCOPED_TRACE(bus == 0 ? "instruction bus" : "data bus");
        EXPECT_EQ(lhs[bus]->transmissions(),
                  rhs[bus]->transmissions());
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

// ----------------------------------------------------------------
// Case generation
// ----------------------------------------------------------------

enum class TraceShape { Bursty, IdleGap, FaultInjected };

const char *
traceShapeName(TraceShape shape)
{
    switch (shape) {
      case TraceShape::Bursty:
        return "bursty";
      case TraceShape::IdleGap:
        return "idle-gap";
      case TraceShape::FaultInjected:
        return "fault-injected";
    }
    return "?";
}

/** One randomly drawn differential case (pure function of the
 *  seed, so a logged seed replays the identical case). */
struct FuzzCase
{
    uint64_t seed = 0;
    TraceShape shape = TraceShape::Bursty;
    EncodingScheme scheme = EncodingScheme::Unencoded;
    TransitionKernel kernel = TransitionKernel::Scalar;
    unsigned width = 32;
    uint64_t interval_cycles = 500;
    size_t batch_size = 256;
    unsigned pool_size = 1;
    bool prefetch = false;
    std::vector<TraceRecord> records;
    /** Source throws after this many records (FaultInjected only). */
    size_t fault_at = 0;

    std::string describe() const
    {
        return std::string("seed=") + std::to_string(seed) +
            " shape=" + traceShapeName(shape) +
            " scheme=" + schemeName(scheme) +
            " kernel=" + transitionKernelName(kernel) +
            " width=" + std::to_string(width) +
            " interval=" + std::to_string(interval_cycles) +
            " batch=" + std::to_string(batch_size) +
            " pool=" + std::to_string(pool_size) +
            " prefetch=" + (prefetch ? "1" : "0") +
            " records=" + std::to_string(records.size()) +
            (shape == TraceShape::FaultInjected
                 ? " fault_at=" + std::to_string(fault_at)
                 : "");
    }
};

/** Random trace: bursts of back-to-back transactions separated by
 *  gaps whose scale depends on the shape. Cycles are strictly
 *  increasing; addresses mix strides and jumps so the bus-invert
 *  family exercises both branches. */
std::vector<TraceRecord>
makeTrace(Rng &rng, TraceShape shape, size_t n)
{
    std::vector<TraceRecord> records;
    records.reserve(n);
    uint64_t cycle = rng.below(100);
    uint32_t addr = static_cast<uint32_t>(rng.next());
    while (records.size() < n) {
        const uint64_t burst = 1 + rng.below(48);
        for (uint64_t i = 0; i < burst && records.size() < n; ++i) {
            AccessKind kind;
            const uint64_t k = rng.below(4);
            if (k < 2)
                kind = AccessKind::InstructionFetch;
            else if (k == 2)
                kind = AccessKind::Load;
            else
                kind = AccessKind::Store;
            records.push_back({cycle, addr, kind});
            cycle += 1 + rng.below(3);
            addr = rng.chance(0.7)
                ? addr + 4
                : static_cast<uint32_t>(rng.next());
        }
        // Gap until the next burst: idle-gap traces straddle several
        // interval closes while bursty ones stay mostly busy.
        cycle += shape == TraceShape::IdleGap
            ? 200 + rng.below(5000)
            : 1 + rng.below(60);
    }
    return records;
}

FuzzCase
makeCase(uint64_t seed)
{
    Rng rng(seed);
    FuzzCase c;
    c.seed = seed;

    const uint64_t shape_draw = rng.below(4);
    c.shape = shape_draw == 0 ? TraceShape::IdleGap
        : shape_draw == 1    ? TraceShape::FaultInjected
                             : TraceShape::Bursty;

    const std::vector<EncodingScheme> &schemes = paperSchemes();
    c.scheme = schemes[rng.below(schemes.size())];
    c.kernel = rng.chance(0.5) ? TransitionKernel::Packed
                               : TransitionKernel::Scalar;

    // Half the cases draw widths from a list straddling the packed
    // kernel's u64 lane boundary (encoders cap the payload at 62,
    // so 63/64/65/127 clamp there — with control lines the physical
    // bus then sits at 62..64 lines, right on the boundary). The
    // rest stay at <= 40: widths past the 32-bit addresses just
    // idle the top lines.
    if (rng.chance(0.5)) {
        static const unsigned lane_widths[] = {1,  31, 32, 33,
                                               63, 64, 65, 127};
        const unsigned drawn = lane_widths[rng.below(8)];
        c.width = drawn > 62 ? 62 : drawn;
    } else {
        c.width = static_cast<unsigned>(1 + rng.below(40));
    }
    c.interval_cycles = 50 + rng.below(1500);
    c.batch_size = static_cast<size_t>(1 + rng.below(2048));
    const unsigned pools[] = {1, 2, 4};
    c.pool_size = pools[rng.below(3)];
    (void)rng.below(3); // retired pinning draw: keeps seeds stable
    c.prefetch = rng.chance(0.5);

    const size_t n = 100 + rng.below(1400);
    c.records = makeTrace(rng, c.shape, n);
    if (c.shape == TraceShape::FaultInjected)
        c.fault_at = 1 + rng.below(c.records.size());
    return c;
}

BusSimConfig
caseConfig(const FuzzCase &c)
{
    BusSimConfig config;
    config.scheme = c.scheme;
    config.data_width = c.width;
    config.interval_cycles = c.interval_cycles;
    config.kernel = c.kernel;
    config.record_samples = true;
    return config;
}

/** Source that throws after `limit` records, like a trace file
 *  truncated mid-stream. */
class FaultingSource : public TraceSource
{
  public:
    FaultingSource(const std::vector<TraceRecord> &records,
                   size_t limit)
        : records_(records), limit_(limit)
    {
    }

    bool next(TraceRecord &out) override
    {
        if (pos_ >= limit_)
            throw std::runtime_error("fuzz: injected read fault");
        if (pos_ >= records_.size())
            return false;
        out = records_[pos_++];
        return true;
    }

  private:
    const std::vector<TraceRecord> &records_;
    size_t limit_;
    size_t pos_ = 0;
};

// ----------------------------------------------------------------
// The differential check
// ----------------------------------------------------------------

/** Clean-trace case: pipeline vs runPerRecord, bit for bit. */
void
checkCleanCase(const FuzzCase &c)
{
    TwinBusSimulator oracle(tech130, caseConfig(c));
    VectorTraceSource oracle_source(c.records);
    const uint64_t oracle_n = oracle.runPerRecord(oracle_source);

    exec::ThreadPool pool(c.pool_size);
    TwinBusSimulator twin(tech130, caseConfig(c));
    SimPipeline::Config pc;
    pc.batch_size = c.batch_size;
    pc.prefetch = c.prefetch;
    SimPipeline pipeline(twin, pool, pc);
    VectorTraceSource source(c.records);
    Result<uint64_t> n = pipeline.run(source);
    ASSERT_TRUE(n.ok()) << n.error().describe();
    EXPECT_EQ(n.value(), oracle_n);
    expectTwinsIdentical(oracle, twin);

    // Packed cases: cross-check against the *other* kernel. The pin
    // above proves the packed pipeline equals the packed oracle, but
    // both share the count kernel; only a scalar replay can catch a
    // bug in the counts themselves. Totals agree to FP rounding, not
    // bitwise (different summation order).
    if (c.kernel == TransitionKernel::Packed) {
        BusSimConfig cross_config = caseConfig(c);
        cross_config.kernel = TransitionKernel::Scalar;
        TwinBusSimulator cross(tech130, cross_config);
        VectorTraceSource cross_source(c.records);
        cross.runPerRecord(cross_source);
        const BusSimulator *p[] = {&twin.instructionBus(),
                                   &twin.dataBus()};
        const BusSimulator *s[] = {&cross.instructionBus(),
                                   &cross.dataBus()};
        for (int bus = 0; bus < 2; ++bus) {
            SCOPED_TRACE(bus == 0 ? "cross-kernel instruction bus"
                                  : "cross-kernel data bus");
            const double want = s[bus]->totalEnergy().total().raw();
            const double got = p[bus]->totalEnergy().total().raw();
            EXPECT_NEAR(got, want, 1e-9 * std::abs(want) + 1e-24);
        }
    }
}

/**
 * Fault-injected case: the pipeline must surface an IoError, and the
 * simulator state must equal a per-record replay of exactly the
 * batches applied before the fault — the faulting batch is dropped
 * whole, so that is the first floor(fault_at / batch_size) full
 * batches, with no trailing-idle flush (the pipeline does not
 * finish() on error).
 */
void
checkFaultCase(const FuzzCase &c)
{
    exec::ThreadPool pool(c.pool_size);
    TwinBusSimulator twin(tech130, caseConfig(c));
    SimPipeline::Config pc;
    pc.batch_size = c.batch_size;
    pc.prefetch = c.prefetch;
    SimPipeline pipeline(twin, pool, pc);
    FaultingSource source(c.records, c.fault_at);
    Result<uint64_t> n = pipeline.run(source);
    ASSERT_FALSE(n.ok());
    EXPECT_EQ(n.error().code, ErrorCode::IoError);

    const size_t applied =
        (c.fault_at / c.batch_size) * c.batch_size;
    TwinBusSimulator oracle(tech130, caseConfig(c));
    for (size_t i = 0; i < applied; ++i)
        oracle.accept(c.records[i]);
    expectTwinsIdentical(oracle, twin);
}

void
runCase(uint64_t seed)
{
    const FuzzCase c = makeCase(seed);
    SCOPED_TRACE("replay: NANOBUS_FUZZ_SEED=" + std::to_string(seed) +
                 " ./tests/test_pipeline_fuzz"
                 " --gtest_filter='PipelineFuzz.*'  [" +
                 c.describe() + "]");
    if (c.shape == TraceShape::FaultInjected)
        checkFaultCase(c);
    else
        checkCleanCase(c);
}

uint64_t
envU64(const char *name, uint64_t fallback)
{
    const char *env = std::getenv(name);
    if (!env || *env == '\0')
        return fallback;
    char *end = nullptr;
    const uint64_t value = std::strtoull(env, &end, 10);
    return end == env ? fallback : value;
}

TEST(PipelineFuzz, DifferentialAgainstPerRecordOracle)
{
    // A pinned NANOBUS_FUZZ_SEED replays exactly one case; otherwise
    // run NANOBUS_FUZZ_CASES (default 200) consecutive seeds off a
    // fixed base, so CI failures always name a reproducible seed.
    if (const char *pinned = std::getenv("NANOBUS_FUZZ_SEED")) {
        if (*pinned != '\0') {
            runCase(envU64("NANOBUS_FUZZ_SEED", 0));
            return;
        }
    }
    const uint64_t cases = envU64("NANOBUS_FUZZ_CASES", 200);
    const uint64_t base = envU64("NANOBUS_FUZZ_BASE", 0x5eed0000);
    for (uint64_t i = 0; i < cases; ++i) {
        runCase(base + i);
        if (::testing::Test::HasFatalFailure() ||
            ::testing::Test::HasNonfatalFailure())
            break; // the SCOPED_TRACE above already named the seed
    }
}

} // namespace
} // namespace nanobus
