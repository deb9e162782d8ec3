/**
 * @file
 * Twin-bus checkpoint/resume tests: the kill-and-resume pin (a run
 * checkpointed mid-stream and resumed by a fresh simulator is
 * bit-identical to one that never stopped, for every encoder scheme
 * and at pool sizes 1/2/hw), in-memory snapshot round-trips, and the
 * negative paths — CRC damage, foreign container versions, missing
 * files, configuration mismatches, and trailing bytes are all
 * rejected with typed errors instead of resuming garbage.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "exec/thread_pool.hh"
#include "sim/pipeline.hh"
#include "sim/snapshot.hh"
#include "trace/io.hh"
#include "trace/record.hh"
#include "temp_path.hh"

namespace nanobus {
namespace {

const TechnologyNode &tech130 = itrsNode(ItrsNode::Nm130);

const std::vector<EncodingScheme> &
allSchemes()
{
    static const std::vector<EncodingScheme> schemes = {
        EncodingScheme::Unencoded,
        EncodingScheme::BusInvert,
        EncodingScheme::OddEvenBusInvert,
        EncodingScheme::CouplingDrivenBusInvert,
        EncodingScheme::Gray,
        EncodingScheme::T0,
        EncodingScheme::Offset,
    };
    return schemes;
}

BusSimConfig
simConfig(EncodingScheme scheme)
{
    BusSimConfig config;
    config.scheme = scheme;
    config.data_width = 16;
    // Small intervals so the replay straddles several interval
    // closes — the snapshot must carry the bookkeeping mid-flight.
    config.interval_cycles = 500;
    config.record_samples = true;
    return config;
}

std::vector<TraceRecord>
makeRecords(uint64_t n)
{
    std::vector<TraceRecord> records;
    uint32_t address = 0x1234u;
    for (uint64_t c = 0; c < n; ++c) {
        address = address * 1664525u + 1013904223u;
        AccessKind kind = (c % 3 == 0)
            ? AccessKind::InstructionFetch
            : ((c % 3 == 1) ? AccessKind::Load : AccessKind::Store);
        records.push_back({c, address, kind});
    }
    return records;
}

uint64_t
bitsOf(double value)
{
    uint64_t bits;
    std::memcpy(&bits, &value, sizeof bits);
    return bits;
}

/** Everything observable about one bus, as double bit patterns. */
void
captureBus(const BusSimulator &bus, std::vector<uint64_t> &out)
{
    out.push_back(bitsOf(bus.totalEnergy().self.raw()));
    out.push_back(bitsOf(bus.totalEnergy().coupling.raw()));
    out.push_back(bus.transmissions());
    out.push_back(bus.currentCycle());
    for (double e : bus.lineEnergies())
        out.push_back(bitsOf(e));
    out.push_back(bus.samples().size());
    for (const IntervalSample &s : bus.samples()) {
        out.push_back(s.end_cycle);
        out.push_back(s.transmissions);
        out.push_back(bitsOf(s.energy.self.raw()));
        out.push_back(bitsOf(s.energy.coupling.raw()));
        out.push_back(bitsOf(s.avg_temperature.raw()));
        out.push_back(bitsOf(s.max_temperature.raw()));
        out.push_back(bitsOf(s.avg_current.raw()));
    }
    out.push_back(bus.thermalFaults().size());
}

std::vector<uint64_t>
fingerprint(const TwinBusSimulator &twin)
{
    std::vector<uint64_t> fp;
    captureBus(twin.instructionBus(), fp);
    captureBus(twin.dataBus(), fp);
    return fp;
}

/** Replay `records` through the pipeline under `config`. */
std::vector<uint64_t>
replay(const std::vector<TraceRecord> &records, EncodingScheme scheme,
       exec::ThreadPool &pool, const SimPipeline::Config &config,
       uint64_t *count = nullptr)
{
    TwinBusSimulator twin(tech130, simConfig(scheme));
    SimPipeline pipeline(twin, pool, config);
    VectorTraceSource source(records);
    Result<uint64_t> replayed = pipeline.run(source);
    EXPECT_TRUE(replayed.ok())
        << (replayed.ok() ? ""
                          : replayed.error().describe().c_str());
    if (count && replayed.ok())
        *count = replayed.value();
    return fingerprint(twin);
}

class SnapshotTest : public ::testing::Test
{
  protected:
    std::string ckpt_ = test::uniqueTempPath("snapshot_test.ckpt");

    void TearDown() override { std::remove(ckpt_.c_str()); }

    void corruptByte(size_t offset)
    {
        std::ifstream in(ckpt_, std::ios::binary);
        std::ostringstream buffer;
        buffer << in.rdbuf();
        std::string file = buffer.str();
        in.close();
        ASSERT_LT(offset, file.size());
        file[offset] = static_cast<char>(file[offset] ^ 0x01);
        std::ofstream out(ckpt_,
                          std::ios::binary | std::ios::trunc);
        out.write(file.data(),
                  static_cast<std::streamsize>(file.size()));
    }
};

TEST_F(SnapshotTest, InMemoryRoundTripIsBitIdentical)
{
    std::vector<TraceRecord> records = makeRecords(1200);
    TwinBusSimulator twin(tech130,
                          simConfig(EncodingScheme::BusInvert));
    VectorTraceSource source(records);
    twin.runPerRecord(source);

    Result<std::string> payload =
        encodeTwinSnapshot(twin, SimCheckpoint{1200, 1199});
    ASSERT_TRUE(payload.ok());

    TwinBusSimulator restored(tech130,
                              simConfig(EncodingScheme::BusInvert));
    SimCheckpoint cursor;
    ASSERT_TRUE(
        decodeTwinSnapshot(payload.value(), restored, cursor).ok());
    EXPECT_EQ(cursor.records, 1200u);
    EXPECT_EQ(cursor.last_cycle, 1199u);
    EXPECT_EQ(fingerprint(restored), fingerprint(twin));
}

TEST_F(SnapshotTest, KillAndResumeBitIdenticalAllSchemes)
{
    // The acceptance pin. A run killed after a checkpointed prefix
    // (simulated by replaying a truncated source with checkpointing
    // on) and resumed by a fresh simulator over the full stream must
    // match the uninterrupted run bit-for-bit — for every encoder
    // scheme, at pool sizes 1, 2, and hw.
    const std::vector<TraceRecord> records = makeRecords(2000);
    const std::vector<TraceRecord> prefix(records.begin(),
                                          records.begin() + 1100);
    std::vector<unsigned> pools = {1, 2};
    if (exec::ThreadPool::defaultThreads() > 2)
        pools.push_back(exec::ThreadPool::defaultThreads());

    for (EncodingScheme scheme : allSchemes()) {
        exec::ThreadPool reference_pool(1);
        SimPipeline::Config plain;
        plain.batch_size = 256;
        const std::vector<uint64_t> uninterrupted =
            replay(records, scheme, reference_pool, plain);

        for (unsigned pool_size : pools) {
            exec::ThreadPool pool(pool_size);

            // "Kill": replay only the prefix, checkpointing every
            // batch; the last checkpoint covers the whole prefix.
            SimPipeline::Config checkpointing = plain;
            checkpointing.checkpoint_path = ckpt_;
            checkpointing.checkpoint_every_batches = 1;
            replay(prefix, scheme, pool, checkpointing);

            // Resume over the full stream from the file.
            SimPipeline::Config resuming = plain;
            resuming.checkpoint_path = ckpt_;
            resuming.resume = true;
            uint64_t total = 0;
            const std::vector<uint64_t> resumed = replay(
                records, scheme, pool, resuming, &total);
            EXPECT_EQ(total, records.size())
                << schemeName(scheme) << " pool=" << pool_size;
            EXPECT_EQ(resumed, uninterrupted)
                << schemeName(scheme) << " pool=" << pool_size;
        }
    }
}

TEST_F(SnapshotTest, FileTraceKillAndResume)
{
    // Same pin over real trace files and TraceReader: the resumed
    // reader re-reads the prefix lines and skips them by count.
    const std::string full_path =
        test::uniqueTempPath("snapshot_full.txt");
    const std::string prefix_path =
        test::uniqueTempPath("snapshot_prefix.txt");
    const std::vector<TraceRecord> records = makeRecords(1500);
    {
        TraceWriter full(full_path);
        TraceWriter prefix(prefix_path);
        for (size_t i = 0; i < records.size(); ++i) {
            full.write(records[i]);
            if (i < 800)
                prefix.write(records[i]);
        }
        full.flush();
        prefix.flush();
    }

    exec::ThreadPool pool(2);
    const EncodingScheme scheme = EncodingScheme::BusInvert;
    SimPipeline::Config plain;
    plain.batch_size = 256;

    TwinBusSimulator oracle(tech130, simConfig(scheme));
    {
        TraceReader reader(full_path);
        SimPipeline pipeline(oracle, pool, plain);
        ASSERT_TRUE(pipeline.run(reader).ok());
    }

    SimPipeline::Config checkpointing = plain;
    checkpointing.checkpoint_path = ckpt_;
    checkpointing.checkpoint_every_batches = 1;
    {
        TwinBusSimulator killed(tech130, simConfig(scheme));
        TraceReader reader(prefix_path);
        SimPipeline pipeline(killed, pool, checkpointing);
        ASSERT_TRUE(pipeline.run(reader).ok());
    }

    SimPipeline::Config resuming = plain;
    resuming.checkpoint_path = ckpt_;
    resuming.resume = true;
    TwinBusSimulator resumed(tech130, simConfig(scheme));
    {
        TraceReader reader(full_path);
        SimPipeline pipeline(resumed, pool, resuming);
        Result<uint64_t> total = pipeline.run(reader);
        ASSERT_TRUE(total.ok());
        EXPECT_EQ(total.value(), records.size());
    }
    EXPECT_EQ(fingerprint(resumed), fingerprint(oracle));

    std::remove(full_path.c_str());
    std::remove(prefix_path.c_str());
}

TEST_F(SnapshotTest, ResumePastEndOfTraceIsInvalidArgument)
{
    // A checkpoint claiming more records than the trace holds means
    // the wrong (or truncated) trace was supplied; resuming must
    // fail loudly, not silently replay a different stream.
    const std::vector<TraceRecord> records = makeRecords(900);
    TwinBusSimulator twin(tech130,
                          simConfig(EncodingScheme::Unencoded));
    ASSERT_TRUE(saveTwinCheckpoint(ckpt_, twin,
                                   SimCheckpoint{901, 900}).ok());

    exec::ThreadPool pool(1);
    SimPipeline::Config config;
    config.checkpoint_path = ckpt_;
    config.resume = true;
    TwinBusSimulator fresh(tech130,
                           simConfig(EncodingScheme::Unencoded));
    SimPipeline pipeline(fresh, pool, config);
    VectorTraceSource source(records);
    Result<uint64_t> run = pipeline.run(source);
    ASSERT_FALSE(run.ok());
    EXPECT_EQ(run.error().code, ErrorCode::InvalidArgument);
}

TEST_F(SnapshotTest, MissingCheckpointIsIoError)
{
    TwinBusSimulator twin(tech130,
                          simConfig(EncodingScheme::BusInvert));
    Result<SimCheckpoint> loaded =
        loadTwinCheckpoint(ckpt_ + ".absent", twin);
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.error().code, ErrorCode::IoError);
}

TEST_F(SnapshotTest, CrcDamageIsParseError)
{
    TwinBusSimulator twin(tech130,
                          simConfig(EncodingScheme::BusInvert));
    ASSERT_TRUE(
        saveTwinCheckpoint(ckpt_, twin, SimCheckpoint{}).ok());
    // Flip one payload bit past the 20-byte container header.
    corruptByte(24);
    TwinBusSimulator victim(tech130,
                            simConfig(EncodingScheme::BusInvert));
    Result<SimCheckpoint> loaded = loadTwinCheckpoint(ckpt_, victim);
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.error().code, ErrorCode::ParseError);
}

TEST_F(SnapshotTest, ForeignContainerVersionIsParseError)
{
    TwinBusSimulator twin(tech130,
                          simConfig(EncodingScheme::BusInvert));
    ASSERT_TRUE(
        saveTwinCheckpoint(ckpt_, twin, SimCheckpoint{}).ok());
    // Container version field: little-endian u32 at offset 4.
    corruptByte(4);
    TwinBusSimulator victim(tech130,
                            simConfig(EncodingScheme::BusInvert));
    Result<SimCheckpoint> loaded = loadTwinCheckpoint(ckpt_, victim);
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.error().code, ErrorCode::ParseError);
}

TEST_F(SnapshotTest, SchemeMismatchIsInvalidArgument)
{
    TwinBusSimulator saved(tech130,
                           simConfig(EncodingScheme::BusInvert));
    ASSERT_TRUE(
        saveTwinCheckpoint(ckpt_, saved, SimCheckpoint{}).ok());
    TwinBusSimulator other(tech130,
                           simConfig(EncodingScheme::Gray));
    Result<SimCheckpoint> loaded = loadTwinCheckpoint(ckpt_, other);
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.error().code, ErrorCode::InvalidArgument);
}

TEST_F(SnapshotTest, ThermalSolverMismatchIsInvalidArgument)
{
    // A checkpoint taken under the RK4 oracle must not resume under
    // TR-BDF2: the resumed run would silently mix integrators.
    BusSimConfig rk4 = simConfig(EncodingScheme::BusInvert);
    rk4.thermal.solver = ThermalSolver::Rk4;
    TwinBusSimulator saved(tech130, rk4);
    ASSERT_TRUE(
        saveTwinCheckpoint(ckpt_, saved, SimCheckpoint{}).ok());

    BusSimConfig trbdf2 = rk4;
    trbdf2.thermal.solver = ThermalSolver::TrBdf2;
    TwinBusSimulator other(tech130, trbdf2);
    Result<SimCheckpoint> loaded = loadTwinCheckpoint(ckpt_, other);
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.error().code, ErrorCode::InvalidArgument);
    EXPECT_NE(loaded.error().message.find("'rk4' thermal solver"),
              std::string::npos)
        << loaded.error().message;

    TwinBusSimulator same(tech130, rk4);
    EXPECT_TRUE(loadTwinCheckpoint(ckpt_, same).ok());
}

TEST_F(SnapshotTest, TrailingBytesAreParseError)
{
    TwinBusSimulator twin(tech130,
                          simConfig(EncodingScheme::Unencoded));
    Result<std::string> payload =
        encodeTwinSnapshot(twin, SimCheckpoint{});
    ASSERT_TRUE(payload.ok());
    std::string padded = payload.value() + '\0';
    TwinBusSimulator victim(tech130,
                            simConfig(EncodingScheme::Unencoded));
    SimCheckpoint cursor;
    Status decoded = decodeTwinSnapshot(padded, victim, cursor);
    ASSERT_FALSE(decoded.ok());
    EXPECT_EQ(decoded.error().code, ErrorCode::ParseError);
}

} // anonymous namespace
} // namespace nanobus
