/**
 * @file
 * Transient-fault recovery seams in the trace layer: an injected
 * TransientIo fault surfaces from BatchReader/PrefetchReader as a
 * latched ErrorCode::IoError, restart() clears the latch so a
 * retried job can re-read its trace, and TraceReader::reopen()
 * rewinds a file reader to a pristine start-of-trace state. Before
 * restart()/reopen() existed, one transient fill failure latched the
 * prefetch reader permanently — the retry path could never succeed.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "exec/thread_pool.hh"
#include "trace/batch.hh"
#include "trace/io.hh"
#include "util/faultinject.hh"
#include "temp_path.hh"

namespace nanobus {
namespace {

std::vector<TraceRecord>
makeRecords(uint64_t n)
{
    std::vector<TraceRecord> records;
    for (uint64_t c = 0; c < n; ++c) {
        AccessKind kind = (c & 1) ? AccessKind::Load
                                  : AccessKind::InstructionFetch;
        records.push_back({c, static_cast<uint32_t>(c * 2654435761u),
                           kind});
    }
    return records;
}

/** Drain `source` to exhaustion, appending every record. */
Status
drain(BatchSource &source, std::vector<TraceRecord> &out)
{
    for (;;) {
        Result<RecordBatch> batch = source.nextBatch();
        if (!batch.ok())
            return batch.error();
        if (batch.value().empty())
            return Status();
        for (const TraceRecord &record : batch.value())
            out.push_back(record);
    }
}

class BatchRecoveryTest : public ::testing::Test
{
  protected:
    std::string path_ = test::uniqueTempPath("batch_recovery_trace.txt");

    void SetUp() override { FaultInjector::instance().reset(); }

    void TearDown() override
    {
        FaultInjector::instance().reset();
        std::remove(path_.c_str());
    }

    void writeTrace(const std::vector<TraceRecord> &records)
    {
        TraceWriter writer(path_);
        for (const TraceRecord &record : records)
            writer.write(record);
        writer.flush();
    }
};

TEST_F(BatchRecoveryTest, BatchReaderLatchesInjectedIoError)
{
    std::vector<TraceRecord> records = makeRecords(100);
    VectorTraceSource source(records);
    BatchReader reader(source, /*batch_size=*/32);

    FaultInjector::instance().armCallFault(FaultSite::TransientIo, 2);
    Result<RecordBatch> first = reader.nextBatch();
    ASSERT_TRUE(first.ok());
    EXPECT_EQ(first.value().size(), 32u);

    Result<RecordBatch> second = reader.nextBatch();
    ASSERT_FALSE(second.ok());
    EXPECT_EQ(second.error().code, ErrorCode::IoError);
    // The error is latched: asking again reports it again.
    Result<RecordBatch> third = reader.nextBatch();
    ASSERT_FALSE(third.ok());
    EXPECT_EQ(third.error().code, ErrorCode::IoError);
}

TEST_F(BatchRecoveryTest, BatchReaderRestartAfterRewindRecovers)
{
    std::vector<TraceRecord> records = makeRecords(100);
    VectorTraceSource source(records);
    BatchReader reader(source, /*batch_size=*/32);

    FaultInjector::instance().armCallFault(FaultSite::TransientIo, 1);
    ASSERT_FALSE(reader.nextBatch().ok());
    FaultInjector::instance().reset();

    // The retry seam: rewind the source, restart the batcher, and
    // the full stream comes through intact.
    source.rewind();
    reader.restart();
    std::vector<TraceRecord> replayed;
    ASSERT_TRUE(drain(reader, replayed).ok());
    EXPECT_EQ(replayed, records);
}

TEST_F(BatchRecoveryTest, PrefetchReaderLatchesInjectedIoError)
{
    std::vector<TraceRecord> records = makeRecords(200);
    for (unsigned pool_size : {1u, 4u}) {
        FaultInjector::instance().reset();
        exec::ThreadPool pool(pool_size);
        VectorTraceSource source(records);
        FaultInjector::instance().armCallFault(
            FaultSite::TransientIo, 1, 1);
        PrefetchReader reader(source, pool, /*batch_size=*/64);
        Result<RecordBatch> batch = reader.nextBatch();
        ASSERT_FALSE(batch.ok()) << "pool=" << pool_size;
        EXPECT_EQ(batch.error().code, ErrorCode::IoError);
        ASSERT_FALSE(reader.nextBatch().ok());
        FaultInjector::instance().reset();
    }
}

TEST_F(BatchRecoveryTest, PrefetchReaderRestartAfterRewindRecovers)
{
    std::vector<TraceRecord> records = makeRecords(300);
    for (unsigned pool_size : {1u, 4u}) {
        FaultInjector::instance().reset();
        exec::ThreadPool pool(pool_size);
        VectorTraceSource source(records);
        FaultInjector::instance().armCallFault(
            FaultSite::TransientIo, 2);
        PrefetchReader reader(source, pool, /*batch_size=*/64);

        std::vector<TraceRecord> replayed;
        Status drained = drain(reader, replayed);
        ASSERT_FALSE(drained.ok()) << "pool=" << pool_size;
        EXPECT_EQ(drained.error().code, ErrorCode::IoError);
        FaultInjector::instance().reset();

        source.rewind();
        reader.restart();
        replayed.clear();
        ASSERT_TRUE(drain(reader, replayed).ok())
            << "pool=" << pool_size;
        EXPECT_EQ(replayed, records);
    }
}

TEST_F(BatchRecoveryTest, TraceReaderReopenRewindsToStart)
{
    std::vector<TraceRecord> records = makeRecords(50);
    writeTrace(records);
    TraceReader reader(path_);

    TraceRecord record;
    for (int i = 0; i < 20; ++i)
        ASSERT_TRUE(reader.next(record));
    ASSERT_TRUE(reader.reopen().ok());
    EXPECT_EQ(reader.linesRead(), 0u);
    EXPECT_EQ(reader.skippedLines(), 0u);

    std::vector<TraceRecord> replayed;
    while (reader.next(record))
        replayed.push_back(record);
    EXPECT_EQ(replayed, records);
}

TEST_F(BatchRecoveryTest, ReopenOfDeletedFileIsIoErrorNotFatal)
{
    writeTrace(makeRecords(10));
    TraceReader reader(path_);
    std::remove(path_.c_str());
    Status reopened = reader.reopen();
    ASSERT_FALSE(reopened.ok());
    EXPECT_EQ(reopened.error().code, ErrorCode::IoError);
}

TEST_F(BatchRecoveryTest, ReaderReopenPlusRestartRetriesFileTrace)
{
    // End-to-end retry seam over a real file: injected fill fault,
    // then reopen() + restart(), then a bit-exact full replay.
    std::vector<TraceRecord> records = makeRecords(150);
    writeTrace(records);
    TraceReader source(path_);
    BatchReader reader(source, /*batch_size=*/40);

    FaultInjector::instance().armCallFault(FaultSite::TransientIo, 2);
    std::vector<TraceRecord> replayed;
    ASSERT_FALSE(drain(reader, replayed).ok());
    FaultInjector::instance().reset();

    ASSERT_TRUE(source.reopen().ok());
    reader.restart();
    replayed.clear();
    ASSERT_TRUE(drain(reader, replayed).ok());
    EXPECT_EQ(replayed, records);
}

} // anonymous namespace
} // namespace nanobus
