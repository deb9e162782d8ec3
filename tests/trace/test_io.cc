/**
 * @file
 * Tests for trace file IO round-trips and error handling.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "trace/io.hh"
#include "util/faultinject.hh"
#include "util/logging.hh"
#include "temp_path.hh"

namespace nanobus {
namespace {

class TraceIoTest : public ::testing::Test
{
  protected:
    std::string path_ = test::uniqueTempPath("trace.txt");

    void TearDown() override { std::remove(path_.c_str()); }

    void writeRaw(const std::string &text)
    {
        std::ofstream out(path_, std::ios::binary);
        out << text;
    }
};

/** Append comment lines to `text` until it is exactly `size` bytes
 *  (at least two more than now): the reader has no block-size knob,
 *  so padding is how a test puts a line across a refill. */
void
padTo(std::string &text, size_t size)
{
    while (size - text.size() > 66)
        text += "# " + std::string(63, 'p') + "\n";
    text += "#" + std::string(size - text.size() - 2, 'q') + "\n";
}

/** The text TraceWriter emits for `records`. */
std::string
canonicalText(const std::vector<TraceRecord> &records)
{
    std::string text;
    for (const TraceRecord &r : records) {
        char line[64];
        const char kind = r.kind == AccessKind::InstructionFetch ? 'I'
            : r.kind == AccessKind::Load ? 'L' : 'S';
        std::snprintf(line, sizeof(line), "%llu %c %08x\n",
                      static_cast<unsigned long long>(r.cycle), kind,
                      r.address);
        text += line;
    }
    return text;
}

std::vector<TraceRecord>
sampleRecords(size_t n, uint64_t first_cycle = 1000000)
{
    std::vector<TraceRecord> records;
    for (size_t i = 0; i < n; ++i)
        records.push_back({first_cycle + 3 * i,
                           static_cast<uint32_t>(0x9e3779b9u * (i + 1)),
                           static_cast<AccessKind>(i % 3)});
    return records;
}

/** Every record `reader` yields, in order. */
std::vector<TraceRecord>
drain(TraceReader &reader)
{
    std::vector<TraceRecord> records;
    TraceRecord record;
    while (reader.next(record))
        records.push_back(record);
    return records;
}

TEST_F(TraceIoTest, RoundTripsRecords)
{
    std::vector<TraceRecord> records = {
        {0, 0x00010000, AccessKind::InstructionFetch},
        {0, 0x20001234, AccessKind::Load},
        {1, 0x00010004, AccessKind::InstructionFetch},
        {7, 0x2fffffff, AccessKind::Store},
        {1000000000ull, 0xffffffff, AccessKind::Load},
    };
    writeTraceFile(path_, records);
    EXPECT_EQ(readTraceFile(path_), records);
}

TEST_F(TraceIoTest, CommentsAndBlankLinesSkipped)
{
    {
        std::ofstream out(path_);
        out << "# header comment\n";
        out << "\n";
        out << "3 I 00010008\n";
        out << "# trailing\n";
    }
    auto records = readTraceFile(path_);
    ASSERT_EQ(records.size(), 1u);
    EXPECT_EQ(records[0].cycle, 3u);
    EXPECT_EQ(records[0].address, 0x10008u);
    EXPECT_EQ(records[0].kind, AccessKind::InstructionFetch);
}

TEST_F(TraceIoTest, WriterEmitsComments)
{
    {
        TraceWriter writer(path_);
        writer.comment("generated by test");
        writer.write({1, 0x20, AccessKind::Load});
        writer.flush();
    }
    auto records = readTraceFile(path_);
    ASSERT_EQ(records.size(), 1u);
    EXPECT_EQ(records[0].kind, AccessKind::Load);
}

TEST_F(TraceIoTest, MalformedLineIsFatal)
{
    {
        std::ofstream out(path_);
        out << "not a record\n";
    }
    setAbortOnError(false);
    EXPECT_THROW(readTraceFile(path_), FatalError);
    setAbortOnError(true);
}

TEST_F(TraceIoTest, UnknownKindIsFatal)
{
    {
        std::ofstream out(path_);
        out << "1 X 00000010\n";
    }
    setAbortOnError(false);
    EXPECT_THROW(readTraceFile(path_), FatalError);
    setAbortOnError(true);
}

TEST_F(TraceIoTest, MissingFileIsFatal)
{
    setAbortOnError(false);
    EXPECT_THROW(TraceReader("/nonexistent/trace.txt"), FatalError);
    setAbortOnError(true);
}

TEST_F(TraceIoTest, BinaryRoundTripsRecords)
{
    std::vector<TraceRecord> records = {
        {0, 0x00010000, AccessKind::InstructionFetch},
        {0, 0x20001234, AccessKind::Load},
        {1, 0x00010004, AccessKind::InstructionFetch},
        {7, 0xfffffff0, AccessKind::Store},
        {0xffffffffffull, 0xffffffff, AccessKind::Load},
    };
    {
        BinaryTraceWriter writer(path_);
        for (const auto &r : records)
            writer.write(r);
        writer.flush();
    }
    BinaryTraceReader reader(path_);
    TraceRecord out;
    for (const auto &expected : records) {
        ASSERT_TRUE(reader.next(out));
        EXPECT_EQ(out, expected);
    }
    EXPECT_FALSE(reader.next(out));
}

TEST_F(TraceIoTest, BinaryIsSmallerThanText)
{
    std::vector<TraceRecord> records;
    for (uint64_t c = 0; c < 1000; ++c)
        records.push_back({c, static_cast<uint32_t>(0x10000 + 4 * c),
                           AccessKind::InstructionFetch});
    writeTraceFile(path_, records);
    std::ifstream text(path_, std::ios::ate | std::ios::binary);
    auto text_size = text.tellg();

    std::string bin_path = path_ + ".bin";
    {
        BinaryTraceWriter writer(bin_path);
        for (const auto &r : records)
            writer.write(r);
        writer.flush();
    }
    std::ifstream bin(bin_path, std::ios::ate | std::ios::binary);
    auto bin_size = bin.tellg();
    EXPECT_LT(bin_size, text_size);
    EXPECT_EQ(static_cast<size_t>(bin_size), 8u + 13u * 1000u);
    std::remove(bin_path.c_str());
}

TEST_F(TraceIoTest, BinaryRejectsGarbage)
{
    {
        std::ofstream out(path_, std::ios::binary);
        out << "not a nanobus trace at all";
    }
    setAbortOnError(false);
    EXPECT_THROW(BinaryTraceReader reader(path_), FatalError);
    setAbortOnError(true);
}

TEST_F(TraceIoTest, BinaryDetectsTruncation)
{
    {
        BinaryTraceWriter writer(path_);
        writer.write({1, 0x10, AccessKind::Load});
        writer.flush();
    }
    // Chop the last byte off.
    std::string data;
    {
        std::ifstream in(path_, std::ios::binary);
        std::ostringstream buf;
        buf << in.rdbuf();
        data = buf.str();
    }
    {
        std::ofstream out(path_, std::ios::binary);
        out.write(data.data(),
                  static_cast<std::streamsize>(data.size() - 1));
    }
    setAbortOnError(false);
    BinaryTraceReader reader(path_);
    TraceRecord out;
    EXPECT_THROW(reader.next(out), FatalError);
    setAbortOnError(true);
}

TEST_F(TraceIoTest, ReaderIsATraceSource)
{
    writeTraceFile(path_, {{2, 0x44, AccessKind::Store}});
    TraceReader reader(path_);
    TraceSource &source = reader;
    TraceRecord out;
    ASSERT_TRUE(source.next(out));
    EXPECT_EQ(out.address, 0x44u);
    EXPECT_FALSE(source.next(out));
}

TEST_F(TraceIoTest, ErrorBudgetSkipsMalformedLines)
{
    {
        std::ofstream out(path_);
        out << "1 I 00010000\n";
        out << "not a record\n";
        out << "2 X 00010004\n"; // unknown kind letter
        out << "3 L 20000000\n";
        out << "4 S\n"; // too few fields
        out << "5 S 20000004\n";
    }
    TraceReader reader(path_, 10);
    TraceRecord out;
    std::vector<uint64_t> cycles;
    while (reader.next(out))
        cycles.push_back(out.cycle);
    EXPECT_EQ(cycles, (std::vector<uint64_t>{1, 3, 5}));
    EXPECT_EQ(reader.skippedLines(), 3u);
    EXPECT_EQ(reader.linesRead(), 6u);
}

TEST_F(TraceIoTest, ExhaustedErrorBudgetIsFatal)
{
    {
        std::ofstream out(path_);
        out << "garbage one\n";
        out << "garbage two\n";
        out << "1 I 00010000\n";
    }
    TraceReader reader(path_, 1);
    setAbortOnError(false);
    TraceRecord out;
    EXPECT_THROW(reader.next(out), FatalError);
    setAbortOnError(true);
    EXPECT_EQ(reader.skippedLines(), 1u);
}

TEST_F(TraceIoTest, ZeroBudgetKeepsStrictBehaviour)
{
    {
        std::ofstream out(path_);
        out << "garbage\n";
    }
    TraceReader reader(path_);
    setAbortOnError(false);
    TraceRecord out;
    EXPECT_THROW(reader.next(out), FatalError);
    setAbortOnError(true);
}

TEST_F(TraceIoTest, UnknownKindEnumValuePanicsOnWrite)
{
    setAbortOnError(false);
    TraceWriter writer(path_);
    TraceRecord bad{1, 0x10, static_cast<AccessKind>(7)};
    EXPECT_THROW(writer.write(bad), FatalError);
    setAbortOnError(true);
}

TEST_F(TraceIoTest, WriterFlushFatalsOnFullDevice)
{
    // /dev/full accepts opens but fails every write with ENOSPC, so
    // the failure latches and flush() must refuse to report success.
    std::ifstream probe("/dev/full");
    if (!probe.good())
        GTEST_SKIP() << "/dev/full not available";
    setAbortOnError(false);
    bool threw = false;
    try {
        TraceWriter writer("/dev/full");
        for (int i = 0; i < 100000 && writer.good(); ++i)
            writer.write({static_cast<uint64_t>(i), 0x10,
                          AccessKind::Load});
        writer.flush();
    } catch (const FatalError &) {
        threw = true;
    }
    setAbortOnError(true);
    EXPECT_TRUE(threw);
}

TEST_F(TraceIoTest, BinaryRejectsTruncatedHeader)
{
    {
        std::ofstream out(path_, std::ios::binary);
        out << "NBT"; // three bytes of an eight-byte header
    }
    setAbortOnError(false);
    EXPECT_THROW(BinaryTraceReader reader(path_), FatalError);
    setAbortOnError(true);
}

TEST_F(TraceIoTest, RecordStraddlingBlockBoundary)
{
    // The 19-byte records start `offset` bytes before the first
    // refill, so one of them is split by it at every offset but 0
    // (a record starts on it) and 19 (a '\n' is the block's last
    // byte). The second copy sits 3 bytes before the next refill,
    // which comes one block after the first split line's start.
    const auto records = sampleRecords(8);
    const std::string body = canonicalText(records);
    for (size_t offset : {0u, 1u, 2u, 7u, 8u, 11u, 18u, 19u, 20u, 21u,
                          40u}) {
        SCOPED_TRACE("offset " + std::to_string(offset));
        std::string text;
        padTo(text, kTraceBlockSize - offset);
        const size_t pad_lines =
            static_cast<size_t>(std::count(text.begin(), text.end(),
                                           '\n'));
        text += body;
        padTo(text, 2 * kTraceBlockSize - offset - 3);
        text += body;
        writeRaw(text);
        TraceReader reader(path_);
        std::vector<TraceRecord> expected = records;
        expected.insert(expected.end(), records.begin(),
                        records.end());
        EXPECT_EQ(drain(reader), expected);
        EXPECT_EQ(reader.linesRead(),
                  static_cast<size_t>(std::count(text.begin(),
                                                 text.end(), '\n')));
        EXPECT_GT(reader.linesRead(), pad_lines);
        EXPECT_EQ(reader.skippedLines(), 0u);
    }
}

TEST_F(TraceIoTest, LineLongerThanBlock)
{
    // A comment, a record with a block of trailing spaces (sscanf
    // ignores them), and a malformed line, each longer than a block.
    const auto records = sampleRecords(3);
    std::string text = "#" + std::string(kTraceBlockSize + 5, 'c') + "\n";
    text += canonicalText({records[0]});
    text += "1000003 L 9e3779b9" + std::string(kTraceBlockSize, ' ') +
        "\n";
    text += "x" + std::string(2 * kTraceBlockSize, 'y') + "\n";
    text += canonicalText({records[2]});
    writeRaw(text);
    TraceReader reader(path_, 1);
    std::vector<TraceRecord> expected = {
        records[0], {1000003, 0x9e3779b9u, AccessKind::Load},
        records[2]};
    EXPECT_EQ(drain(reader), expected);
    EXPECT_EQ(reader.linesRead(), 5u);
    EXPECT_EQ(reader.skippedLines(), 1u);
}

TEST_F(TraceIoTest, FinalLineWithoutNewline)
{
    const auto records = sampleRecords(4);
    std::string body = canonicalText(records);
    body.pop_back();

    writeRaw(body);
    TraceReader small(path_);
    EXPECT_EQ(drain(small), records);
    EXPECT_EQ(small.linesRead(), 4u);

    // The unterminated last line straddles the first refill.
    std::string text;
    padTo(text, kTraceBlockSize - 40);
    text += body;
    writeRaw(text);
    TraceReader large(path_);
    EXPECT_EQ(drain(large), records);
    EXPECT_EQ(large.linesRead(),
              static_cast<size_t>(std::count(text.begin(), text.end(),
                                             '\n')) + 1);
}

TEST_F(TraceIoTest, UnterminatedFinalLineIgnoresStaleBufferTail)
{
    // The first block ends on a line end, so the second read fills
    // the buffer from offset 0 and stops short at end of file. Past
    // that point the buffer still holds the first block's bytes, and
    // at the offsets right after the unterminated final line they are
    // "0d\n": read as part of the line they would make a whole
    // record with address 0x0badf00d. The reader must see only the
    // file's "0badf0". The line is longer than one 16-byte word, so
    // only the checks against the end of the buffered bytes keep the
    // word path off it.
    const auto records = sampleRecords(3);
    const std::string tail =
        canonicalText(records) + "123456789 L 0badf0";
    std::string text = "#" + std::string(tail.size() - 1, 'q') + "0d\n";
    padTo(text, kTraceBlockSize);
    ASSERT_EQ(text.size(), kTraceBlockSize);
    ASSERT_EQ(text.substr(tail.size(), 3), "0d\n");
    const size_t pad_lines =
        static_cast<size_t>(std::count(text.begin(), text.end(), '\n'));
    text += tail;
    writeRaw(text);

    std::vector<TraceRecord> expected = records;
    expected.push_back({123456789, 0x0badf0u, AccessKind::Load});
    TraceReader reader(path_);
    TraceRecord record;
    for (const TraceRecord &want : expected)
        ASSERT_TRUE(reader.next(record) && record == want);
    EXPECT_FALSE(reader.next(record));
    EXPECT_EQ(reader.linesRead(), pad_lines + expected.size());
    EXPECT_EQ(reader.skippedLines(), 0u);
}

TEST_F(TraceIoTest, ReopenMidBufferRereadsPristine)
{
    // ~2.5 blocks of records; stop once mid-first-block and once past
    // the first refill, then reopen and read everything again.
    const auto records = sampleRecords(40000);
    writeTraceFile(path_, records);
    for (size_t stop : {100u, 20000u}) {
        SCOPED_TRACE("stop after " + std::to_string(stop));
        TraceReader reader(path_);
        TraceRecord record;
        for (size_t i = 0; i < stop; ++i)
            ASSERT_TRUE(reader.next(record));
        EXPECT_EQ(record, records[stop - 1]);
        ASSERT_TRUE(reader.reopen().ok());
        EXPECT_EQ(reader.linesRead(), 0u);
        EXPECT_EQ(drain(reader), records);
        EXPECT_EQ(reader.linesRead(), records.size());
    }
}

TEST_F(TraceIoTest, FaultInjectionCorruptsNthRawLineAcrossRefill)
{
    // The corrupted line is the record split by the first refill; the
    // injector counts raw lines, comments included.
    const auto records = sampleRecords(6);
    std::string text;
    padTo(text, kTraceBlockSize - 9);
    const size_t pad_lines =
        static_cast<size_t>(std::count(text.begin(), text.end(), '\n'));
    text += canonicalText(records);
    writeRaw(text);

    FaultInjector &injector = FaultInjector::instance();
    injector.reset();
    injector.armTraceCorruption(pad_lines + 1);
    TraceReader reader(path_, 1);
    const auto got = drain(reader);
    const uint64_t calls = injector.callCount(FaultSite::TraceLine);
    const uint64_t fired = injector.firedCount(FaultSite::TraceLine);
    injector.reset();

    EXPECT_EQ(got, std::vector<TraceRecord>(records.begin() + 1,
                                            records.end()));
    EXPECT_EQ(reader.skippedLines(), 1u);
    EXPECT_EQ(reader.linesRead(), pad_lines + records.size());
    EXPECT_EQ(calls, reader.linesRead());
    EXPECT_EQ(fired, 1u);
}

} // anonymous namespace
} // namespace nanobus
