/**
 * @file
 * Snapshot container tests: SnapshotWriter/Reader round-trips are
 * bit-exact (doubles travel as IEEE-754 bit patterns), short reads
 * surface as ParseError, and the NBCK file container rejects bad
 * magic, foreign versions, truncation, and CRC damage instead of
 * resuming garbage.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>

#include "util/checkpoint.hh"
#include "temp_path.hh"

namespace nanobus {
namespace {

uint64_t
bitsOf(double value)
{
    uint64_t bits;
    std::memcpy(&bits, &value, sizeof bits);
    return bits;
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
}

void
spit(const std::string &path, const std::string &contents)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(contents.data(),
              static_cast<std::streamsize>(contents.size()));
}

TEST(SnapshotWireTest, ScalarRoundTripIsExact)
{
    SnapshotWriter w;
    w.putU32(0xdeadbeefu);
    w.putU64(0x0123456789abcdefull);
    w.putF64(3.141592653589793);
    w.putBool(true);
    w.putString("twin/ia");

    SnapshotReader r(w.buffer());
    uint32_t u32 = 0;
    uint64_t u64 = 0;
    double f64 = 0.0;
    bool flag = false;
    std::string text;
    ASSERT_TRUE(r.getU32(u32).ok());
    ASSERT_TRUE(r.getU64(u64).ok());
    ASSERT_TRUE(r.getF64(f64).ok());
    ASSERT_TRUE(r.getBool(flag).ok());
    ASSERT_TRUE(r.getString(text).ok());
    EXPECT_EQ(u32, 0xdeadbeefu);
    EXPECT_EQ(u64, 0x0123456789abcdefull);
    EXPECT_EQ(bitsOf(f64), bitsOf(3.141592653589793));
    EXPECT_TRUE(flag);
    EXPECT_EQ(text, "twin/ia");
    EXPECT_TRUE(r.atEnd());
    EXPECT_EQ(r.remaining(), 0u);
}

TEST(SnapshotWireTest, DoublesSurviveAsBitPatterns)
{
    // The cases a print/parse round-trip mangles: negative zero,
    // denormals, infinities, and a NaN payload.
    const double cases[] = {
        -0.0,
        std::numeric_limits<double>::denorm_min(),
        std::numeric_limits<double>::infinity(),
        -std::numeric_limits<double>::infinity(),
        std::numeric_limits<double>::quiet_NaN(),
        1.0 + std::numeric_limits<double>::epsilon(),
    };
    SnapshotWriter w;
    for (double value : cases)
        w.putF64(value);
    SnapshotReader r(w.buffer());
    for (double value : cases) {
        double restored = 0.0;
        ASSERT_TRUE(r.getF64(restored).ok());
        EXPECT_EQ(bitsOf(restored), bitsOf(value));
    }
}

TEST(SnapshotWireTest, ShortReadIsParseError)
{
    SnapshotWriter w;
    w.putU32(7);
    SnapshotReader r(w.buffer());
    uint64_t u64 = 0;
    Status read = r.getU64(u64);
    ASSERT_FALSE(read.ok());
    EXPECT_EQ(read.error().code, ErrorCode::ParseError);
}

TEST(SnapshotWireTest, StringLengthBeyondBufferIsParseError)
{
    SnapshotWriter w;
    w.putString("abcdef");
    // Chop the payload so the declared length overruns the buffer.
    std::string damaged = w.buffer().substr(0, w.buffer().size() - 2);
    SnapshotReader r(damaged);
    std::string text;
    Status read = r.getString(text);
    ASSERT_FALSE(read.ok());
    EXPECT_EQ(read.error().code, ErrorCode::ParseError);
}

TEST(SnapshotWireTest, Crc32MatchesKnownVectorAndChunks)
{
    // IEEE 802.3 reference vector.
    const char *check = "123456789";
    EXPECT_EQ(crc32(check, 9), 0xcbf43926u);
    // Chunked checksumming continues from the seed.
    uint32_t chunked = crc32(check, 4);
    chunked = crc32(check + 4, 5, chunked);
    EXPECT_EQ(chunked, 0xcbf43926u);
}

class SnapshotFileTest : public ::testing::Test
{
  protected:
    std::string path_ = test::uniqueTempPath("checkpoint_test.ckpt");
    std::string payload_ = std::string("payload \0 bytes", 15);

    void TearDown() override { std::remove(path_.c_str()); }

    /** Write the container, mutate one byte at `offset`, rewrite. */
    void corruptByte(size_t offset)
    {
        std::string file = slurp(path_);
        ASSERT_LT(offset, file.size());
        file[offset] = static_cast<char>(file[offset] ^ 0x01);
        spit(path_, file);
    }
};

TEST_F(SnapshotFileTest, SaveLoadRoundTrip)
{
    ASSERT_TRUE(saveSnapshotFile(path_, payload_).ok());
    Result<std::string> loaded = loadSnapshotFile(path_);
    ASSERT_TRUE(loaded.ok());
    EXPECT_EQ(loaded.value(), payload_);
}

TEST_F(SnapshotFileTest, MissingFileIsIoError)
{
    Result<std::string> loaded =
        loadSnapshotFile(path_ + ".does-not-exist");
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.error().code, ErrorCode::IoError);
}

TEST_F(SnapshotFileTest, BadMagicIsParseError)
{
    ASSERT_TRUE(saveSnapshotFile(path_, payload_).ok());
    corruptByte(0);
    Result<std::string> loaded = loadSnapshotFile(path_);
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.error().code, ErrorCode::ParseError);
}

TEST_F(SnapshotFileTest, ForeignVersionIsParseError)
{
    ASSERT_TRUE(saveSnapshotFile(path_, payload_).ok());
    // Version field: little-endian u32 at offset 4.
    corruptByte(4);
    Result<std::string> loaded = loadSnapshotFile(path_);
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.error().code, ErrorCode::ParseError);
    EXPECT_NE(loaded.error().message.find("version"),
              std::string::npos);
}

TEST_F(SnapshotFileTest, PayloadBitRotIsParseError)
{
    ASSERT_TRUE(saveSnapshotFile(path_, payload_).ok());
    // Header is magic(4) + version(4) + length(8) + crc(4); flip a
    // payload bit and the CRC must catch it.
    corruptByte(20);
    Result<std::string> loaded = loadSnapshotFile(path_);
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.error().code, ErrorCode::ParseError);
}

TEST_F(SnapshotFileTest, TruncatedPayloadIsParseError)
{
    ASSERT_TRUE(saveSnapshotFile(path_, payload_).ok());
    std::string file = slurp(path_);
    spit(path_, file.substr(0, file.size() - 3));
    Result<std::string> loaded = loadSnapshotFile(path_);
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.error().code, ErrorCode::ParseError);
}

TEST_F(SnapshotFileTest, TruncatedHeaderIsParseError)
{
    spit(path_, "NBCK");
    Result<std::string> loaded = loadSnapshotFile(path_);
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.error().code, ErrorCode::ParseError);
}

TEST_F(SnapshotFileTest, EmptyPayloadRoundTrips)
{
    ASSERT_TRUE(saveSnapshotFile(path_, "").ok());
    Result<std::string> loaded = loadSnapshotFile(path_);
    ASSERT_TRUE(loaded.ok());
    EXPECT_TRUE(loaded.value().empty());
}

} // anonymous namespace
} // namespace nanobus
