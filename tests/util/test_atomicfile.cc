/**
 * @file
 * writeFileAtomic tests: contents land intact, existing files are
 * replaced wholesale, no staging file survives a successful publish,
 * and filesystem failure comes back as a typed Status instead of a
 * torn result file.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "util/atomicfile.hh"
#include "temp_path.hh"

namespace nanobus {
namespace {

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
}

bool
exists(const std::string &path)
{
    std::ifstream in(path);
    return in.good();
}

class AtomicFileTest : public ::testing::Test
{
  protected:
    std::string path_ = test::uniqueTempPath("atomicfile_test.txt");

    void TearDown() override
    {
        std::remove(path_.c_str());
        std::remove(atomicTempPath(path_).c_str());
    }
};

TEST_F(AtomicFileTest, WritesContentsVerbatim)
{
    const std::string contents("line one\nline two\n\0binary", 25);
    ASSERT_TRUE(writeFileAtomic(path_, contents).ok());
    EXPECT_EQ(slurp(path_), contents);
}

TEST_F(AtomicFileTest, ReplacesExistingFileWholesale)
{
    ASSERT_TRUE(
        writeFileAtomic(path_, "a very long first version\n").ok());
    ASSERT_TRUE(writeFileAtomic(path_, "v2\n").ok());
    // The shorter second write fully replaces the first: no stale
    // tail, which is exactly what a truncating in-place write cannot
    // guarantee across a crash.
    EXPECT_EQ(slurp(path_), "v2\n");
}

TEST_F(AtomicFileTest, LeavesNoStagingFileBehind)
{
    ASSERT_TRUE(writeFileAtomic(path_, "payload\n").ok());
    EXPECT_TRUE(exists(path_));
    EXPECT_FALSE(exists(atomicTempPath(path_)));
}

TEST_F(AtomicFileTest, StagingPathSharesTargetDirectory)
{
    // The rename must not cross a filesystem boundary, so the
    // staging file has to live next to the target.
    const std::string temp = atomicTempPath("/some/dir/result.json");
    EXPECT_EQ(temp.rfind("/some/dir/", 0), 0u);
    EXPECT_NE(temp, "/some/dir/result.json");
}

TEST_F(AtomicFileTest, UnwritableDirectoryIsIoErrorNotFatal)
{
    const std::string bad =
        ::testing::TempDir() + "/nanobus_no_such_dir/out.json";
    Status written = writeFileAtomic(bad, "data");
    ASSERT_FALSE(written.ok());
    EXPECT_EQ(written.error().code, ErrorCode::IoError);
    EXPECT_FALSE(exists(bad));
}

TEST_F(AtomicFileTest, FailedWriteLeavesOldContentsIntact)
{
    ASSERT_TRUE(writeFileAtomic(path_, "original\n").ok());
    // Sabotage the staging location: a directory where the temp file
    // would go makes the open (or rename) fail, and the published
    // file must be untouched.
    const std::string temp = atomicTempPath(path_);
    ASSERT_EQ(std::system(("mkdir -p '" + temp + "'").c_str()), 0);
    Status written = writeFileAtomic(path_, "replacement\n");
    EXPECT_FALSE(written.ok());
    EXPECT_EQ(slurp(path_), "original\n");
    ASSERT_EQ(std::system(("rmdir '" + temp + "'").c_str()), 0);
}

} // anonymous namespace
} // namespace nanobus
