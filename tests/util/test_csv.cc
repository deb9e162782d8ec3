/**
 * @file
 * Unit tests for util/csv.hh.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "util/csv.hh"
#include "temp_path.hh"

namespace nanobus {
namespace {

std::string
slurp(const std::string &path)
{
    std::ifstream in(path);
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

class CsvTest : public ::testing::Test
{
  protected:
    std::string path_ = test::uniqueTempPath("csv_test.csv");

    void TearDown() override { std::remove(path_.c_str()); }
};

TEST_F(CsvTest, HeaderAndRows)
{
    {
        CsvWriter csv(path_);
        csv.header({"a", "b", "c"});
        csv.beginRow();
        csv.cell(std::string("x"));
        csv.cell(1.5);
        csv.cell(uint64_t{42});
        csv.endRow();
        csv.flush();
    }
    EXPECT_EQ(slurp(path_), "a,b,c\nx,1.5,42\n");
}

TEST_F(CsvTest, QuotesSpecialCharacters)
{
    {
        CsvWriter csv(path_);
        csv.row({"plain", "with,comma", "with\"quote", "with\nnewline"});
        csv.flush();
    }
    EXPECT_EQ(slurp(path_),
              "plain,\"with,comma\",\"with\"\"quote\","
              "\"with\nnewline\"\n");
}

TEST_F(CsvTest, DoubleRoundTripsPrecision)
{
    {
        CsvWriter csv(path_);
        csv.beginRow();
        csv.cell(0.1);
        csv.endRow();
        csv.flush();
    }
    double parsed = 0.0;
    std::sscanf(slurp(path_).c_str(), "%lf", &parsed);
    EXPECT_EQ(parsed, 0.1);
}

TEST_F(CsvTest, EmptyRowProducesBlankLine)
{
    {
        CsvWriter csv(path_);
        csv.beginRow();
        csv.endRow();
        csv.flush();
    }
    EXPECT_EQ(slurp(path_), "\n");
}

} // anonymous namespace
} // namespace nanobus
