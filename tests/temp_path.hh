/**
 * @file
 * Per-test temp file names. gtest_discover_tests runs every TEST in
 * its own process and `ctest -j` runs those processes side by side,
 * so a fixed name under ::testing::TempDir() is shared between tests:
 * one test's TearDown deletes the file another is still reading.
 * uniqueTempPath() names the file after the running test and the
 * process instead.
 */

#ifndef NANOBUS_TESTS_TEMP_PATH_HH
#define NANOBUS_TESTS_TEMP_PATH_HH

#include <gtest/gtest.h>
#include <unistd.h>

#include <cctype>
#include <string>

namespace nanobus {
namespace test {

/**
 * ::testing::TempDir() + "/nanobus_<suite>.<test>.<pid>_<stem>", with
 * characters outside [A-Za-z0-9._-] (the '/' of parameterized names)
 * mapped to '_'. Call it while a test runs: from the test body, the
 * fixture's constructor or its SetUp.
 */
inline std::string
uniqueTempPath(const std::string &stem)
{
    const ::testing::TestInfo *info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    std::string name = std::string(info->test_suite_name()) + "." +
        info->name() + "." + std::to_string(::getpid()) + "_" + stem;
    for (char &c : name) {
        const unsigned char u = static_cast<unsigned char>(c);
        if (!std::isalnum(u) && c != '.' && c != '_' && c != '-')
            c = '_';
    }
    return ::testing::TempDir() + "/nanobus_" + name;
}

} // namespace test
} // namespace nanobus

#endif // NANOBUS_TESTS_TEMP_PATH_HH
