/**
 * @file
 * Seeded differential fuzz test of TraceReader's text parser against
 * the getline + sscanf reader it replaced.
 *
 * ReferenceTraceReader below is that reader kept verbatim: one
 * std::getline per line and the "%" SCNu64 " %c %x" sscanf grammar.
 * TraceReader reads blocks, frames lines with memchr and parses the
 * writer's canonical form by hand, handing every other line to the
 * same sscanf. Each case writes a trace with TraceWriter, applies
 * seeded edits to its bytes (bit flips, inserted and deleted blanks,
 * signs, 0x prefixes, 20-digit and overflowing cycles, 9+ and 17+
 * hex digits, CRLF and bare CR lines, embedded NULs, comments, empty
 * lines, trailing text, a missing final newline, a line longer than
 * one block) and requires both readers to agree at error budgets 0,
 * 1 and unlimited: the same records in order, the same skippedLines()
 * and linesRead(), the same FatalError, and the same log messages.
 *
 * Reproducing a failure: every case logs its seed; replay one with
 *
 *   NANOBUS_FUZZ_SEED=<seed> ./tests/test_trace_parser_fuzz
 *
 * NANOBUS_FUZZ_CASES overrides the case count (default 300).
 */

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "trace/io.hh"
#include "util/faultinject.hh"
#include "util/logging.hh"
#include "util/random.hh"
#include "temp_path.hh"

namespace nanobus {
namespace {

/** Number of individually warned skips before going quiet. */
constexpr size_t skip_warn_limit = 5;

bool
kindFromLetter(char c, AccessKind &kind)
{
    switch (c) {
      case 'I': kind = AccessKind::InstructionFetch; return true;
      case 'L': kind = AccessKind::Load;             return true;
      case 'S': kind = AccessKind::Store;            return true;
      default:  return false;
    }
}

/** The text trace reader TraceReader must reproduce, kept as it was
 *  before block reads and the hand-parsed fast path. */
class ReferenceTraceReader : public TraceSource
{
  public:
    ReferenceTraceReader(const std::string &path, size_t error_budget)
        : in_(path), path_(path), error_budget_(error_budget)
    {
        if (!in_)
            fatal("TraceReader: cannot open '%s'", path.c_str());
    }

    bool next(TraceRecord &out) override
    {
        std::string line;
        while (std::getline(in_, line)) {
            ++line_;
            if (FaultInjector::active())
                FaultInjector::instance().corruptLine(line);
            if (line.empty() || line[0] == '#')
                continue;
            uint64_t cycle = 0;
            char kind_char = 0;
            unsigned address = 0;
            AccessKind kind = AccessKind::InstructionFetch;
            bool parsed =
                std::sscanf(line.c_str(), "%" SCNu64 " %c %x",
                            &cycle, &kind_char, &address) == 3 &&
                kindFromLetter(kind_char, kind);
            if (!parsed) {
                if (skipped_ >= error_budget_)
                    fatal("TraceReader: %s:%zu: malformed record '%s' "
                          "(%zu already skipped, budget %zu)",
                          path_.c_str(), line_, line.c_str(), skipped_,
                          error_budget_);
                ++skipped_;
                if (skipped_ <= skip_warn_limit)
                    warn("TraceReader: %s:%zu: skipping malformed record "
                         "'%s' (%zu/%zu)", path_.c_str(), line_,
                         line.c_str(), skipped_, error_budget_);
                if (skipped_ == skip_warn_limit && error_budget_ > skip_warn_limit)
                    warn("TraceReader: %s: further skips reported only "
                         "via skippedLines()", path_.c_str());
                continue;
            }
            out.cycle = cycle;
            out.kind = kind;
            out.address = address;
            return true;
        }
        if (skipped_ > 0)
            inform("TraceReader: %s: skipped %zu malformed line(s) of %zu",
                   path_.c_str(), skipped_, line_);
        return false;
    }

    size_t skippedLines() const { return skipped_; }
    size_t linesRead() const { return line_; }

  private:
    std::ifstream in_;
    std::string path_;
    size_t line_ = 0;
    size_t error_budget_ = 0;
    size_t skipped_ = 0;
};

/** Log lines captured while a reader runs. */
std::vector<std::string> *captured = nullptr;

void
captureLog(LogLevel level, const std::string &message)
{
    captured->push_back(std::to_string(static_cast<int>(level)) + ": " +
                        message);
}

/** Everything observable about draining one reader. */
struct Outcome
{
    std::vector<TraceRecord> records;
    size_t skipped = 0;
    size_t lines = 0;
    bool fatal = false;
    std::string fatal_message;
    std::vector<std::string> log;
};

template <class Reader>
Outcome
drain(const std::string &path, size_t budget)
{
    Outcome outcome;
    captured = &outcome.log;
    const LogHook previous = setLogHook(captureLog);
    setAbortOnError(false);
    {
        Reader reader(path, budget);
        try {
            TraceRecord record;
            while (reader.next(record))
                outcome.records.push_back(record);
            // A drained reader stays drained.
            if (reader.next(record))
                outcome.records.push_back(record);
        } catch (const FatalError &error) {
            outcome.fatal = true;
            outcome.fatal_message = error.message;
        }
        outcome.skipped = reader.skippedLines();
        outcome.lines = reader.linesRead();
    }
    setAbortOnError(true);
    setLogHook(previous);
    captured = nullptr;
    return outcome;
}

std::string
randomDigits(Rng &rng, size_t n, const char *alphabet, size_t size)
{
    std::string digits;
    for (size_t i = 0; i < n; ++i)
        digits += alphabet[rng.below(size)];
    return digits;
}

/** One seeded edit of a (usually canonical) record line. */
void
mutateLine(Rng &rng, std::string &line)
{
    static const char *const hex = "0123456789abcdefABCDEF";
    const size_t first_space = line.find(' ');
    const size_t last_space = line.rfind(' ');
    const bool fields = first_space != std::string::npos &&
        last_space != first_space;
    auto at = [&] { return rng.below(line.size() + 1); };
    switch (rng.below(16)) {
      case 0: // bit flip
        if (!line.empty())
            line[rng.below(line.size())] ^=
                static_cast<char>(1u << rng.below(8));
        break;
      case 1: // inserted blank
        line.insert(at(), 1, rng.chance(0.5) ? ' ' : '\t');
        break;
      case 2: // deleted byte, often a separator
        if (fields && rng.chance(0.5))
            line.erase(rng.chance(0.5) ? first_space : last_space, 1);
        else if (!line.empty())
            line.erase(rng.below(line.size()), 1);
        break;
      case 3: // sign on either number
        line.insert(fields && rng.chance(0.5) ? last_space + 1 : 0, 1,
                    rng.chance(0.5) ? '+' : '-');
        break;
      case 4: // 0x prefix on either number
        line.insert(fields && rng.chance(0.5) ? last_space + 1 : 0,
                    rng.chance(0.5) ? "0x" : "0X");
        break;
      case 5: { // 19-21 digit cycles, in and out of uint64_t range
        static const char *const wide[] = {
            "9999999999999999999", "18446744073709551615",
            "18446744073709551616", "99999999999999999999",
            "00000000000000000001", "000000000000000000000042",
            "123456789012345678901"};
        const std::string cycle = rng.chance(0.5)
            ? wide[rng.below(std::size(wide))]
            : randomDigits(rng, 18 + rng.below(4), "0123456789", 10);
        line.replace(0, fields ? first_space : 0, cycle);
        break;
      }
      case 6: { // 9+ and 17+ hex digits
        const size_t n = rng.chance(0.5) ? 9 + rng.below(4)
                                         : 16 + rng.below(4);
        const std::string address = randomDigits(rng, n, hex, 22);
        if (fields)
            line.replace(last_space + 1, std::string::npos, address);
        else
            line += address;
        break;
      }
      case 7: { // CR endings and stray CRs
        static const char *const tails[] = {"\r", "\r", "\r\r", "\r ",
                                            " \r", "\rx"};
        line += tails[rng.below(std::size(tails))];
        break;
      }
      case 8: // embedded NUL
        line.insert(at(), 1, '\0');
        break;
      case 9: { // trailing text
        static const char *const tails[] = {" junk", "x", "#", " 12",
                                            "g", "\t"};
        line += tails[rng.below(std::size(tails))];
        break;
      }
      case 10: // another kind letter
        if (fields)
            line[first_space + 1] = "ILSilsX#0 \r"[rng.below(11)];
        break;
      case 11: // leading blank
        line.insert(0, 1, rng.chance(0.5) ? ' ' : '\t');
        break;
      case 12: // case-toggled or shortened address
        if (fields && rng.chance(0.5)) {
            for (size_t i = last_space + 1; i < line.size(); ++i)
                if (line[i] >= 'a' && line[i] <= 'f')
                    line[i] = static_cast<char>(line[i] - 'a' + 'A');
        } else if (fields) {
            line.erase(last_space + 1, rng.below(9));
        }
        break;
      case 13: // truncated anywhere
        line.resize(rng.below(line.size() + 1));
        break;
      case 14: { // random bytes, never '\n'
        line.clear();
        const size_t n = rng.below(24);
        for (size_t i = 0; i < n; ++i) {
            char c = static_cast<char>(rng.below(256));
            line += c == '\n' ? '\r' : c;
        }
        break;
      }
      default: // extra spaces between fields
        if (fields)
            line.insert(rng.chance(0.5) ? first_space : last_space,
                        1 + rng.below(3), ' ');
        break;
    }
}

/** A line longer than one block: a comment, a record with a block of
 *  trailing blanks, or garbage. */
std::string
longLine(Rng &rng)
{
    const size_t n = kTraceBlockSize + rng.below(2 * kTraceBlockSize);
    switch (rng.below(3)) {
      case 0: return "#" + std::string(n, 'c');
      case 1:
        return "77 S 0badf00d" +
            std::string(n, rng.chance(0.5) ? ' ' : '\t');
      default: return std::string(n, 'z');
    }
}

/** Write a TraceWriter trace for `seed` to `path`, then edit its
 *  bytes in place. */
void
mutatedTrace(uint64_t seed, const std::string &path)
{
    Rng rng(seed);
    const size_t records = rng.chance(0.125)
        ? 14000 + rng.below(8000) // crosses at least one refill
        : rng.below(300);
    {
        TraceWriter writer(path);
        if (rng.chance(0.5))
            writer.comment("seed " + std::to_string(seed));
        uint64_t cycle = rng.below(uint64_t{1} << rng.below(63));
        for (size_t i = 0; i < records; ++i) {
            cycle += rng.below(4);
            writer.write({cycle, static_cast<uint32_t>(rng.next()),
                          static_cast<AccessKind>(rng.below(3))});
        }
        writer.flush();
    }
    std::string text;
    {
        std::ifstream in(path, std::ios::binary);
        std::ostringstream bytes;
        bytes << in.rdbuf();
        text = bytes.str();
    }

    std::vector<std::string> lines;
    for (size_t start = 0; start < text.size();) {
        const size_t nl = text.find('\n', start);
        lines.push_back(text.substr(start, nl - start));
        start = nl + 1;
    }
    const double rate = rng.uniform(0.0, 0.3);
    std::vector<std::string> edited;
    for (std::string &line : lines) {
        if (rng.chance(0.02))
            edited.push_back(rng.chance(0.5) ? "" : "# note");
        if (rng.chance(0.01))
            edited.push_back(rng.chance(0.5) ? "\r" : "#\r");
        if (rng.chance(rate)) {
            mutateLine(rng, line);
            if (rng.chance(0.2))
                mutateLine(rng, line);
        }
        edited.push_back(std::move(line));
    }
    if (rng.chance(1.0 / 16))
        edited.insert(edited.begin() + static_cast<std::ptrdiff_t>(
                          rng.below(edited.size() + 1)),
                      longLine(rng));

    std::string out;
    for (const std::string &line : edited)
        out += line + '\n';
    if (!out.empty() && rng.chance(0.25))
        out.pop_back(); // no final newline
    {
        std::ofstream file(path, std::ios::binary | std::ios::trunc);
        file << out;
    }
}

void
expectSameOutcome(const Outcome &want, const Outcome &got)
{
    ASSERT_EQ(got.records.size(), want.records.size());
    for (size_t i = 0; i < want.records.size(); ++i) {
        SCOPED_TRACE("record " + std::to_string(i));
        EXPECT_EQ(got.records[i].cycle, want.records[i].cycle);
        EXPECT_EQ(got.records[i].address, want.records[i].address);
        EXPECT_EQ(got.records[i].kind, want.records[i].kind);
    }
    EXPECT_EQ(got.skipped, want.skipped);
    EXPECT_EQ(got.lines, want.lines);
    EXPECT_EQ(got.fatal, want.fatal);
    EXPECT_EQ(got.fatal_message, want.fatal_message);
    EXPECT_EQ(got.log, want.log);
}

void
runCase(uint64_t seed)
{
    SCOPED_TRACE("NANOBUS_FUZZ_SEED=" + std::to_string(seed));
    const std::string path = test::uniqueTempPath("fuzz.trace");
    mutatedTrace(seed, path);
    for (size_t budget : {size_t{0}, size_t{1},
                          std::numeric_limits<size_t>::max()}) {
        SCOPED_TRACE("budget " + std::to_string(budget));
        const Outcome want = drain<ReferenceTraceReader>(path, budget);
        const Outcome got = drain<TraceReader>(path, budget);
        expectSameOutcome(want, got);
    }
    std::remove(path.c_str());
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

TEST(TraceParserFuzz, MatchesGetlineSscanfReader)
{
    if (const char *pinned = std::getenv("NANOBUS_FUZZ_SEED")) {
        if (*pinned != '\0') {
            runCase(envU64("NANOBUS_FUZZ_SEED", 0));
            return;
        }
    }
    const uint64_t cases = envU64("NANOBUS_FUZZ_CASES", 300);
    const uint64_t base = 0x7ace0000;
    for (uint64_t i = 0; i < cases; ++i) {
        runCase(base + i);
        if (::testing::Test::HasFailure())
            break; // the SCOPED_TRACE above already named the seed
    }
}

TEST(TraceParserFuzz, GeneratorCoversSkipsAndFatals)
{
    // Guard against a generator that stopped producing the inputs the
    // comparison above needs: the first default seeds must yield
    // records, skipped lines and fatal errors at budget 0.
    size_t records = 0, skipped = 0, fatals = 0;
    for (uint64_t seed = 0x7ace0000; seed < 0x7ace0000 + 40; ++seed) {
        const std::string path = test::uniqueTempPath("fuzz.trace");
        mutatedTrace(seed, path);
        const Outcome strict = drain<TraceReader>(path, 0);
        const Outcome lax = drain<TraceReader>(
            path, std::numeric_limits<size_t>::max());
        records += lax.records.size();
        skipped += lax.skipped;
        fatals += strict.fatal;
        std::remove(path.c_str());
    }
    EXPECT_GT(records, 1000u);
    EXPECT_GT(skipped, 100u);
    EXPECT_GT(fatals, 10u);
}

} // namespace
} // namespace nanobus
