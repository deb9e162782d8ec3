/**
 * @file
 * Seeded mutation fuzz test of the twin-bus checkpoint decoder.
 *
 * Each case takes a real encodeTwinSnapshot payload (one of several
 * encoder/kernel configurations, with recorded samples and contained
 * thermal faults so every variable-length section is present),
 * applies seeded mutations — bit flips, truncations, appended bytes
 * and length fields overwritten with huge or off-by-one counts — and
 * feeds the result to:
 *
 *  - decodeTwinSnapshot, the payload decoder that sits behind the
 *    container CRC;
 *  - loadTwinCheckpoint on a well-formed container around the mutated
 *    payload (valid CRC, so the decoder runs);
 *  - loadTwinCheckpoint on a container file whose own bytes (header
 *    included) were mutated.
 *
 * Every case must come back OK or as a typed ParseError /
 * InvalidArgument; none may crash, read out of bounds or allocate
 * more than the payload can describe (run it under
 * -DNANOBUS_SANITIZE=address or undefined to check the latter two).
 *
 * Reproducing a failure: every case logs its seed; replay one with
 *
 *   NANOBUS_FUZZ_SEED=<seed> ./tests/test_checkpoint_fuzz
 *
 * NANOBUS_FUZZ_CASES overrides the case count (default 400).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "sim/snapshot.hh"
#include "trace/record.hh"
#include "util/checkpoint.hh"
#include "util/logging.hh"
#include "util/random.hh"
#include "temp_path.hh"

namespace nanobus {
namespace {

const TechnologyNode &tech130 = itrsNode(ItrsNode::Nm130);

/** One base configuration plus its pristine payload. */
struct Base
{
    BusSimConfig config;
    std::string payload;
};

BusSimConfig
baseConfig(EncodingScheme scheme, TransitionKernel kernel)
{
    BusSimConfig config;
    config.scheme = scheme;
    config.kernel = kernel;
    config.data_width = 16;
    config.interval_cycles = 400;
    config.record_samples = true;
    config.thermal.stack_mode = StackMode::None;
    // A ceiling a hair above ambient trips on real traffic, so the
    // payload carries thermal faults with messages.
    config.thermal.temperature_ceiling =
        config.initial_temperature + Kelvin{1e-4};
    return config;
}

void
quietLog(LogLevel, const std::string &)
{
}

/** Pristine payloads, built once: every encoder's state shape, both
 *  transition kernels. */
const std::vector<Base> &
bases()
{
    static const std::vector<Base> all = [] {
        const LogHook previous = setLogHook(quietLog);
        std::vector<TraceRecord> records;
        uint32_t address = 0x1234u;
        for (uint64_t c = 0; c < 1200; ++c) {
            address = address * 1664525u + 1013904223u;
            const AccessKind kind = (c % 3 == 0)
                ? AccessKind::InstructionFetch
                : ((c % 3 == 1) ? AccessKind::Load
                                : AccessKind::Store);
            records.push_back({c, address, kind});
        }
        std::vector<Base> out;
        for (EncodingScheme scheme : paperSchemes()) {
            for (TransitionKernel kernel :
                 {TransitionKernel::Scalar, TransitionKernel::Packed}) {
                Base base;
                base.config = baseConfig(scheme, kernel);
                TwinBusSimulator twin(tech130, base.config);
                VectorTraceSource source(records);
                twin.runPerRecord(source);
                base.payload =
                    encodeTwinSnapshot(twin, SimCheckpoint{1200, 1199});
                out.push_back(std::move(base));
            }
        }
        setLogHook(previous);
        return out;
    }();
    return all;
}

void
putLe64(std::string &bytes, size_t offset, uint64_t value)
{
    for (size_t i = 0; i < 8 && offset + i < bytes.size(); ++i)
        bytes[offset + i] = static_cast<char>((value >> (8 * i)) & 0xff);
}

uint64_t
getLe64(const std::string &bytes, size_t offset)
{
    uint64_t value = 0;
    for (size_t i = 0; i < 8 && offset + i < bytes.size(); ++i)
        value |= static_cast<uint64_t>(
                     static_cast<unsigned char>(bytes[offset + i]))
            << (8 * i);
    return value;
}

/**
 * Offset of a length field of the first bus's payload: the encoder
 * name's length prefix (after the 16-byte cursor) or the encoder
 * state word count that follows the identity guard.
 */
size_t
knownLengthOffset(const std::string &payload, Rng &rng)
{
    const size_t name_len_at = 16;
    if (rng.chance(0.5) || payload.size() < name_len_at + 8)
        return name_len_at;
    const uint64_t name_len = getLe64(payload, name_len_at);
    // name bytes, bus width, data width, interval, kernel tag.
    return name_len_at + 8 + static_cast<size_t>(name_len) + 4 + 4 +
        8 + 4;
}

/** Overwrite a (known or random) 8-byte field with a hostile count. */
void
corruptLength(std::string &bytes, Rng &rng)
{
    if (bytes.size() < 8)
        return;
    const size_t offset = rng.chance(0.3)
        ? knownLengthOffset(bytes, rng)
        : static_cast<size_t>(rng.below(bytes.size() - 7)) & ~size_t{3};
    const uint64_t original = getLe64(bytes, offset);
    const uint64_t hostile[] = {
        std::numeric_limits<uint64_t>::max(),
        uint64_t{1} << 63,
        uint64_t{1} << 40,
        uint64_t{1} << 32,
        uint64_t{0x7fffffff},
        bytes.size(),
        bytes.size() / 8 + 1,
        original + 1,
        original - 1,
        0,
    };
    putLe64(bytes, offset,
            hostile[rng.below(sizeof(hostile) / sizeof(hostile[0]))]);
}

/** Apply 1-3 seeded mutations to `bytes`. */
void
mutate(std::string &bytes, Rng &rng)
{
    const uint64_t edits = 1 + rng.below(3);
    for (uint64_t e = 0; e < edits; ++e) {
        switch (rng.below(4)) {
          case 0: // bit flip
            if (!bytes.empty()) {
                const size_t at =
                    static_cast<size_t>(rng.below(bytes.size()));
                bytes[at] = static_cast<char>(
                    bytes[at] ^ (1 << rng.below(8)));
            }
            break;
          case 1: // truncation
            bytes.resize(static_cast<size_t>(
                rng.below(bytes.size() + 1)));
            break;
          case 2: // appended bytes
            for (uint64_t n = 1 + rng.below(64); n > 0; --n)
                bytes.push_back(static_cast<char>(rng.below(256)));
            break;
          default:
            corruptLength(bytes, rng);
            break;
        }
    }
}

/** Tally of decode outcomes, for the coverage check. */
struct Tally
{
    size_t ok = 0;
    size_t parse = 0;
    size_t invalid = 0;
};

void
expectTyped(const Status &status, const char *what, Tally &tally)
{
    if (status.ok()) {
        ++tally.ok;
        return;
    }
    const ErrorCode code = status.error().code;
    EXPECT_TRUE(code == ErrorCode::ParseError ||
                code == ErrorCode::InvalidArgument)
        << what << ": " << status.error().describe();
    if (code == ErrorCode::ParseError)
        ++tally.parse;
    else if (code == ErrorCode::InvalidArgument)
        ++tally.invalid;
}

Status
asStatus(const Result<SimCheckpoint> &result)
{
    return result.ok() ? Status() : Status(result.error());
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream bytes;
    bytes << in.rdbuf();
    return bytes.str();
}

void
runCase(uint64_t seed, Tally &tally)
{
    SCOPED_TRACE("NANOBUS_FUZZ_SEED=" + std::to_string(seed));
    Rng rng(seed);
    const Base &base = bases()[rng.below(bases().size())];
    const LogHook previous = setLogHook(quietLog);

    std::string payload = base.payload;
    mutate(payload, rng);
    {
        TwinBusSimulator twin(tech130, base.config);
        SimCheckpoint cursor;
        expectTyped(decodeTwinSnapshot(payload, twin, cursor),
                    "decodeTwinSnapshot", tally);
    }

    const std::string path = test::uniqueTempPath("fuzz.ckpt");
    ASSERT_TRUE(saveSnapshotFile(path, payload).ok());
    {
        TwinBusSimulator twin(tech130, base.config);
        expectTyped(asStatus(loadTwinCheckpoint(path, twin)),
                    "loadTwinCheckpoint (mutated payload)", tally);
    }

    // Mutate the container file itself: header fields included.
    ASSERT_TRUE(saveSnapshotFile(path, base.payload).ok());
    std::string file = slurp(path);
    mutate(file, rng);
    {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out.write(file.data(), static_cast<std::streamsize>(file.size()));
    }
    {
        TwinBusSimulator twin(tech130, base.config);
        expectTyped(asStatus(loadTwinCheckpoint(path, twin)),
                    "loadTwinCheckpoint (mutated file)", tally);
    }
    std::remove(path.c_str());
    setLogHook(previous);
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

TEST(CheckpointFuzz, PristinePayloadsDecode)
{
    // Guard against vacuous mutation cases: every base round-trips.
    for (const Base &base : bases()) {
        TwinBusSimulator twin(tech130, base.config);
        SimCheckpoint cursor;
        const Status decoded =
            decodeTwinSnapshot(base.payload, twin, cursor);
        EXPECT_TRUE(decoded.ok()) << decoded.error().describe();
        EXPECT_EQ(cursor.records, 1200u);
        // Every variable-length section is populated.
        EXPECT_FALSE(twin.dataBus().samples().empty());
        EXPECT_FALSE(twin.dataBus().thermalFaults().empty());
    }
}

TEST(CheckpointFuzz, MutatedCheckpointsFailTyped)
{
    Tally tally;
    if (const char *pinned = std::getenv("NANOBUS_FUZZ_SEED")) {
        if (*pinned != '\0') {
            runCase(envU64("NANOBUS_FUZZ_SEED", 0), tally);
            return;
        }
    }
    const uint64_t cases = envU64("NANOBUS_FUZZ_CASES", 400);
    const uint64_t base = 0xc4ec0000;
    for (uint64_t i = 0; i < cases; ++i) {
        runCase(base + i, tally);
        if (::testing::Test::HasFailure())
            break; // the SCOPED_TRACE above already named the seed
    }
    // The mutator must keep reaching every outcome class.
    if (cases >= 100) {
        EXPECT_GT(tally.ok, 0u);
        EXPECT_GT(tally.parse, 10u);
        EXPECT_GT(tally.invalid, 10u);
    }
}

TEST(CheckpointFuzz, HugeCountAtEveryOffsetIsBounded)
{
    // Exhaustive length-field sweep over one payload: a hostile count
    // written at every 4-byte boundary (u32 fields shift alignment)
    // must be rejected or harmless, never allocated.
    const LogHook previous = setLogHook(quietLog);
    // OEBI is the widest bus (data + 2 lines), so it carries the
    // largest per-line state; scalar kernel.
    const Base *widest = nullptr;
    for (const Base &candidate : bases())
        if (candidate.config.scheme ==
                EncodingScheme::OddEvenBusInvert &&
            candidate.config.kernel == TransitionKernel::Scalar)
            widest = &candidate;
    ASSERT_NE(widest, nullptr);
    const Base &base = *widest;
    TwinBusSimulator twin(tech130, base.config);
    Tally tally;
    for (uint64_t hostile :
         {std::numeric_limits<uint64_t>::max(), uint64_t{1} << 40,
          uint64_t{1} << 28}) {
        for (size_t offset = 0; offset + 8 <= base.payload.size();
             offset += 4) {
            std::string payload = base.payload;
            putLe64(payload, offset, hostile);
            SimCheckpoint cursor;
            expectTyped(decodeTwinSnapshot(payload, twin, cursor),
                        "decodeTwinSnapshot", tally);
            if (::testing::Test::HasFailure()) {
                ADD_FAILURE() << "offset " << offset << " value "
                              << hostile;
                setLogHook(previous);
                return;
            }
        }
    }
    setLogHook(previous);
    EXPECT_GT(tally.parse, 0u);
}

} // namespace
} // namespace nanobus
