/**
 * @file
 * Versioned, CRC-guarded snapshot containers for checkpoint/resume.
 *
 * Long sweeps (the paper replays 300M-cycle traces; the ROADMAP's
 * fleet-scale direction multiplies that by thousands of shards) must
 * survive process death. The persistence layer here is deliberately
 * dumb and explicit:
 *
 *  - SnapshotWriter/SnapshotReader serialize scalars and byte runs
 *    in a fixed little-endian wire order, independent of host
 *    endianness or struct layout, so a snapshot is bit-stable across
 *    toolchains. Doubles travel as their IEEE-754 bit patterns —
 *    restore is bit-identical, never a parse/print round-trip.
 *  - saveSnapshotFile/loadSnapshotFile wrap a payload in a "NBCK"
 *    magic + format version + length + CRC32 header and publish it
 *    through writeFileAtomic, so a crash mid-checkpoint leaves the
 *    previous checkpoint intact and a torn or bit-rotted file is
 *    rejected with a typed Error instead of resuming garbage.
 *
 * All failures surface as Result/Status per docs/ROBUSTNESS.md: a
 * corrupt checkpoint degrades to a cold start, it never fatal()s.
 */

#ifndef NANOBUS_UTIL_CHECKPOINT_HH
#define NANOBUS_UTIL_CHECKPOINT_HH

#include <cstddef>
#include <cstdint>
#include <string>

#include "util/result.hh"

namespace nanobus {

/** Snapshot container format version (bump on wire changes).
 *  v2: transition-kernel tag in the bus identity guard + the packed
 *  kernel's integer count payload (fabric/bus_snapshot.cc).
 *  v3: thermal-solver tag in the bus identity guard. */
constexpr uint32_t kSnapshotFormatVersion = 3;

/** CRC-32 (IEEE 802.3, reflected) of `size` bytes, continuing from
 *  `seed` (pass the previous return value to checksum in chunks). */
uint32_t crc32(const void *data, size_t size, uint32_t seed = 0);

/** Serializes scalars into a little-endian byte buffer. */
class SnapshotWriter
{
  public:
    void putU32(uint32_t value);
    void putU64(uint64_t value);
    /** IEEE-754 bit pattern; restores bit-identically. */
    void putF64(double value);
    void putBool(bool value) { putU32(value ? 1u : 0u); }
    /** Length-prefixed byte run. */
    void putString(const std::string &value);

    const std::string &buffer() const { return buffer_; }

  private:
    std::string buffer_;
};

/**
 * Bounds-checked reader over a SnapshotWriter buffer. Every get
 * returns a Status; reading past the end or mismatched field shapes
 * surface as ErrorCode::ParseError (the snapshot is structurally
 * damaged, not merely unreadable).
 */
class SnapshotReader
{
  public:
    explicit SnapshotReader(const std::string &buffer)
        : buffer_(buffer)
    {
    }

    [[nodiscard]] Status getU32(uint32_t &out);
    [[nodiscard]] Status getU64(uint64_t &out);
    [[nodiscard]] Status getF64(double &out);
    [[nodiscard]] Status getBool(bool &out);
    [[nodiscard]] Status getString(std::string &out);

    /** True when every byte has been consumed. */
    bool atEnd() const { return offset_ == buffer_.size(); }

    /** Bytes not yet consumed. */
    size_t remaining() const { return buffer_.size() - offset_; }

  private:
    [[nodiscard]] Status take(size_t count, const char *&out);

    const std::string &buffer_;
    size_t offset_ = 0;
};

/**
 * Atomically write `payload` to `path` inside the versioned,
 * CRC-guarded container. IoError on filesystem trouble.
 */
[[nodiscard]] Status saveSnapshotFile(const std::string &path,
                                      const std::string &payload);

/**
 * Read and validate a container written by saveSnapshotFile,
 * returning the payload. Errors: IoError when the file cannot be
 * read; ParseError when the magic, version, length, or CRC do not
 * check out (the caller should discard the checkpoint and cold-start
 * rather than trust any of its bytes).
 */
Result<std::string> loadSnapshotFile(const std::string &path);

} // namespace nanobus

#endif // NANOBUS_UTIL_CHECKPOINT_HH
