/**
 * @file
 * Atomic whole-file writes for result and checkpoint artifacts.
 *
 * Bench CSVs, BENCH_*.json scaling records, and SimPipeline
 * checkpoints are all files another process (or a resumed run) may
 * read while the producer can die at any instant. A plain
 * open-write-close leaves a torn file on a crash mid-write; the
 * standard fix is to stage the bytes in a sibling temporary file and
 * publish with rename(), which POSIX guarantees is atomic within a
 * filesystem. This helper is the single sanctioned call site for
 * that pattern — tools/nbcheck (rule `raw-result-write`) bans raw
 * std::fopen/std::rename result-file plumbing everywhere else.
 *
 * Failures are reported as Status (ErrorCode::IoError), never
 * fatal(): a checkpoint that cannot be written must degrade the run,
 * not kill it (docs/ROBUSTNESS.md).
 */

#ifndef NANOBUS_UTIL_ATOMICFILE_HH
#define NANOBUS_UTIL_ATOMICFILE_HH

#include <string>

#include "util/result.hh"

namespace nanobus {

/**
 * Atomically replace the file at `path` with `contents`: the bytes
 * are written to `path + ".tmp"`, flushed, and renamed over `path`.
 * Readers observe either the old file or the complete new one, never
 * a prefix. The temporary lives in the target's directory so the
 * rename cannot cross a filesystem boundary.
 */
[[nodiscard]] Status writeFileAtomic(const std::string &path,
                                     const std::string &contents);

/** The staging path writeFileAtomic uses for `path` (for tests and
 *  cleanup). */
std::string atomicTempPath(const std::string &path);

} // namespace nanobus

#endif // NANOBUS_UTIL_ATOMICFILE_HH
