/**
 * @file
 * Checkpoint/resume for the twin-bus simulation.
 *
 * A SimSnapshot freezes everything a resumed run needs to be
 * bit-identical to one that never stopped: both buses' encoder
 * state, energy accumulators, thermal node temperatures, interval
 * bookkeeping, recorded time series, and the trace cursor (records
 * consumed + last cycle seen). The payload is serialized through
 * SnapshotWriter (fixed little-endian wire order, doubles as IEEE-754
 * bit patterns) and published inside the versioned, CRC-guarded
 * container of util/checkpoint.hh, so a crash mid-write leaves the
 * previous checkpoint intact and a corrupt file is rejected with a
 * typed Error instead of resuming garbage.
 *
 * SimPipeline writes checkpoints at ingest-batch boundaries
 * (Config::checkpoint_every_batches); batch boundaries are a pure
 * function of (source contents, batch_size), so the restored state
 * rejoins the uninterrupted run exactly between two batches. The
 * bit-identity pin lives in tests/sim/test_snapshot.cc; the format is
 * documented in docs/ROBUSTNESS.md.
 */

#ifndef NANOBUS_SIM_SNAPSHOT_HH
#define NANOBUS_SIM_SNAPSHOT_HH

#include <cstdint>
#include <string>

#include "sim/experiment.hh"
#include "util/result.hh"

namespace nanobus {

/** Trace-stream cursor stored alongside the twin-bus state. */
struct SimCheckpoint
{
    /** Records consumed from the trace source so far. */
    uint64_t records = 0;
    /** Cycle of the last record consumed (finish() flush target). */
    uint64_t last_cycle = 0;
};

/**
 * Serialize the twin's full mutable state plus the stream cursor
 * into a snapshot payload (no container header; pair with
 * saveSnapshotFile, or use saveTwinCheckpoint below).
 */
std::string encodeTwinSnapshot(const TwinBusSimulator &twin,
                               const SimCheckpoint &cursor);

/**
 * Restore a payload produced by encodeTwinSnapshot into an
 * identically configured twin. Errors leave the twin in an
 * unspecified partially-restored state — discard it and cold-start.
 */
[[nodiscard]] Status decodeTwinSnapshot(const std::string &payload,
                                        TwinBusSimulator &twin,
                                        SimCheckpoint &cursor);

/** encodeTwinSnapshot + atomic, CRC-guarded publication to `path`. */
[[nodiscard]] Status saveTwinCheckpoint(const std::string &path,
                                        const TwinBusSimulator &twin,
                                        const SimCheckpoint &cursor);

/**
 * Load, validate, and restore a checkpoint written by
 * saveTwinCheckpoint, returning the stream cursor so the caller can
 * skip the already-consumed trace prefix. IoError when the file
 * cannot be read (treat as "no checkpoint yet"); ParseError when the
 * container or payload is damaged; InvalidArgument when the snapshot
 * does not match this twin's configuration.
 */
Result<SimCheckpoint> loadTwinCheckpoint(const std::string &path,
                                         TwinBusSimulator &twin);

} // namespace nanobus

#endif // NANOBUS_SIM_SNAPSHOT_HH
