/**
 * @file
 * TwinBusSimulator checkpoint container (sim/snapshot.hh): the
 * cursor plus both buses' BusSimulator payloads (serialized by
 * fabric/bus_snapshot.cc). Field order here *is* the wire format:
 * change it and kSnapshotFormatVersion must bump.
 */

#include "sim/snapshot.hh"

#include <string>
#include <vector>

#include "fabric/bus_sim.hh"
#include "util/checkpoint.hh"

// Early-return plumbing for the field-by-field decode below.
#define NANOBUS_SNAP_TRY(expr)                                       \
    do {                                                             \
        Status try_status_ = (expr);                                 \
        if (!try_status_.ok())                                       \
            return try_status_;                                      \
    } while (0)

namespace nanobus {

std::string
encodeTwinSnapshot(const TwinBusSimulator &twin,
                   const SimCheckpoint &cursor)
{
    SnapshotWriter w;
    w.putU64(cursor.records);
    w.putU64(cursor.last_cycle);
    twin.instructionBus().saveState(w);
    twin.dataBus().saveState(w);
    return w.buffer();
}

Status
decodeTwinSnapshot(const std::string &payload, TwinBusSimulator &twin,
                   SimCheckpoint &cursor)
{
    SnapshotReader r(payload);
    NANOBUS_SNAP_TRY(r.getU64(cursor.records));
    NANOBUS_SNAP_TRY(r.getU64(cursor.last_cycle));
    NANOBUS_SNAP_TRY(twin.instructionBus().restoreState(r));
    NANOBUS_SNAP_TRY(twin.dataBus().restoreState(r));
    if (!r.atEnd()) {
        return Status::failure(
            ErrorCode::ParseError,
            "decodeTwinSnapshot: " + std::to_string(r.remaining()) +
                " unexpected trailing bytes");
    }
    return Status();
}

Status
saveTwinCheckpoint(const std::string &path,
                   const TwinBusSimulator &twin,
                   const SimCheckpoint &cursor)
{
    return saveSnapshotFile(path, encodeTwinSnapshot(twin, cursor));
}

Result<SimCheckpoint>
loadTwinCheckpoint(const std::string &path, TwinBusSimulator &twin)
{
    Result<std::string> payload = loadSnapshotFile(path);
    if (!payload.ok())
        return payload.error();
    SimCheckpoint cursor;
    Status restored = decodeTwinSnapshot(payload.value(), twin, cursor);
    if (!restored.ok())
        return restored.error();
    return cursor;
}

} // namespace nanobus
