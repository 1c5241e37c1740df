#ifndef PROBE_STORAGE_RECOVERY_H_
#define PROBE_STORAGE_RECOVERY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "storage/file_pager.h"

/// \file
/// Crash recovery: analysis + redo over the write-ahead log.
///
/// Opening a database is always `Recover(wal, base)` first. The protocol
/// (mirroring Wal's no-steal / force-on-checkpoint discipline — the base
/// file is only ever written during a checkpoint):
///
///   1. **Scan** the log front to back, validating each record's CRC and
///      LSN. The first failure marks the torn tail a crash left; the file
///      is truncated there so the damage cannot be misread twice.
///   2. **Analysis**: find the last commit or checkpoint record. Records
///      after it belong to an unfinished batch; they are discarded (the
///      log is truncated back to the boundary), which is what makes
///      batches atomic. The boundary's payload carries the committed page
///      count and the application metadata blob.
///   3. **Redo**: every page image at or before the boundary is replayed
///      into the base file in LSN order. Physical redo is idempotent —
///      recovering twice (or crashing during recovery and recovering
///      again) lands on the same bytes. The base file is then truncated
///      or extended to exactly the committed page count, wiping pages a
///      crashed checkpoint may have allocated past it, and fsynced.
///
/// A log that contains no boundary at all (e.g. only images of a batch
/// that never committed) recovers to the base file as-is with the log
/// emptied — the state of the last successful checkpoint.

namespace probe::storage {

/// What one recovery pass did.
struct RecoveryResult {
  /// False when there was no log (or an unreadable one): the base file is
  /// already the authoritative state.
  bool log_found = false;

  /// Valid records scanned (through the last boundary).
  uint64_t records_scanned = 0;

  /// Page images replayed into the base file.
  uint64_t records_redone = 0;

  /// Bytes cut off the end of the log: the torn tail plus any complete
  /// records of an unfinished batch.
  uint64_t bytes_truncated = 0;

  /// LSN of the recovered boundary record (0 when none existed).
  uint64_t boundary_lsn = 0;

  /// True when the boundary was a checkpoint (so redo had nothing to do
  /// unless images followed it — they cannot, checkpoints end a log).
  bool boundary_was_checkpoint = false;

  /// Committed page count restored to the base file (the base's own count
  /// when no boundary existed).
  uint32_t page_count = 0;

  /// The application metadata blob of the boundary record, empty when no
  /// boundary existed. The index layer deserializes its tree state here.
  std::vector<uint8_t> meta;

  /// False when truncating or syncing the base file, or cutting the log
  /// back, failed: the recovered state may not be durable, and the
  /// database must not be opened on it.
  bool ok = true;
};

/// Recovers `base` from the log at `wal_path` (see file comment). The log
/// file is truncated to the recovered boundary; the base file is replayed,
/// sized to the committed page count, and fsynced. Safe to call on a clean
/// shutdown (the scan finds nothing to redo) and safe to call repeatedly.
RecoveryResult Recover(const std::string& wal_path, FilePager* base);

}  // namespace probe::storage

#endif  // PROBE_STORAGE_RECOVERY_H_
