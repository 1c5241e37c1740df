#include "storage/recovery.h"

#include <sys/stat.h>
#include <unistd.h>

#include <cstring>

#include "storage/page.h"
#include "storage/wal.h"

namespace probe::storage {

namespace {

uint64_t FileSize(const std::string& path) {
  struct stat st;
  if (::stat(path.c_str(), &st) != 0) return 0;
  return static_cast<uint64_t>(st.st_size);
}

}  // namespace

RecoveryResult Recover(const std::string& wal_path, FilePager* base) {
  RecoveryResult result;
  result.page_count = base->page_count();

  // Pass 1 — analysis: walk the valid prefix, remembering the last commit
  // or checkpoint boundary. Everything after it (torn bytes and complete
  // records of an unfinished batch alike) will be discarded.
  uint64_t boundary_end = 0;
  {
    WalReader reader(wal_path);
    if (!reader.ok()) return result;  // no log: base is authoritative
    result.log_found = true;
    WalRecord record;
    while (reader.Next(&record)) {
      ++result.records_scanned;
      if (record.type == WalRecordType::kCommit ||
          record.type == WalRecordType::kCheckpoint) {
        result.boundary_lsn = record.lsn;
        result.boundary_was_checkpoint =
            record.type == WalRecordType::kCheckpoint;
        result.page_count = record.page_count;
        result.meta = record.payload;
        boundary_end = record.end_offset;
      }
    }
  }

  // Pass 2 — redo: replay every committed page image into the base file
  // in LSN order. Later images of the same page overwrite earlier ones,
  // and replaying an image already in the base is a no-op — both of which
  // make a second recovery land on identical bytes.
  if (result.boundary_lsn != 0) {
    WalReader reader(wal_path);
    WalRecord record;
    while (reader.Next(&record) && record.lsn <= result.boundary_lsn) {
      if (record.type != WalRecordType::kPageImage) continue;
      while (record.page_id >= base->page_count()) base->Allocate();
      Page page;
      std::memcpy(page.data(), record.payload.data(), Page::kSize);
      base->Write(record.page_id, page);
      ++result.records_redone;
    }
  }

  // Restore the committed page count exactly: a crash mid-checkpoint may
  // have extended the base past it, and committed allocations that only
  // ever lived in the log may fall short of it (their pages are zero).
  if (base->page_count() != result.page_count &&
      !base->TruncateTo(result.page_count)) {
    result.ok = false;
  }
  if (!base->Sync()) result.ok = false;

  // Cut the log back to the boundary so the discarded tail cannot be read
  // a second time; an empty boundary empties the log.
  const uint64_t log_size = FileSize(wal_path);
  if (log_size > boundary_end) {
    result.bytes_truncated = log_size - boundary_end;
    if (::truncate(wal_path.c_str(), static_cast<off_t>(boundary_end)) != 0) {
      result.ok = false;
    }
  }
  return result;
}

}  // namespace probe::storage
