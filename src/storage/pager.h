#ifndef PROBE_STORAGE_PAGER_H_
#define PROBE_STORAGE_PAGER_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "storage/page.h"

/// \file
/// The simulated disk: page allocation plus physical I/O accounting.

namespace probe::storage {

/// Physical I/O counters of a pager.
struct PagerStats {
  uint64_t reads = 0;
  uint64_t writes = 0;
  uint64_t allocations = 0;

  void Reset() { *this = PagerStats{}; }
};

/// Abstract page store. Implementations must tolerate interleaved reads and
/// writes of any allocated page.
class Pager {
 public:
  virtual ~Pager() = default;

  /// Allocates a zeroed page and returns its id.
  virtual PageId Allocate() = 0;

  /// Copies page `id` into `*out`. `id` must be allocated.
  virtual void Read(PageId id, Page* out) = 0;

  /// Stores `page` as the contents of `id`. `id` must be allocated.
  virtual void Write(PageId id, const Page& page) = 0;

  /// Number of pages allocated so far.
  virtual uint32_t page_count() const = 0;

  /// Cumulative physical I/O counters.
  virtual const PagerStats& stats() const = 0;

  /// Zeroes the I/O counters (page contents are untouched).
  virtual void ResetStats() = 0;

  /// True while the pager can serve requests. A plain pager is always
  /// healthy; file-backed pagers report open failures here and the
  /// fault-injecting wrapper reports an injected crash.
  virtual bool ok() const { return true; }

  /// Makes prior writes durable. A no-op for memory-backed pagers;
  /// file-backed ones fsync. False when the writes may not be durable.
  virtual bool Sync() { return true; }
};

/// In-memory pager: the simulated disk used throughout the reproduction.
class MemPager final : public Pager {
 public:
  MemPager() = default;

  // Owns its pages; not copyable.
  MemPager(const MemPager&) = delete;
  MemPager& operator=(const MemPager&) = delete;

  PageId Allocate() override;
  void Read(PageId id, Page* out) override;
  void Write(PageId id, const Page& page) override;
  uint32_t page_count() const override {
    return static_cast<uint32_t>(pages_.size());
  }
  const PagerStats& stats() const override { return stats_; }
  void ResetStats() override { stats_.Reset(); }

 private:
  std::vector<std::unique_ptr<Page>> pages_;
  PagerStats stats_;
};

}  // namespace probe::storage

#endif  // PROBE_STORAGE_PAGER_H_
