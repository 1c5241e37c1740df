#ifndef PROBE_STORAGE_FAULT_PAGER_H_
#define PROBE_STORAGE_FAULT_PAGER_H_

#include <cstdint>

#include "storage/pager.h"

/// \file
/// Deterministic fault injection at the page-I/O boundary.
///
/// The crash tier needs to kill the engine at chosen points and prove
/// recovery repairs whatever the kill left behind. FaultInjectingPager
/// wraps any Pager and, on the Nth write, either drops it (a process that
/// died just before the syscall) or tears it (a sector-granular partial
/// write — the first K bytes are new, the rest still old). After the
/// fault trips the pager is crashed(): every later mutation is silently
/// dropped and ok() turns false, so a TxnPager checkpoint running above
/// notices the disk died under it.
///
/// Everything is seeded: the same plan against the same workload tears
/// the same byte of the same page, so a failing crash point replays
/// exactly under a debugger.

namespace probe::storage {

/// What to inject, and when.
struct FaultPlan {
  enum class Kind {
    /// Never trips.
    kNone,
    /// The victim write is dropped whole.
    kFailStop,
    /// The victim write lands partially: a seeded cut in [1, kSize-1]
    /// splits new bytes from stale ones — a torn page.
    kShortWrite,
  };

  Kind kind = Kind::kNone;

  /// Writes that succeed before the fault trips; the next one is the
  /// victim.
  uint64_t fail_after_writes = ~0ull;

  /// Seeds the tear position for kShortWrite.
  uint64_t seed = 0;

  /// When true, every Sync reports failure (an fsync EIO) without
  /// syncing; writes still land and the pager does not crash.
  bool fail_sync = false;
};

/// Pager wrapper that injects one planned fault (see file comment).
class FaultInjectingPager final : public Pager {
 public:
  /// `base` must outlive the wrapper.
  explicit FaultInjectingPager(Pager* base) : base_(base) {}

  /// Arms (or, with a default plan, disarms) the fault. Does not reset
  /// crashed() — a tripped pager stays dead.
  void SetFaultPlan(const FaultPlan& plan) { plan_ = plan; }

  /// True once the fault has tripped.
  bool crashed() const { return crashed_; }

  /// Writes that reached the base so far (for sizing fail_after_writes
  /// sweeps).
  uint64_t writes_attempted() const { return writes_; }

  PageId Allocate() override;
  void Read(PageId id, Page* out) override;
  void Write(PageId id, const Page& page) override;
  uint32_t page_count() const override;
  const PagerStats& stats() const override { return base_->stats(); }
  void ResetStats() override { base_->ResetStats(); }
  bool ok() const override { return !crashed_ && base_->ok(); }
  bool Sync() override;

 private:
  Pager* base_;
  FaultPlan plan_;
  bool crashed_ = false;
  uint64_t writes_ = 0;
  // Pages "allocated" after the crash (so callers that ignore the crash
  // keep getting distinct ids) — never reaches the base.
  uint32_t phantom_allocs_ = 0;
};

}  // namespace probe::storage

#endif  // PROBE_STORAGE_FAULT_PAGER_H_
