#include "storage/fault_pager.h"

#include <cstring>

#include "util/rng.h"

namespace probe::storage {

PageId FaultInjectingPager::Allocate() {
  if (crashed_) return base_->page_count() + phantom_allocs_++;
  return base_->Allocate();
}

void FaultInjectingPager::Read(PageId id, Page* out) {
  // Reads stay truthful even after the crash: what's on the (simulated)
  // platter is what a post-mortem sees. Phantom pages read as zeros.
  if (id >= base_->page_count()) {
    out->Clear();
    return;
  }
  base_->Read(id, out);
}

void FaultInjectingPager::Write(PageId id, const Page& page) {
  if (crashed_) return;
  if (plan_.kind != FaultPlan::Kind::kNone &&
      writes_ >= plan_.fail_after_writes) {
    crashed_ = true;
    if (plan_.kind == FaultPlan::Kind::kShortWrite &&
        id < base_->page_count()) {
      // Seed the cut from the plan and the op count so every (plan,
      // workload) pair tears deterministically.
      uint64_t state = plan_.seed ^ (writes_ * 0x9E3779B97F4A7C15ull);
      const size_t cut =
          1 + static_cast<size_t>(util::SplitMix64(state) % (Page::kSize - 1));
      Page torn;
      base_->Read(id, &torn);
      std::memcpy(torn.data(), page.data(), cut);
      base_->Write(id, torn);
    }
    return;
  }
  ++writes_;
  base_->Write(id, page);
}

uint32_t FaultInjectingPager::page_count() const {
  return base_->page_count() + phantom_allocs_;
}

bool FaultInjectingPager::Sync() {
  if (crashed_ || plan_.fail_sync) return false;
  return base_->Sync();
}

}  // namespace probe::storage
