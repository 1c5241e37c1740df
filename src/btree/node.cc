#include "btree/node.h"

#include <cassert>
#include <cstring>

namespace probe::btree {

namespace {

size_t LeafEntryOffset(int i) {
  return kEntriesOffset + static_cast<size_t>(i) * LeafView::kEntryBytes;
}

/// The on-page image of one leaf entry. Get/Set move a whole entry
/// with a single 17-byte memcpy instead of three field-sized page
/// accesses — the difference is measurable in the scan loop (bench_micro
/// BM_LeafViewGet).
struct PackedLeafEntry {
  uint64_t raw;
  uint8_t len;
  uint64_t payload;
} __attribute__((packed));

static_assert(sizeof(PackedLeafEntry) == LeafView::kEntryBytes);

size_t PairOffset(int i) {
  return InternalView::kPairsOffset +
         static_cast<size_t>(i) * InternalView::kEntryBytes;
}

}  // namespace

void LeafView::Init() {
  page_->Clear();
  page_->Write<uint8_t>(kKindOffset, kLeafKind);
  page_->Write<uint16_t>(kCountOffset, 0);
  page_->Write<storage::PageId>(kNextLeafOffset, storage::kInvalidPageId);
}

LeafEntry LeafView::Get(int i) const {
  assert(i >= 0 && i < count());
  PackedLeafEntry packed;
  std::memcpy(&packed, page_->data() + LeafEntryOffset(i), sizeof packed);
  return LeafEntry{ZKey{packed.raw, packed.len}, packed.payload};
}

void LeafView::Set(int i, const LeafEntry& entry) {
  assert(i >= 0 && i < kMaxCapacity);
  const PackedLeafEntry packed{entry.key.raw, entry.key.len, entry.payload};
  std::memcpy(page_->data() + LeafEntryOffset(i), &packed, sizeof packed);
}

void LeafView::InsertAt(int i, const LeafEntry& entry) {
  const int n = count();
  assert(i >= 0 && i <= n && n < kMaxCapacity);
  std::memmove(page_->data() + LeafEntryOffset(i + 1),
               page_->data() + LeafEntryOffset(i),
               static_cast<size_t>(n - i) * kEntryBytes);
  set_count(n + 1);
  Set(i, entry);
}

void LeafView::RemoveAt(int i) {
  const int n = count();
  assert(i >= 0 && i < n);
  std::memmove(page_->data() + LeafEntryOffset(i),
               page_->data() + LeafEntryOffset(i + 1),
               static_cast<size_t>(n - i - 1) * kEntryBytes);
  set_count(n - 1);
}

int LeafView::LowerBound(const ZKey& key) const {
  int lo = 0;
  int hi = count();
  while (lo < hi) {
    const int mid = (lo + hi) / 2;
    if (Get(mid).key < key) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

void InternalView::Init(storage::PageId child0) {
  page_->Clear();
  page_->Write<uint8_t>(kKindOffset, kInternalKind);
  page_->Write<uint16_t>(kCountOffset, 0);
  set_child0(child0);
}

ZKey InternalView::SeparatorAt(int i) const {
  assert(i >= 0 && i < count());
  const size_t off = PairOffset(i);
  ZKey key;
  key.raw = page_->Read<uint64_t>(off);
  key.len = page_->Read<uint8_t>(off + 8);
  return key;
}

storage::PageId InternalView::ChildAt(int i) const {
  assert(i >= 0 && i <= count());
  if (i == 0) return child0();
  return page_->Read<storage::PageId>(PairOffset(i - 1) + 9);
}

void InternalView::SetSeparator(int i, const ZKey& key) {
  assert(i >= 0 && i < count());
  const size_t off = PairOffset(i);
  page_->Write<uint64_t>(off, key.raw);
  page_->Write<uint8_t>(off + 8, key.len);
}

void InternalView::SetPair(int i, const ZKey& sep, storage::PageId child) {
  assert(i >= 0 && i < kMaxCapacity);
  const size_t off = PairOffset(i);
  page_->Write<uint64_t>(off, sep.raw);
  page_->Write<uint8_t>(off + 8, sep.len);
  page_->Write<storage::PageId>(off + 9, child);
}

void InternalView::InsertPairAt(int i, const ZKey& sep,
                                storage::PageId child) {
  const int n = count();
  assert(i >= 0 && i <= n && n < kMaxCapacity);
  std::memmove(page_->data() + PairOffset(i + 1), page_->data() + PairOffset(i),
               static_cast<size_t>(n - i) * kEntryBytes);
  set_count(n + 1);
  SetPair(i, sep, child);
}

void InternalView::RemovePairAt(int i) {
  const int n = count();
  assert(i >= 0 && i < n);
  std::memmove(page_->data() + PairOffset(i), page_->data() + PairOffset(i + 1),
               static_cast<size_t>(n - i - 1) * kEntryBytes);
  set_count(n - 1);
}

int InternalView::DescendLeft(const ZKey& key) const {
  // Last separator strictly below `key`; equal separators send us left so a
  // lower_bound scan starts at the leftmost duplicate.
  int lo = 0;
  int hi = count();
  while (lo < hi) {
    const int mid = (lo + hi) / 2;
    if (SeparatorAt(mid) < key) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

int InternalView::DescendRight(const ZKey& key) const {
  int lo = 0;
  int hi = count();
  while (lo < hi) {
    const int mid = (lo + hi) / 2;
    if (key < SeparatorAt(mid)) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return lo;
}

ZKey PrefixSeparator(const ZKey& left, const ZKey& right) {
  const zorder::ZValue right_z = right.ToZValue();
  for (int len = 0; len <= right_z.length(); ++len) {
    const ZKey candidate = ZKey::FromZValue(right_z.Prefix(len));
    if (left < candidate) return candidate;
  }
  return right;  // left == right: a duplicate run is being split
}

}  // namespace probe::btree
