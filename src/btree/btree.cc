#include "btree/btree.h"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "btree/audit.h"
#include "btree/simd_filter.h"
#include "probe/check.h"

namespace probe::btree {

namespace {

using storage::PageId;
using storage::PageRef;

uint8_t KindOf(const storage::Page& page) {
  return page.Read<uint8_t>(kKindOffset);
}

/// Copies every entry of a leaf page into `out`.
void ReadLeaf(storage::Page& page, std::vector<LeafEntry>* out) {
  LeafView leaf(&page);
  const int n = leaf.count();
  out->clear();
  out->reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) out->push_back(leaf.Get(i));
}

}  // namespace

BTree::BTree(storage::BufferPool* pool, const BTreeConfig& config)
    : pool_(pool), config_(config), height_(1) {
  assert(config_.leaf_capacity >= 2 &&
         config_.leaf_capacity <= LeafView::kMaxCapacity - 1);
  assert(config_.internal_capacity >= 2 &&
         config_.internal_capacity <= InternalView::kMaxCapacity - 1);
  PageRef ref = pool_->New(&root_);
  LeafView(&ref.page()).Init();
  ref.MarkDirty();
}

void BTree::Insert(const ZKey& key, uint64_t payload) {
  SplitResult result;
  InsertRec(root_, key, payload, &result);
  if (result.split) {
    PageId new_root_id;
    PageRef ref = pool_->New(&new_root_id);
    InternalView node(&ref.page());
    node.Init(root_);
    node.InsertPairAt(0, result.separator, result.new_page);
    ref.MarkDirty();
    root_ = new_root_id;
    ++height_;
  }
  ++size_;
}

void BTree::InsertRec(PageId page_id, const ZKey& key, uint64_t payload,
                      SplitResult* result) {
  result->split = false;
  PageRef ref = pool_->Fetch(page_id);
  if (KindOf(ref.page()) == kLeafKind) {
    LeafView leaf(&ref.page());
    // Lower bound by key, then order duplicates by payload so the layout
    // is independent of insertion order.
    int idx = leaf.LowerBound(key);
    while (idx < leaf.count() && leaf.Get(idx).key == key &&
           leaf.Get(idx).payload < payload) {
      ++idx;
    }
    leaf.InsertAt(idx, LeafEntry{key, payload});
    ref.MarkDirty();
    if (leaf.count() <= config_.leaf_capacity) {
      PROBE_AUDIT(AuditLeafPage(leaf, 1, config_.leaf_capacity));
      return;
    }

    // Overflow: split. Prefer a split point that does not divide a run of
    // equal keys, so prefix separators stay strict where possible.
    const int n = leaf.count();
    int split = n / 2;
    auto distinct_at = [&](int j) {
      return j > 0 && j < n && leaf.Get(j - 1).key < leaf.Get(j).key;
    };
    if (!distinct_at(split)) {
      for (int delta = 1; delta < n; ++delta) {
        if (distinct_at(split - delta)) {
          split -= delta;
          break;
        }
        if (distinct_at(split + delta)) {
          split += delta;
          break;
        }
      }
    }
    PageId right_id;
    PageRef right_ref = pool_->New(&right_id);
    LeafView right(&right_ref.page());
    right.Init();
    for (int i = split; i < n; ++i) {
      right.Set(i - split, leaf.Get(i));
    }
    right.set_count(n - split);
    leaf.set_count(split);
    right.set_next_leaf(leaf.next_leaf());
    leaf.set_next_leaf(right_id);
    right_ref.MarkDirty();
    result->split = true;
    result->separator =
        PrefixSeparator(leaf.Get(split - 1).key, right.Get(0).key);
    result->new_page = right_id;
    // Both halves of a split must hold sorted keys and at least one entry.
    PROBE_AUDIT(AuditLeafPage(leaf, 1, config_.leaf_capacity));
    PROBE_AUDIT(AuditLeafPage(right, 1, config_.leaf_capacity));
    return;
  }

  InternalView node(&ref.page());
  const int child_idx = node.DescendRight(key);
  SplitResult child_result;
  InsertRec(node.ChildAt(child_idx), key, payload, &child_result);
  if (!child_result.split) return;

  node.InsertPairAt(child_idx, child_result.separator, child_result.new_page);
  ref.MarkDirty();
  if (node.count() <= config_.internal_capacity) {
    PROBE_AUDIT(AuditInternalPage(node, 1, config_.internal_capacity));
    return;
  }

  // Split the internal node: the middle separator moves up.
  const int n = node.count();
  const int mid = n / 2;
  PageId right_id;
  PageRef right_ref = pool_->New(&right_id);
  InternalView right(&right_ref.page());
  right.Init(node.ChildAt(mid + 1));
  for (int i = mid + 1; i < n; ++i) {
    right.InsertPairAt(i - mid - 1, node.SeparatorAt(i), node.ChildAt(i + 1));
  }
  result->split = true;
  result->separator = node.SeparatorAt(mid);
  result->new_page = right_id;
  node.set_count(mid);
  right_ref.MarkDirty();
  PROBE_AUDIT(AuditInternalPage(node, 1, config_.internal_capacity));
  PROBE_AUDIT(AuditInternalPage(right, 1, config_.internal_capacity));
}

bool BTree::Delete(const ZKey& key, uint64_t payload) {
  bool underflow = false;
  if (!DeleteRec(root_, key, payload, &underflow)) return false;
  --size_;
  // Shrink the root when an internal root lost its last separator.
  for (;;) {
    PageRef ref = pool_->Fetch(root_);
    if (KindOf(ref.page()) == kLeafKind) break;
    InternalView node(&ref.page());
    if (node.count() > 0) break;
    const PageId only_child = node.child0();
    ref.Release();
    root_ = only_child;
    --height_;
  }
  return true;
}

bool BTree::DeleteRec(PageId page_id, const ZKey& key, uint64_t payload,
                      bool* underflow) {
  *underflow = false;
  PageRef ref = pool_->Fetch(page_id);
  if (KindOf(ref.page()) == kLeafKind) {
    LeafView leaf(&ref.page());
    for (int i = leaf.LowerBound(key);
         i < leaf.count() && leaf.Get(i).key == key; ++i) {
      if (leaf.Get(i).payload == payload) {
        leaf.RemoveAt(i);
        ref.MarkDirty();
        *underflow = page_id != root_ && leaf.count() < MinLeafCount();
        // Order must survive removal; occupancy is the parent's problem
        // (it rebalances on *underflow).
        PROBE_AUDIT(AuditLeafPage(leaf, 0, config_.leaf_capacity));
        return true;
      }
    }
    return false;
  }

  InternalView node(&ref.page());
  // Equal keys may straddle a separator equal to the key, so every child
  // between the left and right descent positions is a candidate.
  const int lo = node.DescendLeft(key);
  const int hi = node.DescendRight(key);
  for (int child_idx = lo; child_idx <= hi; ++child_idx) {
    bool child_underflow = false;
    if (DeleteRec(node.ChildAt(child_idx), key, payload, &child_underflow)) {
      if (child_underflow) {
        FixUnderflow(node, child_idx);
        ref.MarkDirty();
        *underflow = page_id != root_ && node.count() < MinInternalCount();
        PROBE_AUDIT(AuditInternalPage(node, 0, config_.internal_capacity));
      }
      return true;
    }
  }
  return false;
}

void BTree::FixUnderflow(InternalView& parent, int child_idx) {
  // Prefer borrowing from a sibling; merge when both are at minimum.
  const PageId child_id = parent.ChildAt(child_idx);
  PageRef child_ref = pool_->Fetch(child_id);
  const bool child_is_leaf = KindOf(child_ref.page()) == kLeafKind;

  auto leaf_count = [&](PageRef& r) { return LeafView(&r.page()).count(); };
  auto internal_count = [&](PageRef& r) {
    return InternalView(&r.page()).count();
  };

  // Try left sibling first, then right.
  for (int dir = -1; dir <= 1; dir += 2) {
    const int sib_idx = child_idx + dir;
    if (sib_idx < 0 || sib_idx > parent.count()) continue;
    PageRef sib_ref = pool_->Fetch(parent.ChildAt(sib_idx));
    const int sib_count = child_is_leaf ? leaf_count(sib_ref)
                                        : internal_count(sib_ref);
    const int min_count = child_is_leaf ? MinLeafCount() : MinInternalCount();
    if (sib_count <= min_count) continue;

    // Borrow one entry/pair across the parent separator.
    const int sep_idx = dir < 0 ? child_idx - 1 : child_idx;
    if (child_is_leaf) {
      LeafView child(&child_ref.page());
      LeafView sib(&sib_ref.page());
      if (dir < 0) {
        const LeafEntry moved = sib.Get(sib.count() - 1);
        sib.RemoveAt(sib.count() - 1);
        child.InsertAt(0, moved);
        parent.SetSeparator(
            sep_idx, PrefixSeparator(sib.Get(sib.count() - 1).key, moved.key));
      } else {
        const LeafEntry moved = sib.Get(0);
        sib.RemoveAt(0);
        child.InsertAt(child.count(), moved);
        parent.SetSeparator(sep_idx,
                            PrefixSeparator(moved.key, sib.Get(0).key));
      }
    } else {
      InternalView child(&child_ref.page());
      InternalView sib(&sib_ref.page());
      const ZKey parent_sep = parent.SeparatorAt(sep_idx);
      if (dir < 0) {
        // Rotate right: sibling's last child becomes child's new child0.
        const int last = sib.count() - 1;
        const ZKey up = sib.SeparatorAt(last);
        const PageId moved_child = sib.ChildAt(last + 1);
        sib.RemovePairAt(last);
        child.InsertPairAt(0, parent_sep, child.child0());
        child.set_child0(moved_child);
        parent.SetSeparator(sep_idx, up);
      } else {
        // Rotate left: sibling's child0 appends to child.
        const ZKey up = sib.SeparatorAt(0);
        const PageId moved_child = sib.child0();
        child.InsertPairAt(child.count(), parent_sep, moved_child);
        sib.set_child0(sib.ChildAt(1));
        sib.RemovePairAt(0);
        parent.SetSeparator(sep_idx, up);
      }
    }
    child_ref.MarkDirty();
    sib_ref.MarkDirty();
    return;
  }

  // Merge with a sibling (left if it exists, else right). After merging,
  // the separated pair disappears from the parent.
  const int left_idx = child_idx > 0 ? child_idx - 1 : child_idx;
  const int right_idx = left_idx + 1;
  assert(right_idx <= parent.count());
  PageRef left_ref = pool_->Fetch(parent.ChildAt(left_idx));
  PageRef right_ref = pool_->Fetch(parent.ChildAt(right_idx));
  if (child_is_leaf) {
    LeafView left(&left_ref.page());
    LeafView right(&right_ref.page());
    const int base = left.count();
    for (int i = 0; i < right.count(); ++i) left.Set(base + i, right.Get(i));
    left.set_count(base + right.count());
    left.set_next_leaf(right.next_leaf());
  } else {
    InternalView left(&left_ref.page());
    InternalView right(&right_ref.page());
    const ZKey parent_sep = parent.SeparatorAt(left_idx);
    left.InsertPairAt(left.count(), parent_sep, right.child0());
    const int moved = right.count();
    for (int i = 0; i < moved; ++i) {
      left.InsertPairAt(left.count(), right.SeparatorAt(i),
                        right.ChildAt(i + 1));
    }
  }
  left_ref.MarkDirty();
  parent.RemovePairAt(left_idx);
  // The right page is no longer referenced; the simulated disk has no free
  // list, so it is simply abandoned.
}

BTree::Cursor::Cursor(const BTree* tree) : tree_(tree) {}

bool BTree::Cursor::SeekFirst() {
  return Seek(ZKey{0, 0});
}

bool BTree::Cursor::Seek(const ZKey& key) {
  PageId page_id = tree_->root_;
  PageRef ref = tree_->pool_->Fetch(page_id);
  while (KindOf(ref.page()) != kLeafKind) {
    ++internal_loads_;
    InternalView node(&ref.page());
    page_id = node.ChildAt(node.DescendLeft(key));
    ref = tree_->pool_->Fetch(page_id);
  }
  // Re-landing on the leaf the cursor already sits on is not a new page
  // access: the page is resident (the LRU argument of Section 4), so the
  // paper's "data pages accessed" metric counts it once. The cached
  // image survives for the same reason.
  if (!(valid_ && page_id == leaf_page_)) {
    ++leaf_loads_;
    leaf_entries_seen_ +=
        static_cast<uint64_t>(ref.page().Read<uint16_t>(kCountOffset));
    cache_valid_ = false;
  }
  leaf_ref_ = std::move(ref);
  leaf_page_ = page_id;
  EnsureCache();
  index_ = static_cast<int>(
      std::lower_bound(
          cache_entries_.begin(), cache_entries_.end(), key,
          [](const LeafEntry& e, const ZKey& k) { return e.key < k; }) -
      cache_entries_.begin());
  while (index_ >= static_cast<int>(cache_entries_.size())) {
    if (!AdvanceLeaf()) return false;
    EnsureCache();
  }
  valid_ = true;
  current_ = cache_entries_[static_cast<size_t>(index_)];
  return true;
}

bool BTree::Cursor::Next() {
  assert(valid_);
  return Advance(1);
}

bool BTree::Cursor::Advance(int k) {
  assert(valid_);
  assert(k >= 0);
  index_ += k;
  while (index_ >= LeafCountHeader()) {
    if (!AdvanceLeaf()) return false;
  }
  EnsureCache();
  current_ = cache_entries_[static_cast<size_t>(index_)];
  return true;
}

int BTree::Cursor::RunLengthLE(uint64_t bound) {
  assert(valid_);
  EnsureCache();
  return UpperBoundZ(cache_z_.data() + index_,
                     static_cast<int>(cache_z_.size()) - index_, bound);
}

uint64_t BTree::Cursor::PeekZ(int k) {
  EnsureCache();
  assert(index_ + k < static_cast<int>(cache_z_.size()));
  return cache_z_[static_cast<size_t>(index_ + k)];
}

const LeafEntry& BTree::Cursor::PeekEntry(int k) {
  EnsureCache();
  assert(index_ + k < static_cast<int>(cache_entries_.size()));
  return cache_entries_[static_cast<size_t>(index_ + k)];
}

uint64_t BTree::Cursor::CountWhileLE(uint64_t bound) {
  assert(valid_);
  uint64_t total = 0;
  for (;;) {
    const int count = LeafCountHeader();
    if (index_ == 0 && count > 0 && LeafLastZ() <= bound) {
      // The whole leaf qualifies: take the header count and move on
      // without decoding a single entry — the aggregate pushdown's
      // interior-leaf fast path.
      total += static_cast<uint64_t>(count);
      if (!AdvanceLeaf()) return total;
      continue;
    }
    const int run = RunLengthLE(bound);
    total += static_cast<uint64_t>(run);
    index_ += run;
    if (index_ < count) {
      current_ = cache_entries_[static_cast<size_t>(index_)];
      return total;
    }
    if (!AdvanceLeaf()) return total;
  }
}

bool BTree::Cursor::AdvanceLeaf() {
  const PageId next = leaf_ref_.page().Read<PageId>(kNextLeafOffset);
  if (next == storage::kInvalidPageId) {
    valid_ = false;
    cache_valid_ = false;
    leaf_ref_.Release();
    return false;
  }
  leaf_ref_ = tree_->pool_->Fetch(next);
  leaf_page_ = next;
  ++leaf_loads_;
  leaf_entries_seen_ +=
      static_cast<uint64_t>(leaf_ref_.page().Read<uint16_t>(kCountOffset));
  cache_valid_ = false;
  index_ = 0;
  return true;
}

void BTree::Cursor::EnsureCache() {
  if (cache_valid_) return;
  ReadLeaf(leaf_ref_.page(), &cache_entries_);
  cache_z_.resize(cache_entries_.size());
  for (size_t i = 0; i < cache_entries_.size(); ++i) {
    cache_z_[i] = cache_entries_[i].key.ToZValue().ToInteger();
  }
  cache_valid_ = true;
}

int BTree::Cursor::LeafCountHeader() {
  return leaf_ref_.page().Read<uint16_t>(kCountOffset);
}

uint64_t BTree::Cursor::LeafLastZ() {
  LeafView leaf(&leaf_ref_.page());
  return leaf.Get(leaf.count() - 1).key.ToZValue().ToInteger();
}

std::vector<BTree::LeafSummary> BTree::LeafSequence() {
  // Descend to the leftmost leaf, then follow the chain.
  PageId page_id = root_;
  PageRef ref = pool_->Fetch(page_id);
  while (KindOf(ref.page()) != kLeafKind) {
    page_id = InternalView(&ref.page()).child0();
    ref = pool_->Fetch(page_id);
  }
  std::vector<LeafSummary> leaves;
  for (;;) {
    const LeafView leaf(&ref.page());
    LeafSummary summary;
    summary.entries = leaf.count();
    summary.first_key = leaf.count() > 0 ? leaf.Get(0).key : ZKey{0, 0};
    leaves.push_back(summary);
    const PageId next = leaf.next_leaf();
    if (next == storage::kInvalidPageId) break;
    ref = pool_->Fetch(next);
  }
  return leaves;
}

bool BTree::LeafKindsValid() {
  PageRef ref = pool_->Fetch(root_);
  for (int level = 1; level < height_; ++level) {
    if (KindOf(ref.page()) != kInternalKind) return false;
    ref = pool_->Fetch(InternalView(&ref.page()).child0());
  }
  for (;;) {
    if (KindOf(ref.page()) != kLeafKind) return false;
    const PageId next = LeafView(&ref.page()).next_leaf();
    if (next == storage::kInvalidPageId) return true;
    ref = pool_->Fetch(next);
  }
}

BTreeShape BTree::ComputeShape() {
  BTreeShape shape;
  shape.height = height_;
  std::vector<PageId> level = {root_};
  for (int depth = 0; depth < height_; ++depth) {
    std::vector<PageId> next_level;
    for (PageId id : level) {
      PageRef ref = pool_->Fetch(id);
      if (KindOf(ref.page()) == kLeafKind) {
        ++shape.leaf_pages;
        shape.entries += static_cast<uint64_t>(
            ref.page().Read<uint16_t>(kCountOffset));
      } else {
        ++shape.internal_pages;
        InternalView node(&ref.page());
        for (int i = 0; i <= node.count(); ++i) {
          next_level.push_back(node.ChildAt(i));
        }
      }
    }
    level = std::move(next_level);
  }
  return shape;
}

bool BTree::CheckInvariants() {
  // Walk the leaf chain: keys must be globally non-decreasing, and the
  // number of entries must match size_.
  uint64_t seen = 0;
  Cursor cursor(this);
  ZKey prev{0, 0};
  bool first = true;
  if (cursor.SeekFirst()) {
    do {
      const ZKey k = cursor.entry().key;
      if (!first && k < prev) return false;
      prev = k;
      first = false;
      ++seen;
    } while (cursor.Next());
  }
  if (seen != size_) return false;

  // Structural walk: uniform depth and separator routing.
  struct Frame {
    PageId id;
    int depth;
    ZKey lo;       // inclusive lower bound on keys in this subtree
    bool has_hi;   // whether hi applies
    ZKey hi;       // inclusive upper bound (duplicates may touch it)
  };
  std::vector<Frame> stack = {{root_, 1, ZKey{0, 0}, false, ZKey{0, 0}}};
  while (!stack.empty()) {
    const Frame frame = stack.back();
    stack.pop_back();
    PageRef ref = pool_->Fetch(frame.id);
    if (KindOf(ref.page()) == kLeafKind) {
      if (frame.depth != height_) return false;
      std::vector<LeafEntry> entries;
      ReadLeaf(ref.page(), &entries);
      // Leaves are normally >= half full, but a split that refuses to
      // divide a run of duplicate keys may move its split point off
      // center, so only emptiness is a hard violation here.
      if (frame.id != root_ && entries.empty()) return false;
      for (size_t i = 0; i < entries.size(); ++i) {
        const ZKey k = entries[i].key;
        if (k < frame.lo) return false;
        if (frame.has_hi && frame.hi < k) return false;
        if (i > 0 && k < entries[i - 1].key) return false;
      }
      continue;
    }
    InternalView node(&ref.page());
    // Rightmost bulk-loaded internal nodes may be arbitrarily light, so
    // occupancy below the rebalancing minimum is not a violation; an
    // internal node without separators is (except a leaf-only tree).
    if (node.count() < 1) return false;
    for (int i = 0; i < node.count(); ++i) {
      if (i > 0 && node.SeparatorAt(i) < node.SeparatorAt(i - 1)) return false;
    }
    for (int i = 0; i <= node.count(); ++i) {
      Frame child;
      child.id = node.ChildAt(i);
      child.depth = frame.depth + 1;
      child.lo = i == 0 ? frame.lo : node.SeparatorAt(i - 1);
      if (i < node.count()) {
        child.has_hi = true;
        child.hi = node.SeparatorAt(i);
      } else {
        child.has_hi = frame.has_hi;
        child.hi = frame.hi;
      }
      stack.push_back(child);
    }
  }
  return true;
}

void BTree::PersistentState::EncodeTo(uint8_t* out) const {
  const uint32_t r = root;
  const int32_t h = height;
  const uint64_t s = size;
  std::memcpy(out, &r, 4);
  std::memcpy(out + 4, &h, 4);
  std::memcpy(out + 8, &s, 8);
}

BTree::PersistentState BTree::PersistentState::Decode(const uint8_t* bytes) {
  PersistentState state;
  uint32_t r;
  int32_t h;
  uint64_t s;
  std::memcpy(&r, bytes, 4);
  std::memcpy(&h, bytes + 4, 4);
  std::memcpy(&s, bytes + 8, 8);
  state.root = r;
  state.height = h;
  state.size = s;
  return state;
}

BTree BTree::Attach(storage::BufferPool* pool, const PersistentState& state,
                    const BTreeConfig& config) {
  assert(state.root != storage::kInvalidPageId && state.height >= 1);
  BTree tree(pool, config, AttachTag{});
  tree.root_ = state.root;
  tree.height_ = state.height;
  tree.size_ = state.size;
  return tree;
}

BTree::BulkBuilder::BulkBuilder(storage::BufferPool* pool,
                                const BTreeConfig& config, double fill)
    : pool_(pool),
      config_(config),
      leaf_target_(std::clamp(static_cast<int>(fill * config.leaf_capacity),
                              1, config.leaf_capacity)),
      internal_target_(
          std::clamp(static_cast<int>(fill * config.internal_capacity), 1,
                     config.internal_capacity)) {
  assert(fill > 0.0 && fill <= 1.0);
  pending_.reserve(leaf_target_);
}

void BTree::BulkBuilder::Add(const LeafEntry& entry) {
  assert(!have_last_key_ || !(entry.key < last_key_));
  PROBE_ASSERT_MSG(!have_last_key_ || !(entry.key < last_key_),
                   "bulk-load feed out of z order");
  last_key_ = entry.key;
  have_last_key_ = true;
  pending_.push_back(entry);
  ++total_entries_;
  if (static_cast<int>(pending_.size()) == leaf_target_) CloseLeaf();
}

void BTree::BulkBuilder::CloseLeaf() {
  if (pending_.empty()) return;
  PageId id;
  PageRef ref = pool_->New(&id);
  LeafView leaf(&ref.page());
  leaf.Init();
  for (size_t i = 0; i < pending_.size(); ++i) {
    leaf.Set(static_cast<int>(i), pending_[i]);
  }
  leaf.set_count(static_cast<int>(pending_.size()));
  PROBE_AUDIT(AuditLeafPage(leaf, 1, config_.leaf_capacity));
  ref.MarkDirty();
  if (prev_leaf_ != storage::kInvalidPageId) {
    PageRef prev_ref = pool_->Fetch(prev_leaf_);
    LeafView(&prev_ref.page()).set_next_leaf(id);
    prev_ref.MarkDirty();
  }
  prev_leaf_ = id;
  leaves_.push_back(NodeInfo{id, pending_.front().key, pending_.back().key});
  pending_.clear();
}

BTree BTree::BulkBuilder::Finish() {
  CloseLeaf();
  if (leaves_.empty()) return BTree(pool_, config_);  // empty tree

  // Build internal levels until a single root remains.
  std::vector<NodeInfo> nodes = std::move(leaves_);
  int height = 1;
  while (nodes.size() > 1) {
    std::vector<NodeInfo> parents;
    size_t i = 0;
    while (i < nodes.size()) {
      size_t take = std::min(static_cast<size_t>(internal_target_) + 1,
                             nodes.size() - i);
      // Avoid leaving a lone orphan child for the next parent.
      if (nodes.size() - i - take == 1) --take;
      assert(take >= 1);
      PageId id;
      PageRef ref = pool_->New(&id);
      InternalView node(&ref.page());
      node.Init(nodes[i].id);
      for (size_t j = 1; j < take; ++j) {
        const ZKey sep =
            PrefixSeparator(nodes[i + j - 1].last, nodes[i + j].first);
        node.InsertPairAt(static_cast<int>(j - 1), sep, nodes[i + j].id);
      }
      ref.MarkDirty();
      parents.push_back(
          NodeInfo{id, nodes[i].first, nodes[i + take - 1].last});
      i += take;
    }
    nodes = std::move(parents);
    ++height;
  }

  BTree tree(pool_, config_, AttachTag{});
  tree.root_ = nodes[0].id;
  tree.height_ = height;
  tree.size_ = total_entries_;
  return tree;
}

BTree BTree::BulkLoad(storage::BufferPool* pool,
                      std::span<const LeafEntry> sorted_entries,
                      const BTreeConfig& config, double fill) {
  BulkBuilder builder(pool, config, fill);
  for (const LeafEntry& entry : sorted_entries) builder.Add(entry);
  return builder.Finish();
}

}  // namespace probe::btree
