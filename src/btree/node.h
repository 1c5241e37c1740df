#ifndef PROBE_BTREE_NODE_H_
#define PROBE_BTREE_NODE_H_

#include <cstdint>

#include "btree/zkey.h"
#include "storage/page.h"

/// \file
/// On-page node layouts of the prefix B+-tree.
///
/// Two node kinds share a small header:
///   byte 0      : kind (0 = leaf, 1 = internal)
///   bytes 2..3  : entry count (uint16)
///   bytes 4..7  : leaf only — PageId of the next leaf (the chain that
///                 gives the sequential access the merge algorithms need)
/// Leaf entries are (key.raw, key.len, payload) records; internal nodes
/// hold a leftmost child followed by (separator, child) entries where the
/// separator is a *prefix-truncated* key (the "prefix B+-tree" of the
/// paper's experimental setup): the shortest z-value prefix that routes
/// correctly, which both shrinks separators and aligns them with element
/// boundaries.
///
/// These views do not own the page; they are cheap stamps over a pinned
/// buffer frame.

namespace probe::btree {

/// Node kind tags.
inline constexpr uint8_t kLeafKind = 0;
inline constexpr uint8_t kInternalKind = 1;

/// Byte offsets of the common header.
inline constexpr size_t kKindOffset = 0;
inline constexpr size_t kCountOffset = 2;
inline constexpr size_t kNextLeafOffset = 4;
inline constexpr size_t kEntriesOffset = 12;

/// A (key, payload) record in a leaf.
struct LeafEntry {
  ZKey key;
  uint64_t payload = 0;
};

/// Read/write view of a leaf page.
class LeafView {
 public:
  /// Bytes per leaf entry: key raw (8) + key len (1) + payload (8).
  static constexpr size_t kEntryBytes = 17;

  /// Largest entry count a page can physically hold.
  static constexpr int kMaxCapacity =
      static_cast<int>((storage::Page::kSize - kEntriesOffset) / kEntryBytes);

  explicit LeafView(storage::Page* page) : page_(page) {}

  /// Stamps a fresh page as an empty leaf.
  void Init();

  bool IsLeaf() const { return page_->Read<uint8_t>(kKindOffset) == kLeafKind; }
  int count() const { return page_->Read<uint16_t>(kCountOffset); }
  void set_count(int n) {
    page_->Write<uint16_t>(kCountOffset, static_cast<uint16_t>(n));
  }

  storage::PageId next_leaf() const {
    return page_->Read<storage::PageId>(kNextLeafOffset);
  }
  void set_next_leaf(storage::PageId id) {
    page_->Write<storage::PageId>(kNextLeafOffset, id);
  }

  LeafEntry Get(int i) const;
  void Set(int i, const LeafEntry& entry);

  /// Inserts at position `i`, shifting later entries right.
  void InsertAt(int i, const LeafEntry& entry);

  /// Removes position `i`, shifting later entries left.
  void RemoveAt(int i);

  /// First position whose key is >= `key` (by z order); count() if none.
  int LowerBound(const ZKey& key) const;

 private:
  storage::Page* page_;
};

/// Read/write view of an internal page.
class InternalView {
 public:
  /// Bytes per (separator, child) entry: sep raw (8) + sep len (1) +
  /// child id (4).
  static constexpr size_t kEntryBytes = 13;
  /// The leftmost child id sits first in the entry area.
  static constexpr size_t kChild0Offset = kEntriesOffset;
  static constexpr size_t kPairsOffset = kChild0Offset + sizeof(uint32_t);

  static constexpr int kMaxCapacity =
      static_cast<int>((storage::Page::kSize - kPairsOffset) / kEntryBytes);

  explicit InternalView(storage::Page* page) : page_(page) {}

  /// Stamps a fresh page as an internal node with the given leftmost child.
  void Init(storage::PageId child0);

  bool IsLeaf() const { return page_->Read<uint8_t>(kKindOffset) == kLeafKind; }
  /// Number of (separator, child) pairs; the node has count()+1 children.
  int count() const { return page_->Read<uint16_t>(kCountOffset); }
  void set_count(int n) {
    page_->Write<uint16_t>(kCountOffset, static_cast<uint16_t>(n));
  }

  storage::PageId child0() const {
    return page_->Read<storage::PageId>(kChild0Offset);
  }
  void set_child0(storage::PageId id) {
    page_->Write<storage::PageId>(kChild0Offset, id);
  }

  ZKey SeparatorAt(int i) const;
  storage::PageId ChildAt(int i) const;  // i in [0, count()]; 0 = child0
  void SetSeparator(int i, const ZKey& key);
  void SetPair(int i, const ZKey& sep, storage::PageId child);

  /// Inserts pair (sep, child) at position `i`.
  void InsertPairAt(int i, const ZKey& sep, storage::PageId child);

  /// Removes pair `i` (separator i and the child to its right).
  void RemovePairAt(int i);

  /// Child index to descend into when looking for the *leftmost* entry with
  /// key >= `key`: the child after the last separator that is < key.
  int DescendLeft(const ZKey& key) const;

  /// Child index for inserts: the child after the last separator <= key,
  /// so duplicates append to the right.
  int DescendRight(const ZKey& key) const;

 private:
  storage::Page* page_;
};

/// Shortest z-value prefix p of `right` with `left` < p (and, since a
/// prefix never exceeds its extension, p <= right). Used as the separator
/// pushed up when a node is split between keys `left` and `right`; this is
/// the prefix truncation that gives the prefix B+-tree its name. Requires
/// left < right; when left == right (a run of duplicate keys is being
/// split) returns `right` itself.
ZKey PrefixSeparator(const ZKey& left, const ZKey& right);

}  // namespace probe::btree

#endif  // PROBE_BTREE_NODE_H_
