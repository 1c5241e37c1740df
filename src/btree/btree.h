#ifndef PROBE_BTREE_BTREE_H_
#define PROBE_BTREE_BTREE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "btree/node.h"
#include "btree/zkey.h"
#include "storage/buffer_pool.h"

/// \file
/// A prefix B+-tree over z-value keys — the paper's storage structure.
///
/// "For the experiments we implemented a prefix B+tree to store points in
/// z order" (Section 5.3.2). The tree provides exactly the two access modes
/// the range-search merge needs (Section 3.3): *sequential* access via a
/// chained-leaf cursor and *random* access via Seek. Keys are z values
/// (full-resolution for points, variable-length for elements of decomposed
/// objects); payloads are 64-bit record identifiers. Duplicate keys are
/// allowed.
///
/// Capacities are configured in records per page, so the paper's
/// experimental setup ("page capacity was 20 points") is reproduced by
/// constructing with leaf_capacity = 20.

namespace probe::btree {

/// Tree shape parameters.
struct BTreeConfig {
  /// Max entries per leaf page. Must be in [2, LeafView::kMaxCapacity - 1]
  /// (one slot of slack lets inserts land before splitting).
  int leaf_capacity = LeafView::kMaxCapacity - 1;

  /// Max (separator, child) pairs per internal page. Must be in
  /// [2, InternalView::kMaxCapacity - 1].
  int internal_capacity = InternalView::kMaxCapacity - 1;
};

/// Structural statistics, computed by walking the tree.
struct BTreeShape {
  int height = 0;  // 1 = root is a leaf
  uint32_t leaf_pages = 0;
  uint32_t internal_pages = 0;
  uint64_t entries = 0;
};

/// The prefix B+-tree.
///
/// All page traffic goes through the BufferPool passed at construction, so
/// physical I/O and hit rates are observable there. The pool must have
/// more frames than the tree's height (ancestors stay pinned during
/// structural changes); 16 frames is plenty for any realistic tree.
class BTree {
 public:
  /// Creates an empty tree. The pool must outlive the tree.
  BTree(storage::BufferPool* pool, const BTreeConfig& config = {});

  BTree(const BTree&) = delete;
  BTree& operator=(const BTree&) = delete;
  BTree(BTree&&) = default;
  BTree& operator=(BTree&&) = default;

  /// Inserts (key, payload). Duplicates (same key, even same payload) are
  /// kept; equal keys are stored adjacently in insertion-independent
  /// z order.
  void Insert(const ZKey& key, uint64_t payload);

  /// Removes one entry equal to (key, payload). Returns false if absent.
  bool Delete(const ZKey& key, uint64_t payload);

  /// Number of entries.
  uint64_t size() const { return size_; }

  /// Levels in the tree (1 when the root is a leaf).
  int height() const { return height_; }

  /// Walks the tree to count pages/entries per level.
  BTreeShape ComputeShape();

  /// Verifies structural invariants (ordering, separator routing, leaf
  /// chain, occupancy). Returns false and stops at the first violation.
  /// Intended for tests.
  bool CheckInvariants();

  /// One entry per leaf page, in chain order: the leaf's first key and its
  /// entry count. Used to reconstruct the partitioning of space induced by
  /// page boundaries (Figure 6).
  struct LeafSummary {
    ZKey first_key;
    int entries = 0;
  };
  std::vector<LeafSummary> LeafSequence();

  /// Follows child0 down height() - 1 levels, then the whole leaf chain,
  /// and returns false at the first page whose kind byte is not the one
  /// expected there (kInternalKind on the path, kLeafKind in the chain).
  /// A re-opened tree runs this once: a page of any other layout would
  /// otherwise be read as an internal node, its bytes taken as child ids.
  bool LeafKindsValid();

  storage::BufferPool* pool() const { return pool_; }
  const BTreeConfig& config() const { return config_; }

  /// Forward iterator over entries in z order.
  ///
  /// A cursor supports the two access patterns of Section 3.3: Next()
  /// (sequential: follows the leaf chain) and Seek() (random: descends
  /// from the root to the leftmost entry with key >= target). leaf_loads()
  /// counts leaf pages entered, which is the "data pages accessed" metric
  /// of the paper's experiments.
  ///
  /// Cursors never mutate the tree (they take it const); page traffic goes
  /// through the tree's BufferPool, which is safe for concurrent readers.
  /// Any number of cursors — on any threads — may therefore iterate one
  /// tree at once, as long as no Insert/Delete runs concurrently. Each
  /// cursor holds a thread-local pin on its current leaf.
  class Cursor {
   public:
    explicit Cursor(const BTree* tree);

    /// Positions at the smallest entry. Returns false if the tree is empty.
    bool SeekFirst();

    /// Positions at the leftmost entry with key >= `key` (lower bound).
    /// Returns false if no such entry exists.
    bool Seek(const ZKey& key);

    /// True when positioned on an entry.
    bool Valid() const { return valid_; }

    /// The current entry. Requires Valid().
    const LeafEntry& entry() const { return current_; }

    /// Advances to the next entry in z order. Returns false at the end.
    bool Next();

    /// Leaf pages entered by this cursor so far (each arrival at a leaf
    /// counts once; re-reading entries of the current leaf is free).
    uint64_t leaf_loads() const { return leaf_loads_; }

    /// Internal (non-leaf) pages touched by Seek descents.
    uint64_t internal_loads() const { return internal_loads_; }

    /// Total entries residing on the leaves entered so far (counted once
    /// per arrival). With leaf_loads() and the query's result count this
    /// yields the paper's "efficiency" measure: how much of the retrieved
    /// data was relevant.
    uint64_t leaf_entries_seen() const { return leaf_entries_seen_; }

    /// Length of the run of entries on the *current leaf*, starting at the
    /// cursor, whose full-resolution z integers are <= `bound`. Backed by
    /// the SIMD interval filter over the leaf's cached z array; scalar
    /// and vector paths return identical values. Requires Valid().
    int RunLengthLE(uint64_t bound);

    /// z integer / entry `k` positions ahead on the current leaf (0 = the
    /// cursor position). Requires k < the current leaf's remaining count.
    uint64_t PeekZ(int k);
    const LeafEntry& PeekEntry(int k);

    /// Advances by `k` entries; `k` may be at most the current leaf's
    /// remaining count (crossing into the next leaf when it lands exactly
    /// past the end). Returns false at the end of the tree.
    bool Advance(int k);

    /// Counts entries with z integer <= `bound` from the cursor forward,
    /// leaving the cursor on the first entry past the bound (or invalid
    /// at the end). Leaves fully below the bound are counted from their
    /// header alone — no entry is decoded or materialized — which is the
    /// aggregate pushdown's fast path.
    uint64_t CountWhileLE(uint64_t bound);

   private:
    bool AdvanceLeaf();
    void EnsureCache();
    int LeafCountHeader();
    uint64_t LeafLastZ();

    const BTree* tree_;
    storage::PageRef leaf_ref_;  // pin on the current leaf
    storage::PageId leaf_page_ = storage::kInvalidPageId;
    int index_ = 0;
    LeafEntry current_;
    bool valid_ = false;
    // Image of the current leaf, built lazily on first entry access and
    // reused until the cursor leaves the page: the fixed-width entries
    // plus their full-resolution z integers in one contiguous array, which
    // the SIMD run filter and the merge loop read.
    std::vector<LeafEntry> cache_entries_;
    std::vector<uint64_t> cache_z_;
    bool cache_valid_ = false;
    uint64_t leaf_loads_ = 0;
    uint64_t internal_loads_ = 0;
    uint64_t leaf_entries_seen_ = 0;
  };

  /// Builds a tree from entries already sorted by (key, payload).
  /// `fill` in (0, 1] is the leaf/internal occupancy (1.0 = packed full).
  static BTree BulkLoad(storage::BufferPool* pool,
                        std::span<const LeafEntry> sorted_entries,
                        const BTreeConfig& config = {}, double fill = 1.0);

  /// The durable identity of a tree: everything needed to re-open it over
  /// the same page store (pages must have been flushed; the state itself
  /// is the caller's to persist, e.g. in a superblock, catalog, or the
  /// metadata blob of a WAL commit record).
  struct PersistentState {
    storage::PageId root = storage::kInvalidPageId;
    int height = 0;
    uint64_t size = 0;

    /// Fixed-width little-endian encoding (root, height, size).
    static constexpr size_t kEncodedBytes = 16;

    /// Serializes into `out[0, kEncodedBytes)`.
    void EncodeTo(uint8_t* out) const;

    /// Inverse of EncodeTo.
    static PersistentState Decode(const uint8_t* bytes);
  };

  /// Snapshot of the tree's identity. Call pool()->FlushAll() (and sync
  /// the pager) before persisting it.
  PersistentState DetachState() const { return {root_, height_, size_}; }

  /// Re-opens a tree previously described by DetachState() over a pool
  /// whose pager holds the flushed pages. The config must match the one
  /// the tree was built with.
  static BTree Attach(storage::BufferPool* pool, const PersistentState& state,
                      const BTreeConfig& config = {});

  /// Streaming bulk loader: feed entries in (key, payload) order, one at a
  /// time, and Finish() returns the packed tree. BulkLoad is a convenience
  /// wrapper over this; external sorting pipes its merge output straight
  /// in, so an index build never holds the sorted data in memory.
  class BulkBuilder {
   public:
    BulkBuilder(storage::BufferPool* pool, const BTreeConfig& config = {},
                double fill = 1.0);

    /// Adds the next entry; keys must be non-decreasing (asserted).
    void Add(const LeafEntry& entry);

    /// Completes the tree. The builder must not be reused afterwards.
    BTree Finish();

   private:
    struct NodeInfo {
      storage::PageId id;
      ZKey first;
      ZKey last;
    };

    void CloseLeaf();

    storage::BufferPool* pool_;
    BTreeConfig config_;
    int leaf_target_;
    int internal_target_;
    std::vector<NodeInfo> leaves_;
    std::vector<LeafEntry> pending_;  // entries of the open leaf
    storage::PageId prev_leaf_ = storage::kInvalidPageId;
    uint64_t total_entries_ = 0;
    bool have_last_key_ = false;
    ZKey last_key_;
  };

 private:
  // Tag constructor for Attach: does not allocate a root page.
  struct AttachTag {};
  BTree(storage::BufferPool* pool, const BTreeConfig& config, AttachTag)
      : pool_(pool), config_(config), root_(storage::kInvalidPageId),
        height_(0) {}

  struct SplitResult {
    bool split = false;
    ZKey separator;
    storage::PageId new_page = storage::kInvalidPageId;
  };

  // Recursive insert; fills `*result` when `page_id` split.
  void InsertRec(storage::PageId page_id, const ZKey& key, uint64_t payload,
                 SplitResult* result);

  // Recursive delete. Returns true if an entry was removed; sets
  // `*underflow` when `page_id` fell below its minimum occupancy.
  bool DeleteRec(storage::PageId page_id, const ZKey& key, uint64_t payload,
                 bool* underflow);

  // Rebalances the underfull child at position `child_idx` of `parent`.
  void FixUnderflow(InternalView& parent, int child_idx);

  int MinLeafCount() const { return config_.leaf_capacity / 2; }
  int MinInternalCount() const { return config_.internal_capacity / 2; }

  storage::BufferPool* pool_;
  BTreeConfig config_;
  storage::PageId root_;
  int height_;
  uint64_t size_ = 0;
};

}  // namespace probe::btree

#endif  // PROBE_BTREE_BTREE_H_
