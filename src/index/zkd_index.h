#ifndef PROBE_INDEX_ZKD_INDEX_H_
#define PROBE_INDEX_ZKD_INDEX_H_

#include <cstdint>
#include <iterator>
#include <optional>
#include <span>
#include <vector>

#include "btree/btree.h"
#include "btree/external_sort.h"
#include "decompose/decomposer.h"
#include "decompose/generator.h"
#include "geometry/box.h"
#include "geometry/object.h"
#include "geometry/point.h"
#include "geometry/primitives.h"
#include "probe/check.h"
#include "util/thread_pool.h"
#include "zorder/grid.h"

/// \file
/// The zkd B+-tree: the paper's point index and its range-search merge.
///
/// Points are stored in a prefix B+-tree keyed by their full-resolution z
/// values (Section 3.3 step 1). A query object is decomposed into elements
/// on demand (steps 2); the merge of the point sequence P and the element
/// sequence B (step 3) — with the random-access skipping optimization —
/// answers the query. Three merge strategies are provided so the benches
/// can ablate the optimizations the paper describes:
///
///  * kSkipMerge  — the paper's algorithm: lazy element generation plus
///                  two-sided random-access skipping.
///  * kPlainMerge — the unoptimized O(|P| + |B|) merge of step 3, scanning
///                  both sequences end to end.
///  * kBigMin     — no decomposition at all: skip directly with the
///                  BIGMIN computation over the query box's z range.

namespace probe::index {

/// A point plus its record identifier.
struct PointRecord {
  geometry::GridPoint point;
  uint64_t id = 0;
};

/// A matching point with its record identifier: one row of a BOX answer,
/// in the answer's z order.
struct Row {
  uint64_t id = 0;
  geometry::GridPoint point;
};

/// Work and I/O counters for one query.
struct QueryStats {
  /// Leaf ("data") pages entered — the paper's page-access metric.
  uint64_t leaf_pages = 0;
  /// Internal pages touched by Seek descents.
  uint64_t internal_pages = 0;
  /// Entries whose z the merge compared: one per entry the merge steps
  /// onto (an entry that ran past an element counts again when the next
  /// element re-examines it), plus the rest of each consumed run. An
  /// element counted wholesale (contained_elements) adds only its first.
  uint64_t points_scanned = 0;
  /// Elements of the query object produced by the generator.
  uint64_t elements_generated = 0;
  /// Classifier calls spent producing those elements.
  uint64_t classify_calls = 0;
  /// Random accesses (Seek) performed on the point sequence.
  uint64_t point_seeks = 0;
  /// Matching points reported.
  uint64_t results = 0;
  /// Entries residing on the leaf pages entered.
  uint64_t entries_on_touched_pages = 0;
  /// Aggregate pushdown: elements counted wholesale — their entries were
  /// summed from run lengths and page headers, never decoded into rows.
  uint64_t contained_elements = 0;
  /// Rows an aggregate had to materialize and verify individually (only
  /// depth-capped decompositions, whose boundary elements overcover).
  uint64_t materialized_rows = 0;

  bool operator==(const QueryStats&) const = default;

  /// Adds every counter of `other` (partitions and shards of one query).
  QueryStats& operator+=(const QueryStats& other) {
    leaf_pages += other.leaf_pages;
    internal_pages += other.internal_pages;
    points_scanned += other.points_scanned;
    elements_generated += other.elements_generated;
    classify_calls += other.classify_calls;
    point_seeks += other.point_seeks;
    results += other.results;
    entries_on_touched_pages += other.entries_on_touched_pages;
    contained_elements += other.contained_elements;
    materialized_rows += other.materialized_rows;
    return *this;
  }

  /// The paper's efficiency measure: fraction of retrieved data that was
  /// relevant (results / entries_on_touched_pages); 1 when nothing was
  /// retrieved.
  double Efficiency() const {
    if (entries_on_touched_pages == 0) return 1.0;
    return static_cast<double>(results) /
           static_cast<double>(entries_on_touched_pages);
  }
};

/// Options for RangeSearch / SearchObject.
struct SearchOptions {
  enum class Merge { kSkipMerge, kPlainMerge, kBigMin };
  Merge merge = Merge::kSkipMerge;

  /// Decomposition depth cap passed to the element generator (-1 = full
  /// resolution). Coarser caps trade extra candidate verification for
  /// fewer elements; with verification enabled results stay exact.
  int max_element_depth = -1;

  /// Verify each candidate point against the query object before reporting
  /// it. Required for exactness when max_element_depth caps decomposition
  /// (boundary elements may cover non-matching cells); free for boxes at
  /// full depth where elements are exact.
  bool verify_candidates = true;
};

/// The one ordered gather: runs `parts` independent parts on `pool` — part
/// k as `part(k, &stats_k)`, returning a vector — concatenates the vectors
/// in part order and adds every part's counters to `*stats` (may be null).
/// When part k's z interval precedes part k+1's and each part answers in z
/// order, the concatenation is the serial answer; nothing is sorted.
template <typename T, typename Part>
std::vector<T> GatherInOrder(util::ThreadPool& pool, size_t parts,
                             QueryStats* stats, const Part& part) {
  std::vector<std::vector<T>> partial(parts);
  std::vector<QueryStats> partial_stats(parts);
  pool.ParallelFor(parts, [&](size_t k) {
    partial[k] = part(k, &partial_stats[k]);
  });
  size_t total = 0;
  for (const auto& p : partial) total += p.size();
  std::vector<T> out;
  out.reserve(total);
  for (size_t k = 0; k < parts; ++k) {
    out.insert(out.end(), std::make_move_iterator(partial[k].begin()),
               std::make_move_iterator(partial[k].end()));
    if (stats != nullptr) *stats += partial_stats[k];
  }
  return out;
}

/// Point index over a z-ordered prefix B+-tree.
class ZkdIndex {
 public:
  /// Creates an empty index. The pool must outlive the index.
  ZkdIndex(const zorder::GridSpec& grid, storage::BufferPool* pool,
           const btree::BTreeConfig& config = {});

  ZkdIndex(ZkdIndex&&) = default;

  /// Bulk-loads an index from `points` (any order; sorted internally).
  static ZkdIndex Build(const zorder::GridSpec& grid,
                        storage::BufferPool* pool,
                        std::span<const PointRecord> points,
                        const btree::BTreeConfig& config = {},
                        double fill = 1.0);

  /// Bulk-loads via external merge sort: at most `memory_budget` records
  /// are held in memory at once; sorted runs spill to `scratch` and the
  /// merge feeds the tree builder directly ("existing sort utilities can
  /// be used to create z ordered sequences", Section 4 — at any scale).
  /// `sort_stats` may be null.
  static ZkdIndex BuildExternal(const zorder::GridSpec& grid,
                                storage::BufferPool* pool,
                                std::span<const PointRecord> points,
                                storage::Pager* scratch, size_t memory_budget,
                                const btree::BTreeConfig& config = {},
                                double fill = 1.0,
                                btree::ExternalSortStats* sort_stats = nullptr);

  /// Snapshot of the underlying tree's durable identity. Flush the pool
  /// (and sync the pager) before persisting it; see BTree::DetachState.
  btree::BTree::PersistentState DetachState() const {
    return tree_.DetachState();
  }

  /// Re-opens an index previously described by DetachState() over a pool
  /// whose pager holds the flushed pages — the reopen half of the
  /// durability story (recovery hands this the state blob of the last
  /// committed batch). Grid and config must match the original build.
  static ZkdIndex Attach(const zorder::GridSpec& grid,
                         storage::BufferPool* pool,
                         const btree::BTree::PersistentState& state,
                         const btree::BTreeConfig& config = {});

  /// Inserts one point (step 1 of Section 3.3: shuffle, then store).
  void Insert(const geometry::GridPoint& point, uint64_t id);

  /// Removes one (point, id) entry; false if absent.
  bool Delete(const geometry::GridPoint& point, uint64_t id);

  /// Range query: ids of all points inside `box` (Figure 5). `stats` may
  /// be null.
  std::vector<uint64_t> RangeSearch(const geometry::GridBox& box,
                                    QueryStats* stats = nullptr,
                                    const SearchOptions& options = {}) const;

  /// General spatial search: ids of all points inside an arbitrary object
  /// (the object is decomposed on demand). kBigMin is not applicable here;
  /// it falls back to kSkipMerge.
  std::vector<uint64_t> SearchObject(const geometry::SpatialObject& object,
                                     QueryStats* stats = nullptr,
                                     const SearchOptions& options = {}) const;

  /// COUNT(*) over the z interval [zlo, zhi] (inclusive, full-resolution
  /// integers): counts entries without materializing any row. Leaves
  /// wholly inside the interval contribute their header count alone —
  /// no entry on them is even decoded.
  uint64_t CountRange(uint64_t zlo, uint64_t zhi,
                      QueryStats* stats = nullptr) const;

  /// COUNT(*) of points inside `box` — the aggregate pushdown. At full
  /// decomposition depth every element is exactly contained in the box,
  /// so each element's points are counted via CountRange-style run and
  /// header arithmetic (stats->contained_elements) and zero rows are
  /// materialized. A depth-capped decomposition must verify candidates,
  /// so its rows materialize (stats->materialized_rows) but the count
  /// stays exact. Matches RangeSearch(...).size() bit for bit.
  uint64_t CountBox(const geometry::GridBox& box, QueryStats* stats = nullptr,
                    const SearchOptions& options = {}) const;

  /// Partial-match query (Section 5.3.1): `fixed[i]` pins attribute i to a
  /// value; unset attributes are unrestricted.
  std::vector<uint64_t> PartialMatch(
      std::span<const std::optional<uint32_t>> fixed,
      QueryStats* stats = nullptr, const SearchOptions& options = {}) const;

  /// Partitioned range query. The query box's z span is cut into
  /// `partitions` contiguous z intervals (split points snapped into the box
  /// with BIGMIN); each partition runs the ordinary merge over the elements
  /// whose z range *starts* inside it — elements are disjoint z intervals
  /// (Section 3.2), so every element is owned by exactly one partition and
  /// no point is reported twice. Partitions execute concurrently on `pool`
  /// and the per-partition results are concatenated in z order: the output
  /// is bitwise-identical to RangeSearch. `partitions` <= 0 uses one per
  /// pool lane. kPlainMerge has no partitioned form and is run as
  /// kSkipMerge; kBigMin partitions the same way over its point skips.
  /// Cumulative `stats` are summed over partitions (page counts include
  /// pages touched by several partitions once per partition).
  std::vector<uint64_t> ParallelRangeSearch(
      const geometry::GridBox& box, util::ThreadPool& pool,
      int partitions = 0, QueryStats* stats = nullptr,
      const SearchOptions& options = {}) const;

  /// Partitioned general spatial search: ParallelRangeSearch for an
  /// arbitrary object. The whole z span of the space is partitioned (an
  /// object has no precomputed corner z values); element ownership and
  /// result order are as in ParallelRangeSearch — output is identical to
  /// SearchObject. kBigMin is not applicable and falls back to kSkipMerge.
  std::vector<uint64_t> ParallelSearchObject(
      const geometry::SpatialObject& object, util::ThreadPool& pool,
      int partitions = 0, QueryStats* stats = nullptr,
      const SearchOptions& options = {}) const;

  /// The Section 3.3 skip merge — its one implementation. It merges the
  /// point sequence P (the B+-tree) with the lazily generated elements B of
  /// `object`, with random access on both sides, over the elements whose z
  /// range starts inside the owned interval [owned_lo, owned_hi] (a
  /// partition of a parallel query; the default owns every element).
  ///
  /// Step contract: Step() advances B (SeekForward) and P (Seek) until the
  /// tree cursor sits on an entry inside the current element; the caller
  /// then consumes a non-empty prefix of that element's entries — a run
  /// (TakeRun), the whole element (TakeElement) or one entry (Next) — and
  /// steps again. The merge owns the candidate check (verification of
  /// depth-capped boundary elements) and every counter, so each way of
  /// consuming does the same work and reports the same QueryStats.
  ///
  /// A cursor is one query for the metrics registry: it flushes its
  /// counters when it dies, unless TakeStats() handed them to a caller
  /// that reports them as part of a larger query.
  class RangeCursor {
   public:
    /// The index and object must outlive the cursor. `options.merge` is
    /// not consulted: this is the skip merge.
    RangeCursor(const ZkdIndex& index, const geometry::SpatialObject& object,
                const SearchOptions& options = {}, uint64_t owned_lo = 0,
                uint64_t owned_hi = ~0ULL);
    /// Box form: the cursor keeps its own BoxObject; only the index must
    /// outlive it.
    RangeCursor(const ZkdIndex& index, const geometry::GridBox& box,
                const SearchOptions& options = {});
    ~RangeCursor();

    RangeCursor(const RangeCursor&) = delete;
    RangeCursor& operator=(const RangeCursor&) = delete;

    /// Positions the tree cursor on the next entry inside an element.
    /// False when the merge is done (and on every later call).
    bool Step();

    /// Consumes the current element's entries on the current leaf (at
    /// least one), appending the id of each that passes the candidate
    /// check to `ids` (null: count only). Returns the run length.
    int TakeRun(std::vector<uint64_t>* ids);

    /// Counts all of the current element's entries without decoding a row
    /// (run and leaf-header arithmetic), for callers that need no
    /// candidate check — see verify(). Returns the count.
    uint64_t TakeElement();

    /// True when candidates must be verified against the object: only a
    /// depth-capped decomposition has elements that overcover.
    bool verify() const { return verify_; }

    /// Streaming form: the next match in ascending z order, one entry per
    /// step. False at the end. `point` may be null when only ids are
    /// wanted.
    bool Next(uint64_t* id, geometry::GridPoint* point = nullptr);

    /// Work counters so far (results counts the matches taken).
    QueryStats stats() const;

    /// The counters, with the duty to report them: the cursor no longer
    /// flushes them to the registry when it dies.
    QueryStats TakeStats();

   private:
    RangeCursor(const ZkdIndex& index, const geometry::GridBox* box,
                const geometry::SpatialObject* object,
                const SearchOptions& options, uint64_t owned_lo,
                uint64_t owned_hi);

    // Moves B to the first element ending at or after `target` that this
    // cursor owns; false when there is none.
    bool NextElement(uint64_t target);
    // Candidate check for one entry of the current element.
    bool Matches(const btree::LeafEntry& entry) const;
    // Bookkeeping after the caller consumed `n` entries of the element.
    void Consumed(int n);

    const ZkdIndex& index_;
    std::optional<geometry::BoxObject> box_;
    const geometry::SpatialObject& object_;
    const bool verify_;
    const uint64_t owned_lo_;
    const uint64_t owned_hi_;
    decompose::ElementGenerator generator_;
    btree::BTree::Cursor cursor_;
    uint64_t zlo_ = 0;
    uint64_t zhi_ = 0;
    bool have_point_ = false;
    bool positioned_ = false;  // Step() returned true; nothing taken yet
    bool report_ = true;       // flush the counters at destruction
    QueryStats counted_;       // the counters the merge keeps itself
    // Audit state: B advances strictly in z; matches never move back.
    check::ZMonotone element_order_{/*strict=*/true};
    check::ZMonotone report_order_{/*strict=*/false};
  };

  /// First key of every leaf page, in z order, plus per-leaf entry counts.
  /// The bench for Figure 6 maps grid cells to leaves with this to draw the
  /// partitioning of space induced by page boundaries.
  struct LeafInfo {
    btree::ZKey first_key;
    int entries = 0;
  };
  std::vector<LeafInfo> LeafPartitions() const;

  uint64_t size() const { return tree_.size(); }
  const zorder::GridSpec& grid() const { return grid_; }

  /// The underlying B+-tree. Cursors mutate buffer-pool state, so the
  /// reference is non-const even from a const index (tree_ is mutable).
  btree::BTree& tree() const { return tree_; }

 private:
  // Tag constructor for Attach: adopts an existing tree instead of
  // creating an empty one.
  ZkdIndex(const zorder::GridSpec& grid, btree::BTree&& tree)
      : grid_(grid), tree_(std::move(tree)) {}

  std::vector<uint64_t> SearchDecomposed(const geometry::SpatialObject& object,
                                         QueryStats* stats,
                                         const SearchOptions& options) const;
  std::vector<uint64_t> SearchBigMin(const geometry::GridBox& box,
                                     QueryStats* stats) const;

  // One partition of the BIGMIN merge: scans points with z in
  // [from, upto] against the box [zmin, zmax] corners.
  void BigMinPartition(uint64_t zmin, uint64_t zmax, uint64_t from,
                       uint64_t upto, std::vector<uint64_t>* results,
                       QueryStats* stats) const;

  // Shared fan-out: splits ownership of the element sequence at
  // `split_points` (ascending) and merges partitions on `pool`.
  std::vector<uint64_t> ParallelDecomposed(
      const geometry::SpatialObject& object,
      std::span<const uint64_t> split_points, util::ThreadPool& pool,
      QueryStats* stats, const SearchOptions& options) const;

  zorder::GridSpec grid_;
  mutable btree::BTree tree_;
};

}  // namespace probe::index

#endif  // PROBE_INDEX_ZKD_INDEX_H_
