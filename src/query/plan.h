#ifndef PROBE_QUERY_PLAN_H_
#define PROBE_QUERY_PLAN_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "baseline/bucket_kdtree.h"
#include "decompose/decomposer.h"
#include "geometry/box.h"
#include "geometry/object.h"
#include "geometry/point.h"
#include "index/zkd_index.h"
#include "obs/trace.h"
#include "relational/catalog.h"
#include "relational/relation.h"
#include "util/thread_pool.h"
#include "zorder/grid.h"

namespace probe::storage {
class BufferPool;
}  // namespace probe::storage

/// \file
/// Physical plan nodes: a pull-based (volcano) iterator tree.
///
/// Every node exposes Open / Next / Close and streams tuples to its
/// parent. Leaf scans wrap the existing access paths (zkd merge, parallel
/// partitioned merge, bucket kd tree, k-NN best-first); interior nodes are
/// the relational operators (filter/refinement, project, limit, Decompose,
/// merge spatial join). Blocking operators (join, project-with-dedup,
/// Decompose) materialize in Open and stream from the result — the merge
/// join needs both inputs sorted, exactly as the paper's sort-merge
/// formulation expects.
///
/// Each node carries a NodeStats block: the planner writes the estimated
/// side (pages, elements, the parameters it chose), execution fills the
/// actual side (pages touched, elements generated, rows, time). EXPLAIN
/// renders the tree with both, so estimated-vs-actual drift is visible per
/// operator.

namespace probe::query {

/// Estimated and measured work for one plan node.
struct NodeStats {
  /// Physical operator name, e.g. "ParallelRangeScan".
  std::string op;
  /// Planner-chosen parameters, e.g. "threads=4 depth=full".
  std::string detail;

  /// True when the planner attached a cost estimate.
  bool has_estimate = false;
  uint64_t est_pages = 0;
  uint64_t est_elements = 0;

  /// True once the node has executed (Open reached).
  bool executed = false;
  uint64_t actual_pages = 0;
  uint64_t actual_elements = 0;
  /// Rows this node returned to its parent.
  uint64_t rows = 0;
  /// Time spent inside this node's own work (materialization for blocking
  /// nodes, cumulative streaming for leaf scans); 0 for pass-through
  /// nodes.
  double ms = 0.0;

  /// True when a BufferPool was attached (AttachInstrumentation) and this
  /// node sampled it across its Open..Close window. Only scan nodes that
  /// read through the pool open a window; for a serial plan the window is
  /// exact (misses == physical reads this node caused), for parallel scans
  /// it may include traffic from sibling partitions of the same query.
  bool has_pool_stats = false;
  uint64_t pool_misses = 0;
  uint64_t pool_hits = 0;

  /// True for aggregate-pushdown nodes: `contained_elements` counts the
  /// decomposed elements answered purely from leaf headers and entry
  /// counts, `materialized_rows` the rows that still had to be decoded and
  /// verified (boundary elements under a depth cap). A fully contained
  /// query reports zero materialized rows.
  bool has_aggregate = false;
  uint64_t contained_elements = 0;
  uint64_t materialized_rows = 0;
};

/// A physical operator in the volcano tree.
///
/// The iteration surface (Open/Next/Close) is non-virtual: the base class
/// owns the bookkeeping every operator needs — the executed flag, the row
/// count, the optional buffer-pool window and trace span — and delegates
/// the actual work to the DoOpen/DoNext/DoClose hooks. Operators implement
/// only the hooks, so no node can forget (or double-count) its stats.
class PlanNode {
 public:
  virtual ~PlanNode() = default;

  /// Prepares the node for iteration (blocking nodes do their work here):
  /// marks the node executed, opens its trace span and pool window when
  /// instrumentation is attached, then runs DoOpen. Children are opened by
  /// the operators that consume them (from DoOpen), not implicitly.
  void Open();

  /// Produces the next tuple; false at end of stream. `out` must not be
  /// null. Rows are counted here.
  bool Next(relational::Tuple* out);

  /// Releases resources: runs DoClose, finalizes the pool window and trace
  /// span, then closes the children. Idempotent.
  void Close();

  /// Schema of the tuples this node produces (valid after construction).
  virtual const relational::Schema& schema() const = 0;

  /// Attaches a buffer pool and/or trace to this subtree (either may be
  /// null). Scan nodes sample `pool`'s counters at Open and Close and
  /// report the delta in stats(); every node contributes a trace span
  /// spanning its Open..Close lifetime. Call before Open; both must
  /// outlive the plan's execution.
  void AttachInstrumentation(const storage::BufferPool* pool,
                             obs::Trace* trace);

  NodeStats& stats() { return stats_; }
  const NodeStats& stats() const { return stats_; }

  int child_count() const { return static_cast<int>(children_.size()); }
  PlanNode* child(int i) const { return children_[static_cast<size_t>(i)].get(); }

 protected:
  /// The operator hooks. DoClose defaults to nothing (the base Close
  /// already closes children).
  virtual void DoOpen() = 0;
  virtual bool DoNext(relational::Tuple* out) = 0;
  virtual void DoClose() {}

  void AddChild(std::unique_ptr<PlanNode> child) {
    children_.push_back(std::move(child));
  }

  std::vector<std::unique_ptr<PlanNode>> children_;
  NodeStats stats_;
  /// Scan nodes that read pages through the buffer pool set this in their
  /// constructor; the base then samples the attached pool around the
  /// node's Open..Close window.
  bool wants_pool_window_ = false;

 private:
  const storage::BufferPool* pool_ = nullptr;
  obs::Trace* trace_ = nullptr;
  obs::Trace::Span span_;
  uint64_t window_misses_ = 0;
  uint64_t window_hits_ = 0;
  bool window_open_ = false;
};

// ------------------------------------------------------------- leaf scans

/// Range scan over the zkd index. With `pool` null the scan is the serial
/// skip merge, streamed through ZkdIndex::RangeCursor (which honors the
/// depth cap and verification of `options` and always skip-merges); with a
/// pool it is ParallelRangeSearch cut into `partitions` z intervals,
/// materialized. Output schema:
/// (id: int), in z order — bitwise identical between the two forms.
std::unique_ptr<PlanNode> MakeZkdRangeScan(const index::ZkdIndex& index,
                                           const geometry::GridBox& box,
                                           const index::SearchOptions& options,
                                           util::ThreadPool* pool = nullptr,
                                           int partitions = 0);

/// Containment scan for an arbitrary object (serial SearchObject, or
/// ParallelSearchObject when `pool` is set). `owned`, when non-null, is an
/// object the plan keeps alive (e.g. the ball a within-distance query
/// translates to); otherwise `object` must outlive the plan. `op_name`
/// overrides the operator label shown by EXPLAIN (defaults to
/// "ObjectSearch"/"ParallelObjectSearch").
std::unique_ptr<PlanNode> MakeObjectSearch(
    const index::ZkdIndex& index, const geometry::SpatialObject* object,
    std::unique_ptr<const geometry::SpatialObject> owned,
    const index::SearchOptions& options, util::ThreadPool* pool = nullptr,
    int partitions = 0, const std::string& op_name = "");

/// Aggregate pushdown: COUNT(*) of points in `box`, answered inside the
/// index (ZkdIndex::CountBox). Elements fully contained in the box add the
/// run's entry count — whole leaves via their header — without decoding or
/// materializing rows; only boundary elements under a depth cap decode and
/// verify per row. Output schema (count: int), exactly one row.
std::unique_ptr<PlanNode> MakeAggregateCount(
    const index::ZkdIndex& index, const geometry::GridBox& box,
    const index::SearchOptions& options = {});

/// Range scan over the bucket kd tree fallback. Output schema (id: int) in
/// the tree's traversal order (not z order).
std::unique_ptr<PlanNode> MakeBucketKdScan(const baseline::BucketKdTree& tree,
                                           const geometry::GridBox& box);

/// Best-first k-NN search. Output schema (id: int, dist2: int), closest
/// first.
std::unique_ptr<PlanNode> MakeKNearest(const index::ZkdIndex& index,
                                       const geometry::GridPoint& center,
                                       size_t k);

/// Streams an in-memory relation (a join input, typically). Not owned.
std::unique_ptr<PlanNode> MakeRelationScan(const relational::Relation& rel);

/// Produces no rows (the planner emits this when it can prove a join's
/// bounding boxes are disjoint). `schema` is the shape the result would
/// have had.
std::unique_ptr<PlanNode> MakeEmptyResult(relational::Schema schema);

// -------------------------------------------------------- interior nodes

/// The Decompose operator: extends each child tuple with one row per
/// element of its catalog object, sorted by the new `z_column`.
std::unique_ptr<PlanNode> MakeDecompose(
    std::unique_ptr<PlanNode> child, const zorder::GridSpec& grid,
    const std::string& id_column, const relational::ObjectCatalog& catalog,
    const std::string& z_column, const decompose::DecomposeOptions& options);

/// The merge spatial join R[zr <> zs]S over two child streams (serial, or
/// ParallelSpatialJoin when `pool` is set).
std::unique_ptr<PlanNode> MakeMergeJoin(std::unique_ptr<PlanNode> left,
                                        std::unique_ptr<PlanNode> right,
                                        const std::string& left_z,
                                        const std::string& right_z,
                                        util::ThreadPool* pool = nullptr,
                                        int partitions = 0);

/// The zones-style distance join over two borrowed point sets (leaf node —
/// the inputs are not plan children). Output schema (r_id: int, s_id: int)
/// in the join's deterministic order; with a pool the merge is partitioned
/// but the output is bitwise-identical. `zone_height` 0 means
/// max(1, radius).
std::unique_ptr<PlanNode> MakeDistanceJoin(
    std::span<const index::PointRecord> r,
    std::span<const index::PointRecord> s, const zorder::GridSpec& grid,
    uint64_t radius, uint64_t zone_height = 0,
    util::ThreadPool* pool = nullptr, int partitions = 0);

/// Refinement: keeps tuples satisfying `predicate`.
std::unique_ptr<PlanNode> MakeFilter(
    std::unique_ptr<PlanNode> child,
    std::function<bool(const relational::Tuple&)> predicate);

/// Projection onto `columns`; with `deduplicate` equal rows collapse.
std::unique_ptr<PlanNode> MakeProject(std::unique_ptr<PlanNode> child,
                                      std::vector<std::string> columns,
                                      bool deduplicate);

/// Stops after `limit` rows.
std::unique_ptr<PlanNode> MakeLimit(std::unique_ptr<PlanNode> child,
                                    size_t limit);

}  // namespace probe::query

#endif  // PROBE_QUERY_PLAN_H_
