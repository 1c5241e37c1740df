#ifndef PROBE_INDEX_COST_MODEL_H_
#define PROBE_INDEX_COST_MODEL_H_

#include <cstdint>
#include <vector>

#include "geometry/box.h"
#include "index/zkd_index.h"

/// \file
/// Optimizer support: predicting a query's page accesses without running
/// it.
///
/// The paper's integration argument is that spatial search should live
/// inside the DBMS — and a DBMS query optimizer needs cost estimates
/// before choosing a plan. Because a leaf page owns a contiguous z-value
/// interval, the pages a range query touches are computable from the leaf
/// boundary keys alone: decompose the box (CPU only), coalesce the
/// elements into z runs, and count the leaves whose interval meets a run.
/// Boundary keys alone cannot see two execution details — the merge lands
/// on a successor leaf when a seek falls in a key gap (undercount), and an
/// intersecting leaf may be skipped when its relevant cells hold no points
/// (overcount) — so the estimate drifts a few pages either way: within
/// ~10% of the executed page count in the experiment workloads, ample for
/// plan choice. A decomposition depth cap makes estimation cheaper and
/// biases it upward instead (a coarser cover touches more leaves).

namespace probe::index {

/// A snapshot of an index's leaf partitioning, usable for estimation.
class CostModel {
 public:
  /// Captures the current leaf boundaries of `index` (one key per leaf;
  /// O(leaf count) work, read once).
  static CostModel FromIndex(const ZkdIndex& index);

  /// An estimate for one query.
  struct Estimate {
    /// Predicted data pages touched.
    uint64_t pages = 0;
    /// Elements the estimator generated.
    uint64_t elements_used = 0;
    /// True when produced at full decomposition depth (the query's cell
    /// set was represented exactly).
    bool full_depth = false;
  };

  /// Estimates pages for a range query. `max_element_depth` < 0 means full
  /// depth; smaller caps trade accuracy for estimation speed.
  Estimate EstimatePages(const geometry::GridBox& box,
                         int max_element_depth = -1) const;

  /// An estimate for a spatial join restricted to two box extents.
  struct JoinEstimate {
    /// True when the boxes share at least one cell (pairs are possible).
    bool overlap = false;
    /// Predicted data pages touched on this model's index.
    uint64_t r_pages = 0;
    /// Predicted data pages touched on `s_model`'s index.
    uint64_t s_pages = 0;
    /// Elements the estimator generated (both boxes).
    uint64_t elements_used = 0;

    uint64_t pages() const { return r_pages + s_pages; }
  };

  /// Estimates the pages a spatial join between this model's index
  /// (restricted to `r_box`) and `s_model`'s index (restricted to `s_box`)
  /// must touch. Pairs can only arise where the two boxes overlap, so both
  /// boxes are decomposed into z runs, the run lists are intersected, and
  /// each snapshot's leaves are counted against the shared runs — the
  /// join's useful I/O. Disjoint boxes estimate zero pages (the planner
  /// short-circuits to an empty result). Both models must be over the same
  /// grid. `max_element_depth` as in EstimatePages.
  JoinEstimate EstimateJoinPages(const CostModel& s_model,
                                 const geometry::GridBox& r_box,
                                 const geometry::GridBox& s_box,
                                 int max_element_depth = -1) const;

  /// An estimate for a zones-style distance join. The join reads no
  /// pages: both zone sorts run in memory, so only its zone and candidate
  /// counts are priced.
  struct DistanceJoinEstimate {
    /// Zones the grid is cut into at the chosen height.
    uint64_t zones = 0;
    /// Predicted candidate pairs (distance tests) under a
    /// uniform-density assumption: each R point sees the S points in a
    /// (2r+1) x (2r+h) window.
    uint64_t candidate_pairs = 0;
  };

  /// Prices DistanceJoin(R, S, radius) on `grid` analytically — no index
  /// needed, the join runs on raw point sets. `zone_height` 0 means the
  /// join's max(1, radius) default.
  static DistanceJoinEstimate EstimateDistanceJoinPages(
      const zorder::GridSpec& grid, uint64_t r_rows, uint64_t s_rows,
      uint64_t radius, uint64_t zone_height = 0);

  /// Picks a decomposition depth cap for `box` from the Section 5.1
  /// element-count analysis: the finest depth whose worst-case element
  /// count (decompose::CappedElementUpperBound) stays within
  /// `element_budget`. Returns -1 when full depth already fits — the
  /// common case for small queries — so the result can be passed straight
  /// to SearchOptions::max_element_depth / EstimatePages.
  static int EstimateDepthCap(const zorder::GridSpec& grid,
                              const geometry::GridBox& box,
                              uint64_t element_budget);

  size_t leaf_count() const { return first_keys_.size(); }

  /// Mean entries per leaf at snapshot time. Leaf density depends on the
  /// configured leaf capacity and the bulk-load fill, so the snapshot
  /// measures it instead of assuming a compile-time capacity, and estimates
  /// convert between rows and pages correctly for any configuration.
  double avg_leaf_entries() const { return avg_leaf_entries_; }

  const zorder::GridSpec& grid() const { return grid_; }

 private:
  /// A maximal run of consecutive full-resolution z values covered by the
  /// query's elements.
  struct Run {
    uint64_t lo;
    uint64_t hi;
  };

  /// Decomposes `box` (CPU only) and coalesces the elements into maximal
  /// z runs, counting the elements into `elements_used`.
  std::vector<Run> RunsForBox(const geometry::GridBox& box,
                              int max_element_depth,
                              uint64_t* elements_used) const;

  /// Leaves whose key interval meets at least one run (the two-pointer
  /// sweep EstimatePages has always used; runs must be sorted/disjoint).
  uint64_t CountLeafPages(const std::vector<Run>& runs) const;

  zorder::GridSpec grid_;
  std::vector<uint64_t> first_keys_;  // RangeLo of each leaf's first key
  double avg_leaf_entries_ = 0.0;
};

}  // namespace probe::index

#endif  // PROBE_INDEX_COST_MODEL_H_
