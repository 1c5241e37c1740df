#include "query/planner.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <optional>
#include <utility>
#include <vector>

#include "geometry/primitives.h"
#include "relational/spatial_join.h"
#include "zorder/shuffle.h"

namespace probe::query {

namespace {

using geometry::GridBox;
using index::CostModel;
using index::SearchOptions;

/// Analytic page estimate for the bucket kd tree: median splits carve the
/// space into leaf_count roughly equal bricks, leaf_count^(1/k) per
/// dimension; a box meets extent/brick_width + 1 brick columns per
/// dimension.
uint64_t EstimateKdPages(const baseline::BucketKdTree& tree,
                         const zorder::GridSpec& grid, const GridBox& box) {
  const double leaves = static_cast<double>(std::max<uint64_t>(
      tree.leaf_count(), 1));
  const double per_dim = std::pow(leaves, 1.0 / box.dims());
  const double brick =
      static_cast<double>(grid.side()) / std::max(per_dim, 1.0);
  double estimate = 1.0;
  for (int d = 0; d < box.dims(); ++d) {
    const double extent =
        static_cast<double>(box.range(d).hi - box.range(d).lo) + 1.0;
    estimate *= std::min(per_dim, extent / brick + 1.0);
  }
  return static_cast<uint64_t>(std::llround(std::ceil(estimate)));
}

/// Partition count for a scan predicted to touch `est_pages` leaves.
int ScanPartitions(uint64_t est_pages, const PlannerOptions& options,
                   const util::ThreadPool& pool) {
  const uint64_t wanted =
      std::max<uint64_t>(est_pages / std::max<uint64_t>(options.pages_per_lane, 1), 2);
  return static_cast<int>(
      std::min<uint64_t>(wanted, static_cast<uint64_t>(pool.lanes())));
}

std::string DepthDetail(int cap) {
  return cap < 0 ? "depth=full" : "depth=" + std::to_string(cap);
}

/// Shared box-scan planning: depth cap, page estimate, kd fallback,
/// serial vs parallel. Used by kRange directly and by the bounded
/// object/within-distance scans (which skip the kd fallback — the kd tree
/// only answers boxes).
struct ScanChoice {
  SearchOptions search;
  std::optional<CostModel::Estimate> estimate;
  bool use_kd = false;
  uint64_t kd_pages = 0;
  int partitions = 0;  // 0 = serial
};

ScanChoice ChooseBoxScan(const GridBox& box, const PlannerContext& ctx,
                         const PlannerOptions& options, bool allow_kd) {
  ScanChoice choice;
  if (ctx.cost_model == nullptr) return choice;

  const int cap = CostModel::EstimateDepthCap(ctx.cost_model->grid(), box,
                                              options.element_budget);
  choice.search.max_element_depth = cap;
  choice.estimate = ctx.cost_model->EstimatePages(box, cap);

  // Candidate costs, all in the options' cost units (pages by default).
  const double serial_cost =
      static_cast<double>(choice.estimate->pages) * options.z_cost_per_page +
      static_cast<double>(choice.estimate->elements_used) *
          options.z_cost_per_element;
  double best_z_cost = serial_cost;
  if (ctx.pool != nullptr && ctx.pool->lanes() > 1 &&
      choice.estimate->pages >= options.parallel_page_threshold) {
    const int partitions =
        ScanPartitions(choice.estimate->pages, options, *ctx.pool);
    const double parallel_cost =
        serial_cost / partitions + options.parallel_overhead;
    if (parallel_cost < serial_cost) {
      choice.partitions = partitions;
      best_z_cost = parallel_cost;
    }
  }

  if (allow_kd && ctx.kd_tree != nullptr) {
    choice.kd_pages = EstimateKdPages(*ctx.kd_tree, ctx.cost_model->grid(), box);
    if (static_cast<double>(choice.kd_pages) * options.kd_cost_per_page <
        options.kd_advantage * best_z_cost) {
      choice.use_kd = true;
      choice.partitions = 0;
    }
  }
  return choice;
}

/// Writes the planner's estimate into a scan node's stats block.
void AttachEstimate(PlanNode* node, const CostModel::Estimate& estimate,
                    const std::string& detail) {
  NodeStats& stats = node->stats();
  stats.has_estimate = true;
  stats.est_pages = estimate.pages;
  stats.est_elements = estimate.elements_used;
  stats.detail = detail;
}

/// Wraps `root` with the query's filter / projection / limit decoration.
std::unique_ptr<PlanNode> Decorate(std::unique_ptr<PlanNode> root,
                                   const Query& query) {
  if (query.filter) root = MakeFilter(std::move(root), query.filter);
  if (!query.projection.empty()) {
    root = MakeProject(std::move(root), query.projection, query.deduplicate);
  }
  if (query.limit > 0) root = MakeLimit(std::move(root), query.limit);
  return root;
}

std::string EstimateSummary(const ScanChoice& choice) {
  std::string out;
  if (choice.estimate.has_value()) {
    out += " est_pages=" + std::to_string(choice.estimate->pages);
    out += " " + DepthDetail(choice.search.max_element_depth);
  }
  if (choice.kd_pages > 0) {
    out += " kd_est_pages=" + std::to_string(choice.kd_pages);
  }
  return out;
}

// ------------------------------------------------------------------ range

PlannedQuery PlanRange(const Query& query, const PlannerContext& ctx,
                       const PlannerOptions& options) {
  assert(query.box.has_value());
  const GridBox& box = *query.box;
  const ScanChoice choice = ChooseBoxScan(box, ctx, options, /*allow_kd=*/true);

  PlannedQuery planned;
  if (choice.use_kd) {
    assert(ctx.kd_tree != nullptr);
    planned.root = MakeBucketKdScan(*ctx.kd_tree, box);
    planned.root->stats().has_estimate = true;
    planned.root->stats().est_pages = choice.kd_pages;
    planned.summary = "range: BucketKdScan";
  } else {
    util::ThreadPool* pool = choice.partitions > 0 ? ctx.pool : nullptr;
    planned.root =
        MakeZkdRangeScan(*ctx.index, box, choice.search, pool,
                         choice.partitions);
    std::string detail = DepthDetail(choice.search.max_element_depth);
    if (choice.partitions > 0) {
      detail += " partitions=" + std::to_string(choice.partitions);
    }
    if (choice.estimate.has_value()) {
      AttachEstimate(planned.root.get(), *choice.estimate, detail);
    } else {
      planned.root->stats().detail = detail;
    }
    planned.summary = "range: " + planned.root->stats().op;
    if (choice.partitions > 0) {
      planned.summary += " partitions=" + std::to_string(choice.partitions);
    }
  }
  planned.summary += EstimateSummary(choice);
  planned.root = Decorate(std::move(planned.root), query);
  return planned;
}

// -------------------------------------------------------- aggregate count

PlannedQuery PlanAggregateCount(const Query& query, const PlannerContext& ctx,
                                const PlannerOptions& options) {
  assert(query.box.has_value());
  const GridBox& box = *query.box;
  // Pushdown counts from leaf headers, so it never pays the per-row
  // materialization the kd fallback would; price the scan for EXPLAIN but
  // always take the index path, serial (the count is one cursor pass).
  const ScanChoice choice =
      ChooseBoxScan(box, ctx, options, /*allow_kd=*/false);

  PlannedQuery planned;
  planned.root = MakeAggregateCount(*ctx.index, box, choice.search);
  const std::string detail = DepthDetail(choice.search.max_element_depth);
  if (choice.estimate.has_value()) {
    AttachEstimate(planned.root.get(), *choice.estimate, detail);
  } else {
    planned.root->stats().detail = detail;
  }
  planned.summary = "aggregate-count: " + planned.root->stats().op;
  planned.summary += EstimateSummary(choice);
  planned.root = Decorate(std::move(planned.root), query);
  return planned;
}

// ---------------------------------------------------- object and proximity

PlannedQuery PlanObjectLike(const Query& query, const PlannerContext& ctx,
                            const PlannerOptions& options,
                            const geometry::SpatialObject* object,
                            std::unique_ptr<const geometry::SpatialObject> owned,
                            const std::optional<GridBox>& bound,
                            const std::string& op_name,
                            const std::string& kind_name) {
  ScanChoice choice;
  if (bound.has_value()) {
    // The kd tree answers boxes only, so no fallback here; the bound still
    // prices the scan and picks the depth cap / parallelism.
    choice = ChooseBoxScan(*bound, ctx, options, /*allow_kd=*/false);
  }
  util::ThreadPool* pool = choice.partitions > 0 ? ctx.pool : nullptr;

  PlannedQuery planned;
  planned.root = MakeObjectSearch(*ctx.index, object, std::move(owned),
                                  choice.search, pool, choice.partitions,
                                  op_name.empty()
                                      ? ""
                                      : op_name + (pool != nullptr ? "(parallel)"
                                                                   : ""));
  std::string detail = DepthDetail(choice.search.max_element_depth);
  if (choice.partitions > 0) {
    detail += " partitions=" + std::to_string(choice.partitions);
  }
  if (choice.estimate.has_value()) {
    AttachEstimate(planned.root.get(), *choice.estimate, detail);
  } else {
    planned.root->stats().detail = detail;
  }
  planned.summary = kind_name + ": " + planned.root->stats().op;
  if (choice.partitions > 0) {
    planned.summary += " partitions=" + std::to_string(choice.partitions);
  }
  planned.summary += EstimateSummary(choice);
  planned.root = Decorate(std::move(planned.root), query);
  return planned;
}

PlannedQuery PlanObjectSearch(const Query& query, const PlannerContext& ctx,
                              const PlannerOptions& options) {
  assert(query.object != nullptr);
  return PlanObjectLike(query, ctx, options, query.object, nullptr,
                        query.object_bound, "", "object-search");
}

PlannedQuery PlanWithinDistance(const Query& query, const PlannerContext& ctx,
                                const PlannerOptions& options) {
  // The proximity-to-containment translation of Section 6, built exactly
  // as index::WithinDistance builds it: the ball is centered on the query
  // cell's center (+0.5 per coordinate) so cell-center membership and
  // integer-coordinate distance agree.
  std::vector<double> center(query.center.dims());
  for (int d = 0; d < query.center.dims(); ++d) {
    center[d] = static_cast<double>(query.center[d]) + 0.5;
  }

  // Bounding box of the ball, clamped to the grid, for cost estimation.
  std::optional<GridBox> bound;
  if (ctx.cost_model != nullptr) {
    const uint64_t side = ctx.cost_model->grid().side();
    const auto reach = static_cast<uint32_t>(std::ceil(query.radius));
    std::vector<zorder::DimRange> ranges(center.size());
    for (size_t d = 0; d < ranges.size(); ++d) {
      const uint32_t c = query.center[static_cast<int>(d)];
      ranges[d].lo = c > reach ? c - reach : 0;
      ranges[d].hi = static_cast<uint32_t>(
          std::min<uint64_t>(static_cast<uint64_t>(c) + reach + 1, side - 1));
    }
    bound = GridBox(ranges);
  }

  auto ball =
      std::make_unique<geometry::BallObject>(std::move(center), query.radius);

  return PlanObjectLike(query, ctx, options, nullptr, std::move(ball), bound,
                        "WithinDistanceScan", "within-distance");
}

PlannedQuery PlanKNearest(const Query& query, const PlannerContext& ctx) {
  PlannedQuery planned;
  planned.root = MakeKNearest(*ctx.index, query.center, query.k);
  planned.root->stats().detail = "k=" + std::to_string(query.k);
  planned.summary = "k-nearest: KNearest k=" + std::to_string(query.k);
  planned.root = Decorate(std::move(planned.root), query);
  return planned;
}

// ------------------------------------------------------------------- join

/// Schema a join side presents to the merge (its relation's schema, plus
/// the z column Decompose would append).
relational::Schema SideSchema(const JoinSide& side, const std::string& z_out) {
  const relational::Schema& in = side.relation->schema();
  if (!side.z_column.empty()) return in;
  std::vector<relational::Column> columns;
  for (int i = 0; i < in.column_count(); ++i) columns.push_back(in.column(i));
  columns.push_back({z_out, relational::ValueType::kZValue});
  return relational::Schema(std::move(columns));
}

/// Builds one join input: a scan, plus Decompose when the side is an
/// object relation. Returns the name of the z column the merge should use.
std::unique_ptr<PlanNode> BuildJoinSide(const JoinSide& side,
                                        const std::string& z_out,
                                        const PlannerContext& ctx,
                                        std::string* z_column) {
  auto scan = MakeRelationScan(*side.relation);
  if (!side.z_column.empty()) {
    *z_column = side.z_column;
    return scan;
  }
  assert(ctx.catalog != nullptr &&
         "join side without a z column needs an object catalog");
  *z_column = z_out;
  return MakeDecompose(std::move(scan), ctx.index->grid(), side.id_column,
                       *ctx.catalog, z_out, {});
}

PlannedQuery PlanSpatialJoin(const Query& query, const PlannerContext& ctx,
                             const PlannerOptions& options) {
  assert(query.r.relation != nullptr && query.s.relation != nullptr);
  PlannedQuery planned;

  // Price the join when both sides carry bounds: disjoint bounds prove the
  // join empty before any page is read.
  std::optional<CostModel::JoinEstimate> join_estimate;
  if (ctx.cost_model != nullptr && query.r_bound.has_value() &&
      query.s_bound.has_value()) {
    join_estimate = ctx.cost_model->EstimateJoinPages(
        *ctx.cost_model, *query.r_bound, *query.s_bound);
    if (!join_estimate->overlap) {
      planned.root = MakeEmptyResult(relational::JoinSchema(
          SideSchema(query.r, query.r_z_out), SideSchema(query.s, query.s_z_out)));
      planned.summary = "spatial-join: EmptyResult (disjoint bounds)";
      planned.root = Decorate(std::move(planned.root), query);
      return planned;
    }
  }

  std::string left_z;
  std::string right_z;
  auto left = BuildJoinSide(query.r, query.r_z_out, ctx, &left_z);
  auto right = BuildJoinSide(query.s, query.s_z_out, ctx, &right_z);

  const uint64_t input_rows =
      query.r.relation->size() + query.s.relation->size();
  int partitions = 0;
  if (ctx.pool != nullptr && ctx.pool->lanes() > 1 &&
      input_rows >= options.join_parallel_row_threshold) {
    partitions = ctx.pool->lanes();
  }
  util::ThreadPool* pool = partitions > 0 ? ctx.pool : nullptr;

  planned.root = MakeMergeJoin(std::move(left), std::move(right), left_z,
                               right_z, pool, partitions);
  if (join_estimate.has_value()) {
    NodeStats& stats = planned.root->stats();
    stats.has_estimate = true;
    stats.est_pages = join_estimate->pages();
    stats.est_elements = join_estimate->elements_used;
  }
  planned.summary = "spatial-join: " + planned.root->stats().op;
  if (partitions > 0) {
    planned.summary += " partitions=" + std::to_string(partitions);
  }
  if (join_estimate.has_value()) {
    planned.summary +=
        " est_pages=" + std::to_string(join_estimate->pages());
  }
  planned.root = Decorate(std::move(planned.root), query);
  return planned;
}

// ---------------------------------------------------------- distance join

PlannedQuery PlanDistanceJoin(const Query& query, const PlannerContext& ctx,
                              const PlannerOptions& options) {
  assert(query.dj_grid.has_value());
  const zorder::GridSpec& grid = *query.dj_grid;

  // Parallelize like the merge join: enough combined input rows and a
  // pool. The chunked merge reproduces the serial output bitwise, so the
  // only planning question is whether the fan-out pays for itself.
  const uint64_t input_rows = query.dj_r.size() + query.dj_s.size();
  int partitions = 0;
  if (ctx.pool != nullptr && ctx.pool->lanes() > 1 &&
      input_rows >= options.join_parallel_row_threshold) {
    partitions = ctx.pool->lanes();
  }
  util::ThreadPool* pool = partitions > 0 ? ctx.pool : nullptr;

  const CostModel::DistanceJoinEstimate estimate =
      CostModel::EstimateDistanceJoinPages(grid, query.dj_r.size(),
                                           query.dj_s.size(), query.dj_radius,
                                           query.dj_zone_height);

  PlannedQuery planned;
  planned.root =
      MakeDistanceJoin(query.dj_r, query.dj_s, grid, query.dj_radius,
                       query.dj_zone_height, pool, partitions);
  NodeStats& stats = planned.root->stats();
  stats.has_estimate = true;
  stats.est_elements = estimate.candidate_pairs;
  stats.detail = "radius=" + std::to_string(query.dj_radius) +
                 " est_zones=" + std::to_string(estimate.zones);
  if (query.dj_zone_height != 0) {
    stats.detail += " zone_h=" + std::to_string(query.dj_zone_height);
  }
  if (partitions > 0) {
    stats.detail += " partitions=" + std::to_string(partitions);
  }
  planned.summary = "distance-join: " + stats.op +
                    " radius=" + std::to_string(query.dj_radius) +
                    " est_candidates=" +
                    std::to_string(estimate.candidate_pairs);
  if (partitions > 0) {
    planned.summary += " partitions=" + std::to_string(partitions);
  }
  planned.root = Decorate(std::move(planned.root), query);
  return planned;
}

}  // namespace

PlannedQuery Plan(const Query& query, const PlannerContext& ctx,
                  const PlannerOptions& options) {
  assert(ctx.index != nullptr || query.kind == QueryKind::kSpatialJoin ||
         query.kind == QueryKind::kDistanceJoin);
  switch (query.kind) {
    case QueryKind::kRange:
      return PlanRange(query, ctx, options);
    case QueryKind::kObjectSearch:
      return PlanObjectSearch(query, ctx, options);
    case QueryKind::kWithinDistance:
      return PlanWithinDistance(query, ctx, options);
    case QueryKind::kKNearest:
      return PlanKNearest(query, ctx);
    case QueryKind::kSpatialJoin:
      return PlanSpatialJoin(query, ctx, options);
    case QueryKind::kDistanceJoin:
      return PlanDistanceJoin(query, ctx, options);
    case QueryKind::kAggregateCount:
      return PlanAggregateCount(query, ctx, options);
  }
  return {};
}

}  // namespace probe::query
