// Aggregate pushdown: CountRange/CountBox on the index, the planner's
// AggregateCount node, and EXPLAIN's rendering of the pushdown counters.
// Leaves wholly inside a count are taken from their header count alone.

#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "index/cost_model.h"
#include "index/zkd_index.h"
#include "query/executor.h"
#include "query/explain.h"
#include "query/planner.h"
#include "storage/buffer_pool.h"
#include "storage/pager.h"
#include "util/rng.h"
#include "workload/datagen.h"
#include "workload/querygen.h"
#include "zorder/shuffle.h"

namespace probe::query {
namespace {

using geometry::GridBox;
using index::QueryStats;
using index::ZkdIndex;
using zorder::GridSpec;

struct Fixture {
  storage::MemPager pager;
  storage::BufferPool pool;
  ZkdIndex index;

  Fixture(const GridSpec& grid, const std::vector<index::PointRecord>& points)
      : pool(&pager, 1024), index(ZkdIndex::Build(grid, &pool, points)) {}
};

std::vector<index::PointRecord> Points(const GridSpec& grid, size_t count,
                                       uint64_t seed) {
  workload::DataGenConfig data;
  data.count = count;
  data.seed = seed;
  return GeneratePoints(grid, data);
}

TEST(AggregateCountTest, CountBoxMatchesRangeSearch) {
  const GridSpec grid{2, 10};
  const auto points = Points(grid, 20000, 8800);
  Fixture f(grid, points);

  util::Rng rng(8801);
  for (const double volume : {0.001, 0.01, 0.05}) {
    for (const auto& box :
         workload::MakeQueryBoxes2D(grid, volume, 1.0, 8, rng)) {
      const uint64_t expected = f.index.RangeSearch(box).size();
      QueryStats stats;
      EXPECT_EQ(f.index.CountBox(box, &stats), expected);
      // Full-depth decomposition: every element is contained, nothing is
      // materialized into rows.
      EXPECT_EQ(stats.materialized_rows, 0u);
      if (expected > 0) {
        EXPECT_GT(stats.contained_elements, 0u);
      }
    }
  }
}

TEST(AggregateCountTest, DepthCappedCountVerifiesBoundaryRows) {
  const GridSpec grid{2, 10};
  const auto points = Points(grid, 20000, 8810);
  Fixture f(grid, points);

  util::Rng rng(8811);
  index::SearchOptions capped;
  capped.max_element_depth = 8;  // coarse cover: boundary cells overcover
  for (const auto& box : workload::MakeQueryBoxes2D(grid, 0.02, 1.0, 8, rng)) {
    const uint64_t expected = f.index.RangeSearch(box).size();
    QueryStats stats;
    EXPECT_EQ(f.index.CountBox(box, &stats, capped), expected);
    // The capped cover is inexact, so the count had to verify rows.
    EXPECT_GT(stats.materialized_rows, 0u);
  }
}

TEST(AggregateCountTest, CountRangeMatchesCursorScan) {
  const GridSpec grid{2, 8};
  const auto points = Points(grid, 5000, 8820);
  Fixture f(grid, points);

  const int total = grid.total_bits();
  std::vector<uint64_t> zs;
  for (const auto& rec : points) {
    zs.push_back(zorder::Shuffle(grid, rec.point.coords()).ToInteger());
  }
  std::sort(zs.begin(), zs.end());

  util::Rng rng(8821);
  for (int trial = 0; trial < 50; ++trial) {
    uint64_t lo = rng.NextBelow(1ULL << total);
    uint64_t hi = rng.NextBelow(1ULL << total);
    if (lo > hi) std::swap(lo, hi);
    const auto begin = std::lower_bound(zs.begin(), zs.end(), lo);
    const auto end = std::upper_bound(zs.begin(), zs.end(), hi);
    EXPECT_EQ(f.index.CountRange(lo, hi),
              static_cast<uint64_t>(end - begin));
  }
}

TEST(AggregateCountTest, PlannerProducesAggregateNode) {
  const GridSpec grid{2, 10};
  const auto points = Points(grid, 8000, 8830);
  Fixture f(grid, points);
  const index::CostModel model = index::CostModel::FromIndex(f.index);

  PlannerContext ctx;
  ctx.index = &f.index;
  ctx.cost_model = &model;

  util::Rng rng(8831);
  const auto boxes = workload::MakeQueryBoxes2D(grid, 0.02, 1.0, 4, rng);
  for (const auto& box : boxes) {
    PlannedQuery planned = Plan(Query::Count(box), ctx);
    EXPECT_NE(planned.summary.find("AggregateCount"), std::string::npos);
    ExecutionResult result = Execute(*planned.root);
    ASSERT_EQ(result.rows.size(), 1u);
    const uint64_t expected = f.index.RangeSearch(box).size();
    EXPECT_EQ(std::get<int64_t>(result.rows.row(0)[0]),
              static_cast<int64_t>(expected));

    const NodeStats& stats = planned.root->stats();
    EXPECT_TRUE(stats.has_aggregate);
    EXPECT_EQ(stats.materialized_rows, 0u);

    // EXPLAIN surfaces the pushdown counters once executed.
    const std::string text = Explain(*planned.root);
    EXPECT_NE(text.find("materialized rows"), std::string::npos);
    const std::string json = ExplainJson(*planned.root);
    EXPECT_NE(json.find("\"materialized_rows\": 0"), std::string::npos);
    EXPECT_NE(json.find("\"contained_elements\""), std::string::npos);
  }
}

}  // namespace
}  // namespace probe::query
