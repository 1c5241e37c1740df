// Planner correctness: every physical plan the planner emits returns
// exactly what the direct index / join calls return. The serial and
// parallel z plans are bitwise identical to the direct calls (same merge,
// same order); the bucket-kd fallback returns the same set in the tree's
// traversal order. This test also runs under TSan (scripts/check.sh) to
// certify the parallel plans race-free.

#include <algorithm>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "geometry/primitives.h"
#include "index/cost_model.h"
#include "index/nearest.h"
#include "query/executor.h"
#include "query/explain.h"
#include "query/planner.h"
#include "relational/operators.h"
#include "relational/spatial_join.h"
#include "util/rng.h"
#include "workload/datagen.h"
#include "workload/experiment.h"
#include "workload/querygen.h"

namespace probe::query {
namespace {

using geometry::GridBox;
using relational::Relation;
using relational::Schema;
using relational::Tuple;
using relational::ValueEquals;
using relational::ValueType;
using zorder::GridSpec;

/// One index + everything the planner may use, over a generated workload.
struct PlannerFixture {
  GridSpec grid{2, 10};
  std::vector<index::PointRecord> points;
  workload::BuiltIndex built;
  index::CostModel model;
  baseline::BucketKdTree kd_tree;

  explicit PlannerFixture(workload::Distribution dist =
                              workload::Distribution::kUniform,
                          size_t count = 5000, uint64_t seed = 7100)
      : points([&] {
          workload::DataGenConfig data;
          data.distribution = dist;
          data.count = count;
          data.seed = seed;
          return GeneratePoints(grid, data);
        }()),
        built(workload::BuildZkdIndex(grid, points, 20, 256)),
        model(index::CostModel::FromIndex(*built.index)),
        kd_tree(baseline::BucketKdTree::Build(grid.dims, points, 20)) {}

  PlannerContext Context(util::ThreadPool* pool = nullptr,
                         bool with_kd = false) const {
    PlannerContext ctx;
    ctx.index = built.index.get();
    ctx.cost_model = &model;
    ctx.pool = pool;
    if (with_kd) ctx.kd_tree = &kd_tree;
    return ctx;
  }
};

void ExpectRelationsEqual(const Relation& a, const Relation& b) {
  ASSERT_EQ(a.size(), b.size());
  ASSERT_EQ(a.schema().column_count(), b.schema().column_count());
  for (size_t i = 0; i < a.size(); ++i) {
    const Tuple& ta = a.row(i);
    const Tuple& tb = b.row(i);
    ASSERT_EQ(ta.size(), tb.size());
    for (size_t j = 0; j < ta.size(); ++j) {
      ASSERT_TRUE(ValueEquals(ta[j], tb[j])) << "row " << i << " col " << j;
    }
  }
}

TEST(PlannerTest, SerialRangePlanIsIdenticalToDirectSearch) {
  const PlannerFixture fx;
  const PlannerContext ctx = fx.Context();
  util::Rng rng(7200);
  for (const double volume : {0.001, 0.01, 0.05}) {
    for (const auto& box :
         workload::MakeQueryBoxes2D(fx.grid, volume, 2.0, 4, rng)) {
      PlannedQuery planned = Plan(Query::Range(box), ctx);
      const auto ids = ExecuteIds(*planned.root);
      EXPECT_EQ(ids, fx.built.index->RangeSearch(box)) << planned.summary;
    }
  }
}

TEST(PlannerTest, ParallelRangePlanIsIdenticalToDirectSearch) {
  const PlannerFixture fx;
  util::ThreadPool pool(3);
  const PlannerContext ctx = fx.Context(&pool);
  PlannerOptions options;
  options.parallel_page_threshold = 1;  // force parallel plans
  options.pages_per_lane = 1;
  util::Rng rng(7300);
  for (const auto& box :
       workload::MakeQueryBoxes2D(fx.grid, 0.05, 1.0, 6, rng)) {
    PlannedQuery planned = Plan(Query::Range(box), ctx, options);
    EXPECT_NE(planned.summary.find("ParallelRangeScan"), std::string::npos)
        << planned.summary;
    const auto ids = ExecuteIds(*planned.root);
    EXPECT_EQ(ids, fx.built.index->RangeSearch(box)) << planned.summary;
  }
}

TEST(PlannerTest, DepthCappedPlanStaysExact) {
  const PlannerFixture fx;
  const PlannerContext ctx = fx.Context();
  PlannerOptions options;
  options.element_budget = 64;  // force a coarse decomposition cap
  util::Rng rng(7400);
  bool saw_cap = false;
  for (const auto& box :
       workload::MakeQueryBoxes2D(fx.grid, 0.10, 1.0, 4, rng)) {
    PlannedQuery planned = Plan(Query::Range(box), ctx, options);
    if (planned.summary.find("depth=full") == std::string::npos) {
      saw_cap = true;
    }
    // Capped execution verifies candidates, so results match the
    // full-depth search exactly.
    const auto ids = ExecuteIds(*planned.root);
    EXPECT_EQ(ids, fx.built.index->RangeSearch(box)) << planned.summary;
  }
  EXPECT_TRUE(saw_cap) << "budget of 64 elements should cap 10%-volume boxes";
}

TEST(PlannerTest, KdFallbackPlanReturnsSameIdSet) {
  const PlannerFixture fx;
  PlannerContext ctx = fx.Context(nullptr, /*with_kd=*/true);
  PlannerOptions options;
  options.kd_advantage = 1e9;  // make the fallback always look better
  util::Rng rng(7500);
  for (const auto& box :
       workload::MakeQueryBoxes2D(fx.grid, 0.02, 1.0, 4, rng)) {
    PlannedQuery planned = Plan(Query::Range(box), ctx, options);
    EXPECT_NE(planned.summary.find("BucketKdScan"), std::string::npos)
        << planned.summary;
    auto ids = ExecuteIds(*planned.root);
    auto expected = fx.built.index->RangeSearch(box);
    std::sort(ids.begin(), ids.end());
    std::sort(expected.begin(), expected.end());
    EXPECT_EQ(ids, expected);
  }
}

TEST(PlannerTest, KdFallbackIsNotChosenByDefaultOnSmallQueries) {
  const PlannerFixture fx;
  PlannerContext ctx = fx.Context(nullptr, /*with_kd=*/true);
  util::Rng rng(7550);
  for (const auto& box :
       workload::MakeQueryBoxes2D(fx.grid, 0.01, 1.0, 4, rng)) {
    PlannedQuery planned = Plan(Query::Range(box), ctx);
    EXPECT_NE(planned.summary.find("ZkdRangeScan"), std::string::npos)
        << planned.summary;
  }
}

TEST(PlannerTest, ObjectSearchPlanIsIdenticalToDirectSearch) {
  const PlannerFixture fx;
  util::ThreadPool pool(3);
  const geometry::BallObject ball({512.0, 512.0}, 90.0);
  const auto bound = GridBox::Make2D(421, 603, 421, 603);
  const auto expected = fx.built.index->SearchObject(ball);

  for (util::ThreadPool* p : {static_cast<util::ThreadPool*>(nullptr), &pool}) {
    PlannerContext ctx = fx.Context(p);
    PlannerOptions options;
    options.parallel_page_threshold = 1;
    options.pages_per_lane = 1;
    PlannedQuery planned =
        Plan(Query::ObjectSearch(ball, bound), ctx, options);
    const auto ids = ExecuteIds(*planned.root);
    EXPECT_EQ(ids, expected) << planned.summary;
  }
}

TEST(PlannerTest, WithinDistancePlanIsIdenticalToDirectCall) {
  const PlannerFixture fx;
  const PlannerContext ctx = fx.Context();
  const geometry::GridPoint center({300, 700});
  for (const double radius : {5.0, 40.0, 130.0}) {
    PlannedQuery planned = Plan(Query::WithinDistance(center, radius), ctx);
    const auto ids = ExecuteIds(*planned.root);
    EXPECT_EQ(ids, index::WithinDistance(*fx.built.index, center, radius))
        << planned.summary;
  }
}

TEST(PlannerTest, KNearestPlanIsIdenticalToDirectCall) {
  const PlannerFixture fx;
  const PlannerContext ctx = fx.Context();
  const geometry::GridPoint center({100, 900});
  PlannedQuery planned = Plan(Query::KNearest(center, 12), ctx);
  const ExecutionResult result = Execute(*planned.root);
  const auto expected = index::KNearest(*fx.built.index, center, 12);
  ASSERT_EQ(result.rows.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(std::get<int64_t>(result.rows.row(i)[0]),
              static_cast<int64_t>(expected[i].id));
    EXPECT_EQ(std::get<int64_t>(result.rows.row(i)[1]),
              static_cast<int64_t>(expected[i].distance2));
  }
}

/// Builds an object relation (schema: id) of boxes registered in `catalog`,
/// covering a band of the space.
Relation MakeBoxRelation(relational::ObjectCatalog* catalog, int count,
                         uint32_t origin, uint32_t step, uint32_t size) {
  Relation rel(Schema({{"id", ValueType::kInt}}));
  for (int i = 0; i < count; ++i) {
    const uint32_t lo = origin + static_cast<uint32_t>(i) * step;
    const auto id = catalog->Register(std::make_shared<geometry::BoxObject>(
        GridBox::Make2D(lo, lo + size, lo, lo + size)));
    rel.Add({static_cast<int64_t>(id)});
  }
  return rel;
}

TEST(PlannerTest, JoinPlanMatchesDirectDecomposeAndJoin) {
  const PlannerFixture fx;
  relational::ObjectCatalog catalog;
  const Relation r_rel = MakeBoxRelation(&catalog, 30, 10, 30, 25);
  const Relation s_rel = MakeBoxRelation(&catalog, 30, 20, 30, 25);

  const Relation r_elems = relational::DecomposeRelation(
      fx.grid, r_rel, "id", catalog, "zr");
  const Relation s_elems = relational::DecomposeRelation(
      fx.grid, s_rel, "id", catalog, "zs");
  const Relation expected =
      relational::SpatialJoin(r_elems, "zr", s_elems, "zs");
  ASSERT_GT(expected.size(), 0u);

  PlannerContext ctx = fx.Context();
  ctx.catalog = &catalog;

  // Decompose-then-join: both sides are object relations.
  {
    Query q = Query::SpatialJoin({&r_rel, "id", ""}, {&s_rel, "id", ""});
    PlannedQuery planned = Plan(q, ctx);
    const ExecutionResult result = Execute(*planned.root);
    ExpectRelationsEqual(result.rows, expected);
  }
  // Merge join over pre-decomposed element relations.
  {
    Query q = Query::SpatialJoin({&r_elems, "id", "zr"},
                                 {&s_elems, "id", "zs"});
    PlannedQuery planned = Plan(q, ctx);
    const ExecutionResult result = Execute(*planned.root);
    ExpectRelationsEqual(result.rows, expected);
  }
  // Parallel merge join (forced by a zero row threshold).
  {
    util::ThreadPool pool(3);
    ctx.pool = &pool;
    PlannerOptions options;
    options.join_parallel_row_threshold = 0;
    Query q = Query::SpatialJoin({&r_rel, "id", ""}, {&s_rel, "id", ""});
    PlannedQuery planned = Plan(q, ctx, options);
    EXPECT_NE(planned.summary.find("ParallelMergeSpatialJoin"),
              std::string::npos)
        << planned.summary;
    const ExecutionResult result = Execute(*planned.root);
    ExpectRelationsEqual(result.rows, expected);
  }
}

// Both sides of a planned join of two object relations carry `id`; the
// output keeps r's as `id` and renames s's to `s_id`, so each side's id is
// reachable by name and lands where the positional join puts it.
TEST(PlannerTest, JoinOutputReachesBothIdsByName) {
  const PlannerFixture fx;
  relational::ObjectCatalog catalog;
  const Relation r_rel = MakeBoxRelation(&catalog, 30, 10, 30, 25);
  const Relation s_rel = MakeBoxRelation(&catalog, 30, 20, 30, 25);
  const Relation r_elems = relational::DecomposeRelation(
      fx.grid, r_rel, "id", catalog, "zr");
  const Relation s_elems = relational::DecomposeRelation(
      fx.grid, s_rel, "id", catalog, "zs");
  const Relation expected =
      relational::SpatialJoin(r_elems, "zr", s_elems, "zs");
  ASSERT_GT(expected.size(), 0u);
  const int s_id_position = r_elems.schema().column_count();

  PlannerContext ctx = fx.Context();
  ctx.catalog = &catalog;
  Query q = Query::SpatialJoin({&r_rel, "id", ""}, {&s_rel, "id", ""});
  PlannedQuery planned = Plan(q, ctx);
  const ExecutionResult result = Execute(*planned.root);
  const Schema& schema = result.rows.schema();
  EXPECT_TRUE(schema.NamesUnique());
  const int r_id = schema.IndexOf("id");
  const int s_id = schema.IndexOf("s_id");
  ASSERT_EQ(r_id, 0);
  ASSERT_EQ(s_id, s_id_position);
  ASSERT_EQ(result.rows.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_TRUE(ValueEquals(result.rows.row(i)[r_id], expected.row(i)[0]));
    EXPECT_TRUE(ValueEquals(result.rows.row(i)[s_id],
                            expected.row(i)[s_id_position]));
  }
}

TEST(PlannerTest, DisjointJoinBoundsPlanToEmptyResult) {
  const PlannerFixture fx;
  relational::ObjectCatalog catalog;
  const Relation r_rel = MakeBoxRelation(&catalog, 5, 10, 20, 10);
  const Relation s_rel = MakeBoxRelation(&catalog, 5, 800, 20, 10);

  PlannerContext ctx = fx.Context();
  ctx.catalog = &catalog;
  Query q = Query::SpatialJoin({&r_rel, "id", ""}, {&s_rel, "id", ""});
  q.r_bound = GridBox::Make2D(10, 120, 10, 120);
  q.s_bound = GridBox::Make2D(800, 900, 800, 900);
  PlannedQuery planned = Plan(q, ctx);
  EXPECT_NE(planned.summary.find("EmptyResult"), std::string::npos)
      << planned.summary;
  const ExecutionResult result = Execute(*planned.root);
  EXPECT_EQ(result.rows.size(), 0u);
  // The empty plan still presents the join's output schema.
  EXPECT_EQ(result.rows.schema().column_count(), 4);
}

TEST(PlannerTest, FilterProjectLimitDecorationApplies) {
  const PlannerFixture fx;
  const PlannerContext ctx = fx.Context();
  const auto box = GridBox::Make2D(0, 1023, 0, 1023);
  Query q = Query::Range(box);
  q.filter = [](const Tuple& t) { return std::get<int64_t>(t[0]) % 2 == 0; };
  q.projection = {"id"};
  q.limit = 10;
  PlannedQuery planned = Plan(q, ctx);
  const ExecutionResult result = Execute(*planned.root);
  EXPECT_EQ(result.rows.size(), 10u);
  for (size_t i = 0; i < result.rows.size(); ++i) {
    EXPECT_EQ(std::get<int64_t>(result.rows.row(i)[0]) % 2, 0);
  }
}

TEST(PlannerTest, ExplainRendersEstimatesAndActuals) {
  const PlannerFixture fx;
  const PlannerContext ctx = fx.Context();
  util::Rng rng(7600);
  const auto box = workload::MakeQueryBoxes2D(fx.grid, 0.02, 1.0, 1, rng)[0];
  Query q = Query::Range(box);
  q.limit = 1u << 20;
  PlannedQuery planned = Plan(q, ctx);

  const std::string before = Explain(*planned.root);
  EXPECT_NE(before.find("est: "), std::string::npos) << before;
  EXPECT_NE(before.find("not executed"), std::string::npos) << before;

  Execute(*planned.root);
  const std::string after = Explain(*planned.root);
  EXPECT_NE(after.find("Limit"), std::string::npos) << after;
  EXPECT_NE(after.find("ZkdRangeScan"), std::string::npos) << after;
  EXPECT_NE(after.find("actual: "), std::string::npos) << after;
  EXPECT_EQ(after.find("not executed"), std::string::npos) << after;

  const std::string json = ExplainJson(*planned.root);
  EXPECT_NE(json.find("\"op\": \"Limit\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"children\": ["), std::string::npos) << json;
  EXPECT_NE(json.find("\"est_pages\": "), std::string::npos) << json;
}

TEST(PlannerTest, BufferPoolPinsAreReleased) {
  const PlannerFixture fx;
  util::ThreadPool pool(3);
  const PlannerContext ctx = fx.Context(&pool);
  PlannerOptions options;
  options.parallel_page_threshold = 1;
  util::Rng rng(7700);
  for (const auto& box :
       workload::MakeQueryBoxes2D(fx.grid, 0.05, 1.0, 3, rng)) {
    PlannedQuery planned = Plan(Query::Range(box), ctx, options);
    ExecuteIds(*planned.root);
    EXPECT_EQ(fx.built.pool->PinnedByThisThread(), 0u);

    // The serial streaming scan must drop its cursor's leaf pin on Close,
    // not at node destruction — check with the closed plan still alive.
    PlannedQuery serial = Plan(Query::Range(box), fx.Context(nullptr));
    ExecuteIds(*serial.root);
    EXPECT_EQ(fx.built.pool->PinnedByThisThread(), 0u);
  }
}

}  // namespace
}  // namespace probe::query
