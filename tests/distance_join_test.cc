// The zones-style distance join must be exact: identical pair sets to an
// O(n*m) all-pairs oracle on every distribution, at degenerate radii
// (r = 0, r spanning the whole grid), at full 32-bit grid resolution, and
// for every zone height — and the parallel merge must reproduce the
// serial emission order bitwise, not just as a set.

#include "relational/distance_join.h"

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "query/executor.h"
#include "query/planner.h"
#include "query/query.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "workload/datagen.h"

namespace probe::relational {
namespace {

using index::PointRecord;
using workload::DataGenConfig;
using workload::Distribution;
using zorder::GridSpec;

/// All-pairs reference in 128-bit arithmetic: every (r, s) with
/// dx^2 + dy^2 <= radius^2.
std::vector<IdPair> OracleJoin(const std::vector<PointRecord>& r,
                               const std::vector<PointRecord>& s,
                               uint64_t radius) {
  const unsigned __int128 r2 = static_cast<unsigned __int128>(radius) * radius;
  std::vector<IdPair> out;
  for (const auto& p : r) {
    for (const auto& q : s) {
      const uint64_t dx =
          p.point[0] > q.point[0] ? p.point[0] - q.point[0] : q.point[0] - p.point[0];
      const uint64_t dy =
          p.point[1] > q.point[1] ? p.point[1] - q.point[1] : q.point[1] - p.point[1];
      if (static_cast<unsigned __int128>(dx) * dx +
              static_cast<unsigned __int128>(dy) * dy <=
          r2) {
        out.push_back(IdPair{p.id, q.id});
      }
    }
  }
  return out;
}

/// Canonical ordering for set comparison (the join's own emission order is
/// a different, deterministic order — (zone, x) — so sets are compared
/// sorted by id pair).
void SortPairs(std::vector<IdPair>* pairs) {
  std::sort(pairs->begin(), pairs->end(),
            [](const IdPair& a, const IdPair& b) {
              if (a.r_id != b.r_id) return a.r_id < b.r_id;
              return a.s_id < b.s_id;
            });
}

void ExpectSamePairSet(std::vector<IdPair> got, std::vector<IdPair> expect,
                       const char* what) {
  SortPairs(&got);
  SortPairs(&expect);
  ASSERT_EQ(got.size(), expect.size()) << what;
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_TRUE(got[i] == expect[i])
        << what << " i=" << i << " got=(" << got[i].r_id << "," << got[i].s_id
        << ") expect=(" << expect[i].r_id << "," << expect[i].s_id << ")";
  }
}

class DistanceJoinDistributionTest
    : public ::testing::TestWithParam<int> {};

TEST_P(DistanceJoinDistributionTest, MatchesOracle) {
  const GridSpec grid{2, 12};
  workload::PairedDataGenConfig config;
  config.base.distribution = static_cast<Distribution>(GetParam());
  config.base.count = 4000;
  config.base.seed = 4200 + static_cast<uint64_t>(GetParam());
  config.match_fraction = 0.4;
  config.match_sigma = 6.0;
  const auto data = GeneratePairedPoints(grid, config);

  for (const uint64_t radius : {0ull, 3ull, 17ull}) {
    DistanceJoinStats stats;
    auto got = DistanceJoinPairs(data.r, data.s, grid, radius, &stats);
    ExpectSamePairSet(got, OracleJoin(data.r, data.s, radius),
                      DistributionName(config.base.distribution).c_str());
    EXPECT_EQ(stats.pairs, got.size());
    EXPECT_GE(stats.candidate_pairs, stats.pairs);
    EXPECT_EQ(stats.r_rows, data.r.size());
    EXPECT_EQ(stats.s_rows, data.s.size());
  }
}

INSTANTIATE_TEST_SUITE_P(Distributions, DistanceJoinDistributionTest,
                         ::testing::Values(0, 1, 2));

TEST(DistanceJoinTest, AsymmetricSidesMatchOracle) {
  const GridSpec grid{2, 10};
  DataGenConfig big;
  big.count = 20000;
  big.seed = 551;
  DataGenConfig small;
  small.distribution = Distribution::kClustered;
  small.count = 700;
  small.seed = 552;
  const auto r = GeneratePoints(grid, big);
  const auto s = GeneratePoints(grid, small);
  const auto got = DistanceJoinPairs(r, s, grid, 9);
  ExpectSamePairSet(got, OracleJoin(r, s, 9), "asymmetric");
}

TEST(DistanceJoinTest, DegenerateRadii) {
  const GridSpec grid{2, 8};
  DataGenConfig config;
  config.count = 600;
  config.seed = 661;
  const auto r = GeneratePoints(grid, config);
  config.seed = 662;
  const auto s = GeneratePoints(grid, config);

  // r = 0: only exact coordinate collisions pair.
  ExpectSamePairSet(DistanceJoinPairs(r, s, grid, 0), OracleJoin(r, s, 0),
                    "r=0");

  // A radius spanning the whole grid: every pair qualifies — the
  // candidate bound degenerates to the cross product and the join must
  // still be exact (and its pair count exactly n*m).
  const uint64_t span = 2 * grid.side();
  DistanceJoinStats stats;
  const auto all = DistanceJoinPairs(r, s, grid, span, &stats);
  EXPECT_EQ(all.size(), r.size() * s.size());
  ExpectSamePairSet(all, OracleJoin(r, s, span), "grid-spanning");
  EXPECT_EQ(stats.candidate_pairs, stats.pairs);
}

TEST(DistanceJoinTest, EmptySides) {
  const GridSpec grid{2, 8};
  DataGenConfig config;
  config.count = 100;
  config.seed = 71;
  const auto pts = GeneratePoints(grid, config);
  const std::vector<PointRecord> empty;
  EXPECT_TRUE(DistanceJoinPairs(empty, pts, grid, 10).empty());
  EXPECT_TRUE(DistanceJoinPairs(pts, empty, grid, 10).empty());
  DistanceJoinStats stats;
  EXPECT_TRUE(DistanceJoinPairs(empty, empty, grid, 10, &stats).empty());
  EXPECT_EQ(stats.pairs, 0u);
}

TEST(DistanceJoinTest, ZoneHeightSweepIsInvariant) {
  // The zone height is a performance knob, never a correctness one: every
  // height must produce the identical pair set (and heights far from r
  // must cost more candidates, not lose pairs).
  const GridSpec grid{2, 10};
  workload::PairedDataGenConfig config;
  config.base.count = 3000;
  config.base.seed = 81;
  const auto data = GeneratePairedPoints(grid, config);
  const uint64_t radius = 7;
  const auto expect = OracleJoin(data.r, data.s, radius);

  for (const uint64_t h : {1ull, 3ull, 7ull, 28ull, 1024ull}) {
    DistanceJoinOptions options;
    options.zone_height = h;
    DistanceJoinStats stats;
    auto got = DistanceJoinPairs(data.r, data.s, grid, radius, &stats,
                                 options);
    EXPECT_EQ(stats.zone_height, h);
    ExpectSamePairSet(got, expect, ("h=" + std::to_string(h)).c_str());
  }
}

TEST(DistanceJoinTest, SerialAndParallelAreBitwiseIdentical) {
  const GridSpec grid{2, 11};
  workload::PairedDataGenConfig config;
  config.base.count = 30000;
  config.base.seed = 91;
  config.match_fraction = 0.3;
  const auto data = GeneratePairedPoints(grid, config);

  const auto serial = DistanceJoinPairs(data.r, data.s, grid, 5);

  util::ThreadPool pool(3);
  for (const int partitions : {0, 2, 3, 7}) {
    DistanceJoinOptions options;
    options.pool = &pool;
    options.partitions = partitions;
    DistanceJoinStats stats;
    const auto parallel =
        DistanceJoinPairs(data.r, data.s, grid, 5, &stats, options);
    // Not a set comparison: the emission *order* must match too.
    ASSERT_EQ(parallel.size(), serial.size()) << partitions;
    for (size_t i = 0; i < serial.size(); ++i) {
      ASSERT_TRUE(parallel[i] == serial[i]) << "partitions=" << partitions
                                            << " i=" << i;
    }
    if (partitions > 1) {
      EXPECT_EQ(stats.partitions, static_cast<size_t>(partitions));
    }
  }
}

/// The join's documented order, from a plain full sort: each side sorted
/// on the packed (key, payload) = ((zone << d) | x, (id << d) | y), then
/// every R row in that order with its partners in S's order. Filtering S's
/// whole sorted sequence by distance yields exactly the zone-then-x-window
/// probe order, since every partner lies within the probed zones.
std::vector<IdPair> FullSortJoin(const std::vector<PointRecord>& r,
                                 const std::vector<PointRecord>& s,
                                 const GridSpec& grid, uint64_t radius,
                                 uint64_t h) {
  const int d = grid.bits_per_dim;
  const auto sorted = [&](const std::vector<PointRecord>& side) {
    std::vector<std::pair<uint64_t, uint64_t>> keys;
    for (const auto& p : side) {
      keys.emplace_back(((p.point[1] / h) << d) | p.point[0],
                        (p.id << d) | p.point[1]);
    }
    std::sort(keys.begin(), keys.end());
    return keys;
  };
  const uint64_t mask = (1ULL << d) - 1;
  const unsigned __int128 r2 = static_cast<unsigned __int128>(radius) * radius;
  std::vector<IdPair> out;
  const auto s_sorted = sorted(s);
  for (const auto& [rk, rp] : sorted(r)) {
    for (const auto& [sk, sp] : s_sorted) {
      const uint64_t rx = rk & mask, ry = rp & mask;
      const uint64_t sx = sk & mask, sy = sp & mask;
      const uint64_t dx = rx > sx ? rx - sx : sx - rx;
      const uint64_t dy = ry > sy ? ry - sy : sy - ry;
      if (static_cast<unsigned __int128>(dx) * dx +
              static_cast<unsigned __int128>(dy) * dy <=
          r2) {
        out.push_back(IdPair{rp >> d, sp >> d});
      }
    }
  }
  return out;
}

TEST(DistanceJoinTest, ZoneSortMatchesAFullSort) {
  // The join's zone sort buckets runs of consecutive zones and sorts each
  // bucket, serially or on the pool. Its output must equal a plain full
  // sort's, order-exactly, on every lane count — including when the
  // bucket shift is forced above 0 (d = 32, h = 1: 2^32 zones), when one
  // bucket holds everything, and on (x, y) ties that only the id-then-y
  // payload order breaks.
  struct Case {
    const char* name;
    GridSpec grid;
    uint64_t radius;
    uint64_t h;  // 0 = the join's default
    std::vector<PointRecord> r, s;
  };
  std::vector<Case> cases;
  util::Rng rng(1717);
  const auto random_points = [&](int d, size_t n, uint64_t x0, uint64_t y0,
                                 uint64_t span) {
    std::vector<PointRecord> out;
    for (size_t i = 0; i < n; ++i) {
      const uint64_t x = x0 + rng.NextBelow(span);
      const uint64_t y = y0 + rng.NextBelow(span);
      out.push_back({geometry::GridPoint({static_cast<uint32_t>(x),
                                          static_cast<uint32_t>(y)}),
                     rng.NextBelow(uint64_t{1} << (64 - d))});
    }
    return out;
  };
  {
    // d = 32 with h = 1: points in two clusters far apart in y, so rows
    // land in distinct buckets of 2^shift zones each.
    Case c{"d=32 h=1", GridSpec{2, 32}, 3, 1, {}, {}};
    for (const uint64_t y0 : {uint64_t{5}, uint64_t{1} << 31,
                              (uint64_t{1} << 32) - 300}) {
      auto r = random_points(32, 700, uint64_t{1} << 20, y0, 300);
      auto s = random_points(32, 700, uint64_t{1} << 20, y0, 300);
      c.r.insert(c.r.end(), r.begin(), r.end());
      c.s.insert(c.s.end(), s.begin(), s.end());
    }
    cases.push_back(std::move(c));
  }
  {
    // Every point in one zone: a single bucket holds everything.
    Case c{"one zone", GridSpec{2, 12}, 6, 64, {}, {}};
    c.r = random_points(12, 2000, 0, 128, 64);
    c.s = random_points(12, 2000, 0, 128, 64);
    cases.push_back(std::move(c));
  }
  {
    // Duplicate (x, y) under many ids, shared x under many (id, y), and
    // one id at two y, all fed in descending (id, y) order: only the
    // payload comparison puts them in ascending (id, y) order.
    Case c{"ties", GridSpec{2, 10}, 2, 0, {}, {}};
    for (uint64_t i = 0; i < 300; ++i) {
      const uint64_t id = 1000 - i;
      const auto y = static_cast<uint32_t>(500 + i % 2);
      c.r.push_back({geometry::GridPoint({400, 500}), id});
      c.r.push_back({geometry::GridPoint({401, y}), id + 2000});
      c.s.push_back({geometry::GridPoint({400, y}), id});
      c.s.push_back({geometry::GridPoint({402, 500}), id + 2000});
      // One id at two y in one zone: y breaks the tie.
      c.s.push_back({geometry::GridPoint({403, 501}), id + 4000});
      c.s.push_back({geometry::GridPoint({403, 500}), id + 4000});
    }
    cases.push_back(std::move(c));
  }
  {
    Case c{"empty r", GridSpec{2, 10}, 4, 0, {}, {}};
    c.s = random_points(10, 500, 0, 0, 1024);
    cases.push_back(std::move(c));
    Case e{"empty s", GridSpec{2, 10}, 4, 0, {}, {}};
    e.r = random_points(10, 500, 0, 0, 1024);
    cases.push_back(std::move(e));
  }

  for (const Case& c : cases) {
    const uint64_t h = c.h != 0 ? c.h : std::max<uint64_t>(1, c.radius);
    const auto expect = FullSortJoin(c.r, c.s, c.grid, c.radius, h);
    if (!c.r.empty() && !c.s.empty()) {
      ASSERT_FALSE(expect.empty()) << c.name;
    }
    for (const int lanes : {0, 1, 2, 4, 7}) {  // 0 = no pool
      std::unique_ptr<util::ThreadPool> pool;
      DistanceJoinOptions options;
      options.zone_height = c.h;
      if (lanes > 0) {
        pool = std::make_unique<util::ThreadPool>(lanes - 1);
        options.pool = pool.get();
      }
      DistanceJoinStats stats;
      const auto got =
          DistanceJoinPairs(c.r, c.s, c.grid, c.radius, &stats, options);
      ASSERT_EQ(got.size(), expect.size()) << c.name << " lanes=" << lanes;
      for (size_t i = 0; i < got.size(); ++i) {
        ASSERT_TRUE(got[i] == expect[i])
            << c.name << " lanes=" << lanes << " i=" << i << " got=("
            << got[i].r_id << "," << got[i].s_id << ") expect=("
            << expect[i].r_id << "," << expect[i].s_id << ")";
      }
      EXPECT_EQ(stats.sort_pages, 0u);
      EXPECT_EQ(stats.sort_runs, 0u);
    }
  }
}

TEST(DistanceJoinTest, CatalogScaleCandidatesStayBoundedAndParallelIsIdentical) {
  // A paired catalog of 200k x 200k at r = 8, at about the crossmatch
  // density. Zones of height r bound each probe to a (2r+1) x 3h window,
  // so the tested pairs stay within a small multiple of the output; a
  // broken zone map degenerates toward the cross product and trips the
  // ratio at once. The parallel join must reproduce the serial pair
  // stream, order included, at this size too.
  const GridSpec grid{2, 18};
  workload::PairedDataGenConfig config;
  config.base.count = 200000;
  config.base.seed = 4242;
  config.match_fraction = 0.5;
  config.match_sigma = 4.0;
  const auto data = GeneratePairedPoints(grid, config);

  DistanceJoinStats stats;
  const auto serial = DistanceJoinPairs(data.r, data.s, grid, 8, &stats);
  ASSERT_GT(stats.pairs, 0u);
  const double ratio = static_cast<double>(stats.candidate_pairs) /
                       static_cast<double>(stats.pairs);
  EXPECT_LE(ratio, 16.0) << "candidates=" << stats.candidate_pairs
                         << " pairs=" << stats.pairs;

  for (const int threads : {1, 3}) {
    util::ThreadPool pool(threads);
    DistanceJoinOptions options;
    options.pool = &pool;
    const auto parallel =
        DistanceJoinPairs(data.r, data.s, grid, 8, nullptr, options);
    ASSERT_EQ(parallel.size(), serial.size()) << threads;
    for (size_t i = 0; i < serial.size(); ++i) {
      ASSERT_TRUE(parallel[i] == serial[i]) << "threads=" << threads
                                            << " i=" << i;
    }
  }
}

TEST(DistanceJoinTest, FullResolutionGridCorners) {
  // d = 32: coordinates up to 2^32 - 1, squared distances past uint64 —
  // the join must use the 128-bit scalar path and still be exact.
  const GridSpec grid{2, 32};
  constexpr uint32_t kMax = ~static_cast<uint32_t>(0);
  std::vector<PointRecord> r;
  r.push_back({geometry::GridPoint({0, 0}), 0});
  r.push_back({geometry::GridPoint({kMax, kMax}), 1});
  r.push_back({geometry::GridPoint({kMax, 0}), 2});
  std::vector<PointRecord> s;
  s.push_back({geometry::GridPoint({3, 4}), 0});
  s.push_back({geometry::GridPoint({kMax - 3, kMax - 4}), 1});
  s.push_back({geometry::GridPoint({0, kMax}), 2});

  // Radius 5 catches each corner's jittered partner and nothing else.
  ExpectSamePairSet(DistanceJoinPairs(r, s, grid, 5), OracleJoin(r, s, 5),
                    "corners r=5");
  // A radius past 2^32 spans every axis delta; with 64-bit arithmetic the
  // squared radius would wrap to something tiny and drop the far pairs.
  const uint64_t huge = 1ULL << 33;
  ExpectSamePairSet(DistanceJoinPairs(r, s, grid, huge),
                    OracleJoin(r, s, huge), "corners huge r");
}

TEST(DistanceJoinTest, PlannerRunsDistanceJoinEndToEnd) {
  const GridSpec grid{2, 10};
  workload::PairedDataGenConfig config;
  config.base.count = 2000;
  config.base.seed = 111;
  const auto data = GeneratePairedPoints(grid, config);

  query::PlannerContext ctx;  // no index: the join plans standalone
  auto query = query::Query::DistanceJoin(data.r, data.s, grid, 6);
  auto planned = query::Plan(query, ctx);
  ASSERT_NE(planned.root, nullptr);
  EXPECT_EQ(planned.root->stats().op, "DistanceJoin");
  EXPECT_TRUE(planned.root->stats().has_estimate);

  const auto result = query::Execute(*planned.root).rows;
  const auto expect = OracleJoin(data.r, data.s, 6);
  ASSERT_EQ(result.size(), expect.size());
  // The node's detail must carry the measured counters for EXPLAIN.
  EXPECT_NE(planned.root->stats().detail.find("candidates="),
            std::string::npos);
  EXPECT_NE(planned.root->stats().detail.find("pairs=" +
                                              std::to_string(expect.size())),
            std::string::npos);

  // And the parallel plan: same rows, ParallelDistanceJoin operator.
  util::ThreadPool pool(2);
  ctx.pool = &pool;
  query::PlannerOptions options;
  options.join_parallel_row_threshold = 1;
  auto parallel = query::Plan(query, ctx, options);
  EXPECT_EQ(parallel.root->stats().op, "ParallelDistanceJoin");
  const auto parallel_result = query::Execute(*parallel.root).rows;
  ASSERT_EQ(parallel_result.size(), result.size());
  for (size_t i = 0; i < result.size(); ++i) {
    EXPECT_TRUE(parallel_result.row(i) == result.row(i)) << i;
  }
}

}  // namespace
}  // namespace probe::relational
