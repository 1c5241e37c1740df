/// \file
/// Merge-identity fuzz: every point read runs the one Section 3.3 skip
/// merge (ZkdIndex::RangeCursor), so every read must give the same answer
/// and do the same work.
///
/// Seeded random boxes and spatial objects over a 2-d and a 3-d grid, the
/// paper's 20-entry leaves, depth caps (none, the root, mid-depth),
/// verification on and off, and 1/2/4/7 partitions. For each query:
/// RangeSearch, a drained cursor, ParallelRangeSearch and the kPlainMerge
/// reference give the same ids in the same order, and CountBox gives their
/// number. The drained cursor (the BOX path) reports exactly RANGE's
/// QueryStats; COUNT reports RANGE's on every counter the two share except
/// points_scanned. A golden pins RANGE's summed QueryStats over a fixed
/// query set.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "geometry/box.h"
#include "geometry/primitives.h"
#include "index/zkd_index.h"
#include "storage/buffer_pool.h"
#include "storage/pager.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "workload/datagen.h"
#include "zorder/grid.h"

namespace probe::index {
namespace {

using geometry::GridBox;
using geometry::GridPoint;
using zorder::DimRange;
using zorder::GridSpec;

class Fixture {
 public:
  Fixture(const GridSpec& grid, size_t count, uint64_t seed)
      : pool_(&pager_, 64) {
    workload::DataGenConfig data;
    data.count = count;
    data.seed = seed;
    points_ = workload::GeneratePoints(grid, data);
    btree::BTreeConfig config;
    config.leaf_capacity = 20;
    index_ = std::make_unique<ZkdIndex>(
        ZkdIndex::Build(grid, &pool_, points_, config));
  }

  const ZkdIndex& index() const { return *index_; }

 private:
  storage::MemPager pager_;
  storage::BufferPool pool_;
  std::vector<PointRecord> points_;
  std::unique_ptr<ZkdIndex> index_;
};

GridBox RandomBox(util::Rng& rng, const GridSpec& grid) {
  std::vector<DimRange> ranges(static_cast<size_t>(grid.dims));
  for (auto& r : ranges) {
    uint64_t a = rng.NextBelow(grid.side());
    uint64_t b = std::min<uint64_t>(grid.side() - 1,
                                    a + rng.NextBelow(grid.side() / 4 + 1));
    r.lo = static_cast<uint32_t>(a);
    r.hi = static_cast<uint32_t>(b);
  }
  return GridBox(ranges);
}

std::unique_ptr<geometry::SpatialObject> RandomObject(util::Rng& rng,
                                                      const GridSpec& grid) {
  const double side = static_cast<double>(grid.side());
  std::vector<double> a(static_cast<size_t>(grid.dims));
  std::vector<double> b(static_cast<size_t>(grid.dims));
  for (size_t i = 0; i < a.size(); ++i) {
    a[i] = rng.NextDouble() * side;
    b[i] = rng.NextDouble() * side;
  }
  const double radius = (0.02 + 0.15 * rng.NextDouble()) * side;
  if (rng.NextBelow(2) == 0) {
    return std::make_unique<geometry::BallObject>(a, radius);
  }
  return std::make_unique<geometry::CapsuleObject>(a, b, radius / 2);
}

std::vector<uint64_t> Drain(ZkdIndex::RangeCursor& cursor) {
  std::vector<uint64_t> ids;
  uint64_t id = 0;
  while (cursor.Next(&id)) ids.push_back(id);
  return ids;
}

// The counters RANGE and COUNT share: all but points_scanned and the
// aggregate-only contained_elements / materialized_rows.
void ExpectSharedCounters(const QueryStats& count, const QueryStats& range,
                          const std::string& where) {
  EXPECT_EQ(count.leaf_pages, range.leaf_pages) << where;
  EXPECT_EQ(count.internal_pages, range.internal_pages) << where;
  EXPECT_EQ(count.point_seeks, range.point_seeks) << where;
  EXPECT_EQ(count.classify_calls, range.classify_calls) << where;
  EXPECT_EQ(count.elements_generated, range.elements_generated) << where;
  EXPECT_EQ(count.entries_on_touched_pages, range.entries_on_touched_pages)
      << where;
  EXPECT_EQ(count.results, range.results) << where;
}

std::vector<SearchOptions> OptionSweep(const GridSpec& grid) {
  std::vector<SearchOptions> sweep;
  for (const int depth : {-1, 0, grid.total_bits() / 2}) {
    for (const bool verify : {true, false}) {
      SearchOptions options;
      options.max_element_depth = depth;
      options.verify_candidates = verify;
      sweep.push_back(options);
    }
  }
  return sweep;
}

std::string Where(const std::string& query, const SearchOptions& options) {
  return query + " depth=" + std::to_string(options.max_element_depth) +
         " verify=" + std::to_string(options.verify_candidates);
}

TEST(FuzzMerge, EveryBoxReadRunsTheSameMerge) {
  util::ThreadPool pool(3);
  util::Rng rng(20261017);
  for (const GridSpec& grid : {GridSpec{2, 10}, GridSpec{3, 6}}) {
    const Fixture fixture(grid, 4000, rng.Next());
    const ZkdIndex& index = fixture.index();
    for (int q = 0; q < 40; ++q) {
      const GridBox box = RandomBox(rng, grid);
      for (const SearchOptions& options : OptionSweep(grid)) {
        const std::string where = Where(box.ToString(), options);
        QueryStats range_stats;
        const auto ids = index.RangeSearch(box, &range_stats, options);
        EXPECT_EQ(range_stats.results, ids.size()) << where;

        ZkdIndex::RangeCursor cursor(index, box, options);
        EXPECT_EQ(Drain(cursor), ids) << where;
        EXPECT_EQ(cursor.stats(), range_stats) << where;

        SearchOptions plain = options;
        plain.merge = SearchOptions::Merge::kPlainMerge;
        EXPECT_EQ(index.RangeSearch(box, nullptr, plain), ids) << where;

        for (const int partitions : {1, 2, 4, 7}) {
          EXPECT_EQ(index.ParallelRangeSearch(box, pool, partitions,
                                              nullptr, options),
                    ids)
              << where << " partitions=" << partitions;
        }

        QueryStats count_stats;
        EXPECT_EQ(index.CountBox(box, &count_stats, options), ids.size())
            << where;
        ExpectSharedCounters(count_stats, range_stats, where);
      }
    }
  }
}

TEST(FuzzMerge, EveryObjectReadRunsTheSameMerge) {
  util::ThreadPool pool(3);
  util::Rng rng(5150);
  for (const GridSpec& grid : {GridSpec{2, 10}, GridSpec{3, 6}}) {
    const Fixture fixture(grid, 4000, rng.Next());
    const ZkdIndex& index = fixture.index();
    for (int q = 0; q < 20; ++q) {
      const auto object = RandomObject(rng, grid);
      for (const SearchOptions& options : OptionSweep(grid)) {
        const std::string where = Where(object->Describe(), options);
        QueryStats search_stats;
        const auto ids = index.SearchObject(*object, &search_stats, options);

        ZkdIndex::RangeCursor cursor(index, *object, options);
        EXPECT_EQ(Drain(cursor), ids) << where;
        EXPECT_EQ(cursor.stats(), search_stats) << where;

        SearchOptions plain = options;
        plain.merge = SearchOptions::Merge::kPlainMerge;
        EXPECT_EQ(index.SearchObject(*object, nullptr, plain), ids) << where;

        for (const int partitions : {1, 2, 4, 7}) {
          EXPECT_EQ(index.ParallelSearchObject(*object, pool, partitions,
                                               nullptr, options),
                    ids)
              << where << " partitions=" << partitions;
        }
      }
    }
  }
}

// RANGE's summed QueryStats over a fixed query set, in field order (leaf,
// internal, scanned, elements, classify, seeks, results, entries on
// touched pages, contained elements, materialized rows). Captured from
// the implementation that kept one private merge loop per read kind:
// unifying the loops must not change what RANGE does.
struct Golden {
  int depth;
  QueryStats sum;
};

QueryStats Stats(uint64_t leaf, uint64_t internal, uint64_t scanned,
                 uint64_t elements, uint64_t classify, uint64_t seeks,
                 uint64_t results, uint64_t entries) {
  QueryStats s;
  s.leaf_pages = leaf;
  s.internal_pages = internal;
  s.points_scanned = scanned;
  s.elements_generated = elements;
  s.classify_calls = classify;
  s.point_seeks = seeks;
  s.results = results;
  s.entries_on_touched_pages = entries;
  return s;
}

TEST(FuzzMerge, RangeStatsMatchPinnedGolden) {
  const Golden goldens[] = {
      {-1, Stats(620, 1572, 6288, 2840, 22442, 1572, 3448, 12400)},
      {6, Stats(1125, 176, 19229, 238, 1684, 176, 3448, 22500)},
      {12, Stats(628, 795, 6808, 2087, 8900, 795, 3448, 12560)},
  };
  const GridSpec grid{2, 10};
  for (const Golden& golden : goldens) {
    const Fixture fixture(grid, 5000, 9);
    util::Rng rng(2024);
    QueryStats sum;
    for (int q = 0; q < 100; ++q) {
      const uint32_t x = static_cast<uint32_t>(rng.NextBelow(1024));
      const uint32_t y = static_cast<uint32_t>(rng.NextBelow(1024));
      const uint32_t w = static_cast<uint32_t>(rng.NextBelow(200));
      const uint32_t h = static_cast<uint32_t>(rng.NextBelow(200));
      const GridBox box = GridBox::Make2D(x, std::min(1023u, x + w), y,
                                          std::min(1023u, y + h));
      SearchOptions options;
      options.max_element_depth = golden.depth;
      QueryStats stats;
      fixture.index().RangeSearch(box, &stats, options);
      sum += stats;
    }
    EXPECT_EQ(sum, golden.sum) << "depth=" << golden.depth;
  }
}

}  // namespace
}  // namespace probe::index
