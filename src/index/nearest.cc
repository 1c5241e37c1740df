#include "index/nearest.h"

#include <algorithm>
#include <cassert>
#include <queue>
#include <span>

#include "btree/zkey.h"
#include "geometry/primitives.h"
#include "zorder/shuffle.h"

namespace probe::index {

namespace {

using btree::ZKey;
using zorder::ZValue;

// Squared distance from the query cell to the closest cell of the region.
// Accumulated in Dist2: two 32-bit deltas squared can sum past 2^64.
Dist2 MinDistance2(std::span<const zorder::DimRange> region,
                   const geometry::GridPoint& query) {
  Dist2 dist2 = 0;
  for (size_t d = 0; d < region.size(); ++d) {
    const uint32_t q = query[static_cast<int>(d)];
    uint64_t delta = 0;
    if (q < region[d].lo) {
      delta = region[d].lo - q;
    } else if (q > region[d].hi) {
      delta = q - region[d].hi;
    }
    dist2 += static_cast<Dist2>(delta) * delta;
  }
  return dist2;
}

Dist2 PointDistance2(const geometry::GridPoint& a,
                     const geometry::GridPoint& b) {
  Dist2 dist2 = 0;
  for (int d = 0; d < a.dims(); ++d) {
    const uint64_t delta = a[d] > b[d] ? a[d] - b[d] : b[d] - a[d];
    dist2 += static_cast<Dist2>(delta) * delta;
  }
  return dist2;
}

// Priority-queue entry: a z-prefix region with its optimistic distance.
struct Candidate {
  Dist2 dist2;
  ZValue region;
  // Larger dist2 = lower priority; ties broken by z order for determinism.
  bool operator<(const Candidate& other) const {
    if (dist2 != other.dist2) return dist2 > other.dist2;
    return other.region < region;
  }
};

}  // namespace

std::vector<Neighbor> KNearest(const ZkdIndex& index,
                               const geometry::GridPoint& query, size_t k,
                               NearestStats* stats,
                               const NearestOptions& options) {
  const zorder::GridSpec& grid = index.grid();
  assert(query.dims() == grid.dims);
  const int total = grid.total_bits();
  std::vector<Neighbor> best;  // kept sorted by (distance2, id), size <= k
  if (k == 0) return best;

  auto worst_bound = [&]() -> Dist2 {
    if (best.size() < k) return ~static_cast<Dist2>(0);
    return best.back().distance2;
  };
  auto offer = [&](uint64_t id, Dist2 dist2) {
    if (best.size() == k && dist2 > best.back().distance2) return;
    const Neighbor candidate{id, dist2};
    auto pos = std::lower_bound(best.begin(), best.end(), candidate,
                                [](const Neighbor& a, const Neighbor& b) {
                                  if (a.distance2 != b.distance2) {
                                    return a.distance2 < b.distance2;
                                  }
                                  return a.id < b.id;
                                });
    best.insert(pos, candidate);
    if (best.size() > k) best.pop_back();
  };

  btree::BTree::Cursor cursor(&index.tree());
  uint64_t regions_expanded = 0;
  uint64_t range_scans = 0;
  uint64_t points_examined = 0;

  std::priority_queue<Candidate> frontier;
  frontier.push(Candidate{0, ZValue()});
  while (!frontier.empty()) {
    const Candidate candidate = frontier.top();
    frontier.pop();
    // Everything left is at least this far away; if the k-th best beats
    // it, the search is complete.
    if (candidate.dist2 > worst_bound()) break;
    ++regions_expanded;

    // On a full 64-bit grid the root region has 2^64 cells; guard the
    // shift (1 << 64 is undefined) by treating >= 2^63 as "never scan".
    const int free_bits = total - candidate.region.length();
    if (free_bits < 64 &&
        (1ULL << free_bits) <= options.scan_cell_threshold) {
      // Scan the region's consecutive z range.
      ++range_scans;
      const uint64_t zlo = candidate.region.RangeLo(total);
      const uint64_t zhi = candidate.region.RangeHi(total);
      bool have = cursor.Seek(
          ZKey::FromZValue(ZValue::FromInteger(zlo, total)));
      while (have) {
        const ZValue z = cursor.entry().key.ToZValue();
        if (z.ToInteger() > zhi) break;
        ++points_examined;
        const geometry::GridPoint point(
            std::span<const uint32_t>(Unshuffle(grid, z)));
        offer(cursor.entry().payload, PointDistance2(point, query));
        have = cursor.Next();
      }
      continue;
    }
    for (int bit = 0; bit <= 1; ++bit) {
      const ZValue child = candidate.region.Child(bit);
      const Dist2 dist2 = MinDistance2(UnshuffleRegion(grid, child), query);
      if (dist2 <= worst_bound()) frontier.push(Candidate{dist2, child});
    }
  }

  if (stats != nullptr) {
    stats->regions_expanded = regions_expanded;
    stats->range_scans = range_scans;
    stats->points_examined = points_examined;
    stats->leaf_pages = cursor.leaf_loads();
    stats->internal_pages = cursor.internal_loads();
  }
  return best;
}

std::vector<uint64_t> WithinDistance(const ZkdIndex& index,
                                     const geometry::GridPoint& query,
                                     double radius, QueryStats* stats) {
  std::vector<double> center(query.dims());
  for (int d = 0; d < query.dims(); ++d) {
    center[d] = static_cast<double>(query[d]) + 0.5;
  }
  // BallObject membership uses cell centers, which are offset by +0.5 from
  // the integer coordinates distances are measured on; centering the ball
  // on the query's cell center makes the two agree exactly.
  const geometry::BallObject ball(std::move(center), radius);
  return index.SearchObject(ball, stats);
}

}  // namespace probe::index
