#ifndef PROBE_RELATIONAL_DISTANCE_JOIN_H_
#define PROBE_RELATIONAL_DISTANCE_JOIN_H_

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "index/zkd_index.h"
#include "util/thread_pool.h"
#include "zorder/grid.h"

/// \file
/// The zones-style distance join DistanceJoin(R, S, r) — the set-at-a-time
/// half of Section 6's proximity story (point-at-a-time k-NN lives in
/// index/nearest.*). Cross-matching two multi-million-point catalogs by
/// Euclidean distance is the astronomy-scale workload of ROADMAP item 3;
/// the algorithm is Gray et al.'s "The Zones Algorithm" mapped onto this
/// repo's machinery:
///
///  1. Bucket both inputs into horizontal *zones* of height ~r
///     (zone = y / h) and sort each side in (zone, x) order on integer
///     keys — "existing sort utilities" doing the heavy lifting, exactly
///     as Section 4 promises for z values. The sort is one in-memory
///     bucket sort over runs of consecutive zones (histogram, scatter,
///     std::sort per bucket), run on the pool when one is given.
///  2. Merge: for each R point, only the S zones within r vertically can
///     hold partners; within each such zone the partners lie in the
///     x-window [x - r, x + r], found by binary search over the zone's
///     sorted x array.
///  3. The per-pair distance test over the window runs through the SIMD
///     in-page filter's CollectWithinDist2 kernel (AVX2 with a
///     bitwise-identical scalar fallback), in exact integer arithmetic.
///
/// With h = r at most three zones are probed per point and the candidate
/// set per probe is bounded by the points in a (2r+1) x 3h window — the
/// "bounded candidates" property that lets the join scale linearly in
/// |R| + |S| + candidate pairs rather than |R| x |S|.
///
/// Distances are exact: a pair is emitted iff dx^2 + dy^2 <= r^2 in
/// integer cell coordinates, computed without overflow at any grid
/// resolution (128-bit accumulation where 64 bits could wrap). Emission
/// order is deterministic — R in its sorted (zone, x, tie-break) order,
/// each probe's partners in S's sorted order — and the parallel path
/// reproduces it bitwise.

namespace probe::relational {

/// One emitted pair of input ids.
struct IdPair {
  uint64_t r_id = 0;
  uint64_t s_id = 0;

  friend bool operator==(const IdPair&, const IdPair&) = default;
};

/// Knobs for DistanceJoin.
struct DistanceJoinOptions {
  /// Zone height in cells; 0 picks max(1, radius) — the Gray et al.
  /// choice, which bounds the probe to at most three neighbor zones.
  uint64_t zone_height = 0;
  /// When set, both sides' zone sorts and the zone merge run on the pool;
  /// the output is bitwise-identical to the serial join.
  util::ThreadPool* pool = nullptr;
  /// Merge partitions; <= 0 targets one per pool lane.
  int partitions = 0;
};

/// Work counters for one distance join.
struct DistanceJoinStats {
  uint64_t r_rows = 0;
  uint64_t s_rows = 0;
  /// Zone height actually used (after the 0 = auto default).
  uint64_t zone_height = 0;
  /// Non-empty zones built on each side.
  uint64_t r_zones = 0;
  uint64_t s_zones = 0;
  /// Pairs whose distance was actually tested (the summed x-window
  /// widths): the algorithm's real work, bounded by the zone geometry.
  uint64_t candidate_pairs = 0;
  /// Pairs emitted (distance <= radius).
  uint64_t pairs = 0;
  /// Always 0: the zone sort runs in memory and spills nothing. Kept
  /// because existing reports read them.
  uint64_t sort_pages = 0;
  uint64_t sort_runs = 0;
  /// Merge partitions actually executed (1 for the serial merge).
  size_t partitions = 1;
};

/// Streams every pair (p in r, q in s) with |p - q|^2 <= radius^2
/// (Euclidean, integer cell coordinates, inclusive) into `sink`, in the
/// deterministic order described above. `grid` must be 2-dimensional and
/// both sides' points must lie on it; ids must fit in 64 - bits_per_dim
/// bits (checked). `radius` is in cells. `stats` may be null.
void DistanceJoin(std::span<const index::PointRecord> r,
                  std::span<const index::PointRecord> s,
                  const zorder::GridSpec& grid, uint64_t radius,
                  const std::function<void(const IdPair&)>& sink,
                  DistanceJoinStats* stats = nullptr,
                  const DistanceJoinOptions& options = {});

/// DistanceJoin materialized into a vector (tests and small joins; the
/// 5-10M-point cross-match uses the sink form with a counting sink).
std::vector<IdPair> DistanceJoinPairs(std::span<const index::PointRecord> r,
                                      std::span<const index::PointRecord> s,
                                      const zorder::GridSpec& grid,
                                      uint64_t radius,
                                      DistanceJoinStats* stats = nullptr,
                                      const DistanceJoinOptions& options = {});

}  // namespace probe::relational

#endif  // PROBE_RELATIONAL_DISTANCE_JOIN_H_
