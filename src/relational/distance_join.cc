#include "relational/distance_join.h"

#include <algorithm>
#include <limits>
#include <memory>

#include "btree/simd_filter.h"
#include "probe/check.h"

namespace probe::relational {

namespace {

/// One side of the join after zoning and sorting: a CSR layout over the
/// non-empty zones, with parallel coordinate/id arrays in (zone, x,
/// tie-break) order. uint64_t coordinate arrays feed the SIMD kernel
/// directly; they are left uninitialized until the sort's lanes fill them,
/// so their pages are first touched in parallel.
struct ZonedSide {
  std::vector<uint64_t> zone_ids;  // sorted, non-empty zones only
  std::vector<size_t> offsets;     // zone_ids.size() + 1 row offsets
  size_t rows = 0;
  std::unique_ptr<uint64_t[]> xs;  // sorted ascending within each zone
  std::unique_ptr<uint64_t[]> ys;
  std::unique_ptr<uint64_t[]> ids;
};

/// One sort record: key (zone << d) | x, payload (id << d) | y. Integer
/// order on the key is exactly (zone, x) order because both halves are
/// below 2^d, and the payload breaks (zone, x) ties deterministically (by
/// id, then y).
struct ZoneRecord {
  uint64_t key;
  uint64_t payload;
};

bool RecordLess(const ZoneRecord& a, const ZoneRecord& b) {
  return a.key != b.key ? a.key < b.key : a.payload < b.payload;
}

/// Cap on the sort's buckets (runs of 2^shift consecutive zones), so a
/// d = 32, h = 1 join — 2^32 zones — never allocates per zone.
constexpr uint64_t kMaxBuckets = uint64_t{1} << 17;

/// Runs fn(i) for every i in [0, n): on the pool when there is one,
/// inline otherwise.
void ForEach(util::ThreadPool* pool, size_t n,
             const std::function<void(size_t)>& fn) {
  if (pool != nullptr && n > 1) {
    pool->ParallelFor(n, fn);
    return;
  }
  for (size_t i = 0; i < n; ++i) fn(i);
}

/// Sorts `points` into (zone, x, tie-break) order and materializes the CSR
/// side with one in-memory bucket sort: bucket = zone >> shift is monotone
/// in the key, so histogramming contiguous input slices, scattering in
/// (bucket, slice) order and std::sort-ing each bucket yields the full
/// (key, payload) order. Every pass but the prefix sum and the zone scan
/// runs on `pool` (or inline when it is null); the result does not depend
/// on the lane count, because (key, payload) is a total order on distinct
/// records.
ZonedSide BuildSide(std::span<const index::PointRecord> points, int d,
                    uint64_t h, util::ThreadPool* pool) {
  const uint64_t mask = (1ULL << d) - 1;  // d <= 32 < 64
  const size_t n = points.size();
  const uint64_t max_zone = mask / h;
  int shift = 0;
  while ((max_zone >> shift) >= kMaxBuckets) ++shift;
  const size_t buckets = static_cast<size_t>(max_zone >> shift) + 1;
  const size_t slices =
      pool != nullptr ? std::min(static_cast<size_t>(pool->lanes()),
                                 std::max<size_t>(1, n))
                      : 1;
  const size_t slice_rows = (n + slices - 1) / slices;

  // Histogram: counts[slice * buckets + bucket].
  std::vector<size_t> counts(slices * buckets);
  ForEach(pool, slices, [&](size_t slice) {
    size_t* mine = counts.data() + slice * buckets;
    const size_t end = std::min(n, (slice + 1) * slice_rows);
    for (size_t i = slice * slice_rows; i < end; ++i) {
      const auto& p = points[i];
      PROBE_ASSERT_MSG(p.point[0] <= mask && p.point[1] <= mask,
                       "distance join point off the grid");
      if (p.id >> (64 - d)) {
        check::AuditFailure(__FILE__, __LINE__, "id < 2^(64 - bits_per_dim)",
                            "distance join id too wide to zone-sort");
      }
      ++mine[(p.point[1] / h) >> shift];
    }
  });

  // Prefix sum in (bucket, slice) order: each count becomes its slice's
  // scatter cursor into the bucket.
  std::vector<size_t> bucket_begin(buckets + 1);
  size_t at = 0;
  for (size_t b = 0; b < buckets; ++b) {
    bucket_begin[b] = at;
    for (size_t slice = 0; slice < slices; ++slice) {
      size_t& c = counts[slice * buckets + b];
      const size_t count = c;
      c = at;
      at += count;
    }
  }
  bucket_begin[buckets] = at;

  // Scatter.
  const auto records = std::make_unique_for_overwrite<ZoneRecord[]>(n);
  ForEach(pool, slices, [&](size_t slice) {
    size_t* cursor = counts.data() + slice * buckets;
    const size_t end = std::min(n, (slice + 1) * slice_rows);
    for (size_t i = slice * slice_rows; i < end; ++i) {
      const auto& p = points[i];
      const uint64_t zone = p.point[1] / h;
      records[cursor[zone >> shift]++] =
          ZoneRecord{(zone << d) | p.point[0], (p.id << d) | p.point[1]};
    }
  });

  // Sort each bucket, over contiguous bucket ranges of about equal rows,
  // and unpack the sorted records into the coordinate/id arrays.
  ZonedSide side;
  side.rows = n;
  side.xs = std::make_unique_for_overwrite<uint64_t[]>(n);
  side.ys = std::make_unique_for_overwrite<uint64_t[]>(n);
  side.ids = std::make_unique_for_overwrite<uint64_t[]>(n);
  const size_t tasks = pool != nullptr ? std::min(buckets, 4 * slices) : 1;
  const auto first_bucket = [&](size_t task) {
    return static_cast<size_t>(
        std::lower_bound(bucket_begin.begin(), bucket_begin.end(),
                         task * n / tasks) -
        bucket_begin.begin());
  };
  ForEach(pool, tasks, [&](size_t task) {
    const size_t lo = first_bucket(task);
    const size_t hi = first_bucket(task + 1);
    for (size_t b = lo; b < hi; ++b) {
      std::sort(records.get() + bucket_begin[b],
                records.get() + bucket_begin[b + 1], RecordLess);
    }
    for (size_t i = bucket_begin[lo]; i < bucket_begin[hi]; ++i) {
      side.xs[i] = records[i].key & mask;
      side.ys[i] = records[i].payload & mask;
      side.ids[i] = records[i].payload >> d;
    }
  });

  // Zones.
  for (size_t i = 0; i < n; ++i) {
    const uint64_t zone = records[i].key >> d;
    if (side.zone_ids.empty() || side.zone_ids.back() != zone) {
      side.zone_ids.push_back(zone);
      side.offsets.push_back(i);
    }
  }
  side.offsets.push_back(n);
  return side;
}

/// Probes rows [begin, end) of `r` against `s`, accumulating into
/// `candidates`/`pairs` and emitting matches — for each R row in CSR
/// order, its partner zones ascending, partners within a zone in the
/// zone's sorted order. Serial execution calls this once over all rows;
/// the parallel path calls it per contiguous chunk, which partitions both
/// the row range and the emission sequence, so replaying chunks in order
/// reproduces the serial output exactly.
void ProbeRows(const ZonedSide& r, size_t begin, size_t end,
               const ZonedSide& s, int d, uint64_t radius, uint64_t h,
               const std::function<void(const IdPair&)>& sink,
               uint64_t* candidates, uint64_t* pairs) {
  const uint64_t side_max = (1ULL << d) - 1;
  // Coordinates below 2^31 keep every squared distance under 2^63, so the
  // 64-bit SIMD kernel is exact and clamping r^2 to int64 max loses
  // nothing; a full 32-bit grid needs the 128-bit scalar test.
  const bool simd_ok = d <= 31;
  const unsigned __int128 r2_wide =
      static_cast<unsigned __int128>(radius) * radius;
  const uint64_t r2_clamped = static_cast<uint64_t>(
      std::min(r2_wide, static_cast<unsigned __int128>(
                            std::numeric_limits<int64_t>::max())));
  constexpr int kChunk = 4096;
  int32_t hits[kChunk];

  for (size_t i = begin; i < end; ++i) {
    const uint64_t qx = r.xs[i];
    const uint64_t qy = r.ys[i];
    const uint64_t rid = r.ids[i];
    const uint64_t zlo = qy > radius ? (qy - radius) / h : 0;
    uint64_t ymax = qy + radius;
    if (ymax < qy || ymax > side_max) ymax = side_max;
    const uint64_t zhi = ymax / h;
    uint64_t xmax = qx + radius;
    if (xmax < qx) xmax = side_max;

    auto zi = std::lower_bound(s.zone_ids.begin(), s.zone_ids.end(), zlo) -
              s.zone_ids.begin();
    for (; static_cast<size_t>(zi) < s.zone_ids.size() &&
           s.zone_ids[static_cast<size_t>(zi)] <= zhi;
         ++zi) {
      const size_t off = s.offsets[static_cast<size_t>(zi)];
      const size_t zone_end = s.offsets[static_cast<size_t>(zi) + 1];
      const auto first = s.xs.get() + static_cast<ptrdiff_t>(off);
      const auto last = s.xs.get() + static_cast<ptrdiff_t>(zone_end);
      // The x-window [qx - radius, qx + radius] inside this zone.
      const size_t lo = qx > radius
                            ? static_cast<size_t>(
                                  std::lower_bound(first, last, qx - radius) -
                                  s.xs.get())
                            : off;
      const size_t hi = static_cast<size_t>(
          std::upper_bound(first + static_cast<ptrdiff_t>(lo - off), last,
                           xmax) -
          s.xs.get());
      *candidates += hi - lo;

      if (simd_ok) {
        for (size_t pos = lo; pos < hi; pos += kChunk) {
          const int len = static_cast<int>(
              std::min(hi - pos, static_cast<size_t>(kChunk)));
          const int m = btree::CollectWithinDist2(
              s.xs.get() + pos, s.ys.get() + pos, len, qx, qy, r2_clamped,
              hits);
          for (int j = 0; j < m; ++j) {
            ++*pairs;
            sink(IdPair{rid, s.ids[pos + static_cast<size_t>(hits[j])]});
          }
        }
      } else {
        for (size_t pos = lo; pos < hi; ++pos) {
          const uint64_t dx =
              s.xs[pos] > qx ? s.xs[pos] - qx : qx - s.xs[pos];
          const uint64_t dy =
              s.ys[pos] > qy ? s.ys[pos] - qy : qy - s.ys[pos];
          const unsigned __int128 d2 =
              static_cast<unsigned __int128>(dx) * dx +
              static_cast<unsigned __int128>(dy) * dy;
          if (d2 <= r2_wide) {
            ++*pairs;
            sink(IdPair{rid, s.ids[pos]});
          }
        }
      }
    }
  }
}

}  // namespace

void DistanceJoin(std::span<const index::PointRecord> r,
                  std::span<const index::PointRecord> s,
                  const zorder::GridSpec& grid, uint64_t radius,
                  const std::function<void(const IdPair&)>& sink,
                  DistanceJoinStats* stats,
                  const DistanceJoinOptions& options) {
  if (grid.dims != 2 || !grid.Valid()) {
    check::AuditFailure(__FILE__, __LINE__, "grid.dims == 2 && grid.Valid()",
                        "distance join requires a valid 2-d grid");
  }
  const int d = grid.bits_per_dim;
  const uint64_t h =
      options.zone_height != 0 ? options.zone_height
                               : std::max<uint64_t>(1, radius);
  const ZonedSide rs = BuildSide(r, d, h, options.pool);
  const ZonedSide ss = BuildSide(s, d, h, options.pool);

  uint64_t candidates = 0;
  uint64_t pairs = 0;
  size_t partitions = 1;

  const size_t rows = rs.rows;
  int want = options.partitions;
  if (options.pool != nullptr && want <= 0) want = options.pool->lanes();
  if (options.pool != nullptr && want > 1 && rows > 1) {
    // Contiguous chunks of R's sorted order: each chunk's emissions are a
    // contiguous slice of the serial output, so replaying the per-chunk
    // buffers in chunk order is bitwise-identical to the serial join.
    const size_t nchunks =
        std::min(static_cast<size_t>(want), rows);
    const size_t chunk = (rows + nchunks - 1) / nchunks;
    struct ChunkOut {
      std::vector<IdPair> out;
      uint64_t candidates = 0;
      uint64_t pairs = 0;
    };
    std::vector<ChunkOut> results(nchunks);
    options.pool->ParallelFor(nchunks, [&](size_t c) {
      const size_t begin = c * chunk;
      const size_t end = std::min(rows, begin + chunk);
      auto& mine = results[c];
      ProbeRows(
          rs, begin, end, ss, d, radius, h,
          [&mine](const IdPair& p) { mine.out.push_back(p); },
          &mine.candidates, &mine.pairs);
    });
    for (const auto& res : results) {
      candidates += res.candidates;
      pairs += res.pairs;
      for (const auto& p : res.out) sink(p);
    }
    partitions = nchunks;
  } else {
    ProbeRows(rs, 0, rows, ss, d, radius, h, sink, &candidates, &pairs);
  }

  if (stats != nullptr) {
    stats->r_rows = rs.rows;
    stats->s_rows = ss.rows;
    stats->zone_height = h;
    stats->r_zones = rs.zone_ids.size();
    stats->s_zones = ss.zone_ids.size();
    stats->candidate_pairs = candidates;
    stats->pairs = pairs;
    stats->partitions = partitions;
  }
}

std::vector<IdPair> DistanceJoinPairs(std::span<const index::PointRecord> r,
                                      std::span<const index::PointRecord> s,
                                      const zorder::GridSpec& grid,
                                      uint64_t radius,
                                      DistanceJoinStats* stats,
                                      const DistanceJoinOptions& options) {
  std::vector<IdPair> out;
  DistanceJoin(
      r, s, grid, radius, [&out](const IdPair& p) { out.push_back(p); },
      stats, options);
  return out;
}

}  // namespace probe::relational
