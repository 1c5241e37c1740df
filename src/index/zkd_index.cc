#include "index/zkd_index.h"

#include <algorithm>
#include <cassert>
#include <optional>

#include "decompose/generator.h"
#include "obs/runtime_metrics.h"
#include "geometry/primitives.h"
#include "probe/check.h"
#include "storage/audit.h"
#include "zorder/audit.h"
#include "zorder/bigmin.h"
#include "zorder/shuffle.h"

namespace probe::index {

namespace {

using btree::LeafEntry;
using btree::ZKey;
using geometry::GridBox;
using geometry::GridPoint;
using zorder::ZValue;


// Flushes one finished query's aggregates to the process-wide registry —
// a handful of relaxed adds per *query*, so instrumentation cost never
// scales with elements or points (the bench_obs overhead budget depends
// on this). point_seeks is published as the BIGMIN-skip family: every
// seek past the current position is a skip the merge earned.
void FlushQueryMetrics(const QueryStats* stats, size_t result_count) {
  if (stats == nullptr || !obs::Enabled()) return;
  obs::QueryMetrics::Default().RecordQuery(
      stats->leaf_pages, stats->internal_pages, stats->points_scanned,
      stats->elements_generated, stats->point_seeks, result_count);
}

// Full-resolution key of a point.
ZKey PointKey(const zorder::GridSpec& grid, const GridPoint& point) {
  return ZKey::FromZValue(Shuffle(grid, point.coords()));
}

// Full-resolution key whose integer value is `z`.
ZKey IntegerKey(const zorder::GridSpec& grid, uint64_t z) {
  return ZKey::FromZValue(ZValue::FromInteger(z, grid.total_bits()));
}

// A full-depth element is exact for any classifier (a one-cell crossing
// region is decided by the classifier itself for boxes; for general
// objects the boundary cell counts as inside per the grid approximation),
// so verification only matters when the decomposition is depth-capped.
bool MustVerify(const zorder::GridSpec& grid, const SearchOptions& options) {
  return options.verify_candidates && options.max_element_depth >= 0 &&
         options.max_element_depth < grid.total_bits();
}

// The candidate check: does the entry's cell lie inside the object?
bool ObjectHolds(const zorder::GridSpec& grid,
                 const geometry::SpatialObject& object,
                 const LeafEntry& entry) {
  const GridPoint cell(
      std::span<const uint32_t>(Unshuffle(grid, entry.key.ToZValue())));
  return object.ContainsCell(cell);
}

void FillCursorStats(const btree::BTree::Cursor& cursor, QueryStats* stats) {
  if (stats == nullptr) return;
  stats->leaf_pages = cursor.leaf_loads();
  stats->internal_pages = cursor.internal_loads();
  stats->entries_on_touched_pages = cursor.leaf_entries_seen();
}

// Interior split points for `partitions` contiguous slices of the z span
// [lo, hi], evenly spaced and strictly ascending (duplicates collapse, so
// narrow spans simply yield fewer partitions).
std::vector<uint64_t> EvenSplits(uint64_t lo, uint64_t hi, int partitions) {
  std::vector<uint64_t> splits;
  if (partitions <= 1 || hi <= lo) return splits;
  const unsigned __int128 width =
      static_cast<unsigned __int128>(hi - lo) + 1;
  for (int i = 1; i < partitions; ++i) {
    const uint64_t s =
        lo + static_cast<uint64_t>(width * static_cast<unsigned>(i) /
                                   static_cast<unsigned>(partitions));
    if (s > lo && (splits.empty() || s > splits.back())) splits.push_back(s);
  }
  return splits;
}

}  // namespace

ZkdIndex::ZkdIndex(const zorder::GridSpec& grid, storage::BufferPool* pool,
                   const btree::BTreeConfig& config)
    : grid_(grid), tree_(pool, config) {
  assert(grid_.Valid());
}

ZkdIndex ZkdIndex::Attach(const zorder::GridSpec& grid,
                          storage::BufferPool* pool,
                          const btree::BTree::PersistentState& state,
                          const btree::BTreeConfig& config) {
  assert(grid.Valid());
  return ZkdIndex(grid, btree::BTree::Attach(pool, state, config));
}

ZkdIndex ZkdIndex::Build(const zorder::GridSpec& grid,
                         storage::BufferPool* pool,
                         std::span<const PointRecord> points,
                         const btree::BTreeConfig& config, double fill) {
  std::vector<LeafEntry> entries;
  entries.reserve(points.size());
  for (const PointRecord& record : points) {
    entries.push_back(LeafEntry{PointKey(grid, record.point), record.id});
  }
  std::sort(entries.begin(), entries.end(),
            [](const LeafEntry& a, const LeafEntry& b) {
              if (a.key != b.key) return a.key < b.key;
              return a.payload < b.payload;
            });
  ZkdIndex index(grid, pool, config);
  index.tree_ = btree::BTree::BulkLoad(pool, entries, config, fill);
  return index;
}

ZkdIndex ZkdIndex::BuildExternal(const zorder::GridSpec& grid,
                                 storage::BufferPool* pool,
                                 std::span<const PointRecord> points,
                                 storage::Pager* scratch,
                                 size_t memory_budget,
                                 const btree::BTreeConfig& config, double fill,
                                 btree::ExternalSortStats* sort_stats) {
  btree::ExternalSorter sorter(scratch, memory_budget);
  for (const PointRecord& record : points) {
    sorter.Add(LeafEntry{PointKey(grid, record.point), record.id});
  }
  btree::BTree::BulkBuilder builder(pool, config, fill);
  sorter.Drain([&](const LeafEntry& entry) { builder.Add(entry); });
  if (sort_stats != nullptr) *sort_stats = sorter.stats();
  ZkdIndex index(grid, pool, config);
  index.tree_ = builder.Finish();
  return index;
}

void ZkdIndex::Insert(const GridPoint& point, uint64_t id) {
  tree_.Insert(PointKey(grid_, point), id);
}

bool ZkdIndex::Delete(const GridPoint& point, uint64_t id) {
  return tree_.Delete(PointKey(grid_, point), id);
}

std::vector<uint64_t> ZkdIndex::RangeSearch(const GridBox& box,
                                            QueryStats* stats,
                                            const SearchOptions& options) const {
  if (options.merge == SearchOptions::Merge::kBigMin) {
    return SearchBigMin(box, stats);
  }
  const geometry::BoxObject object(box);
  return SearchDecomposed(object, stats, options);
}

std::vector<uint64_t> ZkdIndex::SearchObject(
    const geometry::SpatialObject& object, QueryStats* stats,
    const SearchOptions& options) const {
  SearchOptions effective = options;
  if (effective.merge == SearchOptions::Merge::kBigMin) {
    effective.merge = SearchOptions::Merge::kSkipMerge;  // needs a box
  }
  return SearchDecomposed(object, stats, effective);
}

uint64_t ZkdIndex::CountRange(uint64_t zlo, uint64_t zhi,
                              QueryStats* stats) const {
  storage::PinBalanceScope pin_scope("ZkdIndex::CountRange");
  btree::BTree::Cursor cursor(&tree_);
  uint64_t count = 0;
  if (zlo <= zhi && cursor.Seek(IntegerKey(grid_, zlo))) {
    count = cursor.CountWhileLE(zhi);
  }
  if (stats != nullptr) {
    QueryStats part;
    FillCursorStats(cursor, &part);
    part.point_seeks = 1;
    part.results = count;
    *stats += part;
  }
  return count;
}

uint64_t ZkdIndex::CountBox(const geometry::GridBox& box, QueryStats* stats,
                            const SearchOptions& options) const {
  // At full depth every element lies inside the box, so whole elements
  // count by run and leaf-header arithmetic; a depth cap makes boundary
  // elements overcover, so their rows materialize and are verified.
  storage::PinBalanceScope pin_scope("ZkdIndex::CountBox");
  RangeCursor merge(*this, box, options);
  uint64_t materialized = 0;
  while (merge.Step()) {
    if (merge.verify()) {
      materialized += static_cast<uint64_t>(merge.TakeRun(nullptr));
    } else {
      merge.TakeElement();
    }
  }
  QueryStats part = merge.stats();
  part.materialized_rows = materialized;
  if (stats != nullptr) *stats += part;
  return part.results;
}

std::vector<uint64_t> ZkdIndex::PartialMatch(
    std::span<const std::optional<uint32_t>> fixed, QueryStats* stats,
    const SearchOptions& options) const {
  assert(fixed.size() == static_cast<size_t>(grid_.dims));
  const uint32_t max_cell = static_cast<uint32_t>(grid_.side() - 1);
  std::vector<zorder::DimRange> ranges(grid_.dims);
  for (int i = 0; i < grid_.dims; ++i) {
    if (fixed[i].has_value()) {
      ranges[i] = {*fixed[i], *fixed[i]};
    } else {
      ranges[i] = {0, max_cell};
    }
  }
  return RangeSearch(GridBox(ranges), stats, options);
}

std::vector<uint64_t> ZkdIndex::SearchDecomposed(
    const geometry::SpatialObject& object, QueryStats* stats,
    const SearchOptions& options) const {
  std::vector<uint64_t> results;

  if (options.merge != SearchOptions::Merge::kPlainMerge) {
    // Every page the merge pins is released before it returns; the scope
    // must outlive the cursor, which keeps its current leaf pinned.
    storage::PinBalanceScope pin_scope("ZkdIndex::SearchDecomposed");
    RangeCursor merge(*this, object, options);
    while (merge.Step()) merge.TakeRun(&results);
    if (stats != nullptr) *stats = merge.stats();
    return results;
  }

  // Step 3 of Section 3.3 verbatim: a linear merge of P and B.
  const int total = grid_.total_bits();
  decompose::DecomposeOptions dopts;
  dopts.max_depth = options.max_element_depth;
  decompose::ElementGenerator generator(grid_, object, dopts);
  const bool verify = MustVerify(grid_, options);

  auto report = [&](const LeafEntry& entry) {
    if (verify && !ObjectHolds(grid_, object, entry)) return;
    results.push_back(entry.payload);
  };

  btree::BTree::Cursor cursor(&tree_);
  ZValue element;
  uint64_t points_scanned = 0;
  bool have_point = cursor.SeekFirst();
  bool have_element = generator.Next(&element);
  while (have_point && have_element) {
    const uint64_t pz = cursor.entry().key.ToZValue().ToInteger();
    const uint64_t zlo = element.RangeLo(total);
    const uint64_t zhi = element.RangeHi(total);
    ++points_scanned;
    if (pz < zlo) {
      have_point = cursor.Next();
    } else if (pz > zhi) {
      --points_scanned;  // the same point is re-examined next round
      have_element = generator.Next(&element);
    } else {
      report(cursor.entry());
      have_point = cursor.Next();
    }
  }

  QueryStats part;
  FillCursorStats(cursor, &part);
  part.points_scanned = points_scanned;
  part.elements_generated = generator.elements_emitted();
  part.classify_calls = generator.classify_calls();
  part.results = results.size();
  if (stats != nullptr) *stats = part;
  FlushQueryMetrics(&part, results.size());
  return results;
}

void ZkdIndex::BigMinPartition(uint64_t zmin, uint64_t zmax, uint64_t from,
                               uint64_t upto, std::vector<uint64_t>* results,
                               QueryStats* stats) const {
  // The BIGMIN walk must move strictly forward in z (each skip lands past
  // the current point) and leave no pinned pages behind. The scope must
  // outlive the cursor, which keeps its current leaf pinned.
  storage::PinBalanceScope pin_scope("ZkdIndex::BigMinPartition");
  btree::BTree::Cursor cursor(&tree_);
  uint64_t points_scanned = 0;
  uint64_t point_seeks = 1;
  check::ZMonotone scan_order(/*strict=*/false);
  bool have_point = cursor.Seek(IntegerKey(grid_, from));
  while (have_point) {
    const uint64_t pz = cursor.entry().key.ToZValue().ToInteger();
    if (pz > upto) break;
    PROBE_AUDIT(scan_order.Observe(pz, "BIGMIN point scan"));
    ++points_scanned;
    if (InBox(grid_, pz, zmin, zmax)) {
      results->push_back(cursor.entry().payload);
      have_point = cursor.Next();
      continue;
    }
    uint64_t next_z = 0;
    const bool found = BigMin(grid_, pz, zmin, zmax, &next_z);
    PROBE_AUDIT(zorder::AuditBigMinResult(grid_, pz, zmin, zmax, found,
                                          next_z, /*is_bigmin=*/true));
    if (!found) break;
    if (next_z > upto) break;  // the rest of the box is another partition's
    ++point_seeks;
    have_point = cursor.Seek(IntegerKey(grid_, next_z));
  }

  QueryStats part;
  FillCursorStats(cursor, &part);
  part.points_scanned = points_scanned;
  part.point_seeks = point_seeks;
  part.results = results->size();
  *stats += part;
}

std::vector<uint64_t> ZkdIndex::SearchBigMin(const GridBox& box,
                                             QueryStats* stats) const {
  assert(box.dims() == grid_.dims);
  std::vector<uint64_t> results;
  std::vector<uint32_t> lo_coords(grid_.dims), hi_coords(grid_.dims);
  for (int i = 0; i < grid_.dims; ++i) {
    lo_coords[i] = box.range(i).lo;
    hi_coords[i] = box.range(i).hi;
  }
  const uint64_t zmin = Shuffle(grid_, lo_coords).ToInteger();
  const uint64_t zmax = Shuffle(grid_, hi_coords).ToInteger();

  QueryStats merged;
  BigMinPartition(zmin, zmax, zmin, zmax, &results, &merged);
  if (stats != nullptr) *stats = merged;
  FlushQueryMetrics(&merged, results.size());
  return results;
}

std::vector<uint64_t> ZkdIndex::ParallelDecomposed(
    const geometry::SpatialObject& object,
    std::span<const uint64_t> split_points, util::ThreadPool& pool,
    QueryStats* stats, const SearchOptions& options) const {
  const size_t parts = split_points.size() + 1;
  return GatherInOrder<uint64_t>(
      pool, parts, stats, [&](size_t k, QueryStats* part) {
        const uint64_t lo = k == 0 ? 0 : split_points[k - 1];
        const uint64_t hi = k + 1 == parts ? ~0ULL : split_points[k] - 1;
        storage::PinBalanceScope pin_scope("ZkdIndex::ParallelDecomposed");
        RangeCursor merge(*this, object, options, lo, hi);
        std::vector<uint64_t> ids;
        while (merge.Step()) merge.TakeRun(&ids);
        // The caller flushes the partitions' sum as one query.
        *part = merge.TakeStats();
        return ids;
      });
}

std::vector<uint64_t> ZkdIndex::ParallelRangeSearch(
    const GridBox& box, util::ThreadPool& pool, int partitions,
    QueryStats* stats, const SearchOptions& options) const {
  assert(box.dims() == grid_.dims);
  QueryStats local;
  if (stats == nullptr && obs::Enabled()) stats = &local;
  if (stats != nullptr) *stats = QueryStats{};
  const int parts = partitions > 0 ? partitions : pool.lanes();

  std::vector<uint32_t> lo_coords(grid_.dims), hi_coords(grid_.dims);
  for (int i = 0; i < grid_.dims; ++i) {
    lo_coords[i] = box.range(i).lo;
    hi_coords[i] = box.range(i).hi;
  }
  const uint64_t zmin = Shuffle(grid_, lo_coords).ToInteger();
  const uint64_t zmax = Shuffle(grid_, hi_coords).ToInteger();

  // Candidate split points, snapped *into* the box with BIGMIN: a raw even
  // split may land in a z region the box never visits, which would leave
  // its partition idle. Snapping keeps the points ascending (BIGMIN is
  // monotone); collapsed or exhausted splits just shrink the fan-out.
  std::vector<uint64_t> splits;
  for (const uint64_t raw : EvenSplits(zmin, zmax, parts)) {
    uint64_t snapped = raw;
    if (!InBox(grid_, snapped, zmin, zmax) &&
        !BigMin(grid_, snapped, zmin, zmax, &snapped)) {
      continue;  // no box cell at or after this split
    }
    if (snapped > zmin && (splits.empty() || snapped > splits.back())) {
      splits.push_back(snapped);
    }
  }

  if (options.merge == SearchOptions::Merge::kBigMin) {
    const size_t bparts = splits.size() + 1;
    std::vector<uint64_t> results = GatherInOrder<uint64_t>(
        pool, bparts, stats, [&](size_t k, QueryStats* part) {
          const uint64_t from = k == 0 ? zmin : splits[k - 1];
          const uint64_t upto = k + 1 == bparts ? zmax : splits[k] - 1;
          std::vector<uint64_t> ids;
          BigMinPartition(zmin, zmax, from, upto, &ids, part);
          return ids;
        });
    FlushQueryMetrics(stats, results.size());
    return results;
  }

  const geometry::BoxObject object(box);
  std::vector<uint64_t> results =
      ParallelDecomposed(object, splits, pool, stats, options);
  FlushQueryMetrics(stats, results.size());
  return results;
}

std::vector<uint64_t> ZkdIndex::ParallelSearchObject(
    const geometry::SpatialObject& object, util::ThreadPool& pool,
    int partitions, QueryStats* stats, const SearchOptions& options) const {
  QueryStats local;
  if (stats == nullptr && obs::Enabled()) stats = &local;
  if (stats != nullptr) *stats = QueryStats{};
  const int parts = partitions > 0 ? partitions : pool.lanes();
  const int total = grid_.total_bits();
  const uint64_t zmax = total < 64 ? (1ULL << total) - 1 : ~0ULL;
  const std::vector<uint64_t> splits = EvenSplits(0, zmax, parts);
  std::vector<uint64_t> results =
      ParallelDecomposed(object, splits, pool, stats, options);
  FlushQueryMetrics(stats, results.size());
  return results;
}

ZkdIndex::RangeCursor::RangeCursor(const ZkdIndex& index,
                                   const geometry::SpatialObject& object,
                                   const SearchOptions& options,
                                   uint64_t owned_lo, uint64_t owned_hi)
    : RangeCursor(index, nullptr, &object, options, owned_lo, owned_hi) {}

ZkdIndex::RangeCursor::RangeCursor(const ZkdIndex& index,
                                   const geometry::GridBox& box,
                                   const SearchOptions& options)
    : RangeCursor(index, &box, nullptr, options, 0, ~0ULL) {}

ZkdIndex::RangeCursor::RangeCursor(const ZkdIndex& index,
                                   const geometry::GridBox* box,
                                   const geometry::SpatialObject* object,
                                   const SearchOptions& options,
                                   uint64_t owned_lo, uint64_t owned_hi)
    : index_(index),
      box_(box != nullptr ? std::optional<geometry::BoxObject>(*box)
                          : std::nullopt),
      object_(box_.has_value() ? *box_ : *object),
      verify_(MustVerify(index.grid_, options)),
      owned_lo_(owned_lo),
      owned_hi_(owned_hi),
      generator_(index.grid_, object_,
                 decompose::DecomposeOptions{.max_depth =
                                                 options.max_element_depth}),
      cursor_(&index.tree_) {
  if (NextElement(owned_lo_)) {
    ++counted_.point_seeks;
    have_point_ = cursor_.Seek(IntegerKey(index_.grid_, zlo_));
  }
}

ZkdIndex::RangeCursor::~RangeCursor() {
  // However far the caller drained it, the cursor was one query.
  if (report_) {
    const QueryStats final_stats = stats();
    FlushQueryMetrics(&final_stats, final_stats.results);
  }
}

bool ZkdIndex::RangeCursor::NextElement(uint64_t target) {
  const int total = index_.grid_.total_bits();
  zorder::ZValue element;
  // invariant-lint waiver(private-merge): the one Section 3.3 merge.
  bool have_element = generator_.SeekForward(target, &element);
  // Ownership: this cursor merges exactly the elements whose range
  // *starts* in [owned_lo, owned_hi]. Elements are pairwise disjoint in z,
  // so at most one element straddles owned_lo — it belongs to the previous
  // partition and is skipped; a straddler of owned_hi is merged here in
  // full.
  while (have_element && element.RangeLo(total) < owned_lo_) {
    have_element = generator_.Next(&element);
  }
  if (!have_element) return false;
  zlo_ = element.RangeLo(total);
  zhi_ = element.RangeHi(total);
  PROBE_AUDIT(element_order_.Observe(zlo_, "skip-merge element sequence"));
  return zlo_ <= owned_hi_;  // past owned_hi it is another partition's
}

bool ZkdIndex::RangeCursor::Step() {
  assert(!positioned_ && "take from the element before stepping again");
  while (have_point_) {
    const uint64_t pz = cursor_.entry().key.ToZValue().ToInteger();
    ++counted_.points_scanned;
    if (pz < zlo_) {
      // Random access on P: jump to the element's start.
      ++counted_.point_seeks;
      have_point_ = cursor_.Seek(IntegerKey(index_.grid_, zlo_));
      continue;
    }
    if (pz <= zhi_) {
      positioned_ = true;
      return true;
    }
    // pz ran past the element: random access on B.
    if (!NextElement(pz)) break;
    if (pz < zlo_) {
      ++counted_.point_seeks;
      have_point_ = cursor_.Seek(IntegerKey(index_.grid_, zlo_));
    }
    // Otherwise the current point lies inside the new element and the
    // next iteration lands on it.
  }
  have_point_ = false;
  return false;
}

bool ZkdIndex::RangeCursor::Matches(const LeafEntry& entry) const {
  return !verify_ || ObjectHolds(index_.grid_, object_, entry);
}

void ZkdIndex::RangeCursor::Consumed(int n) {
  // Step already counted the first entry.
  counted_.points_scanned += static_cast<uint64_t>(n) - 1;
  have_point_ = cursor_.Advance(n);
  positioned_ = false;
}

int ZkdIndex::RangeCursor::TakeRun(std::vector<uint64_t>* ids) {
  assert(positioned_);
  // RunLengthLE is the SIMD interval filter over the leaf's decoded z
  // array; Step re-enters the element when it straddles leaves.
  const int run = cursor_.RunLengthLE(zhi_);
  for (int k = 0; k < run; ++k) {
    PROBE_AUDIT(report_order_.Observe(cursor_.PeekZ(k),
                                      "skip-merge reported points"));
    const LeafEntry& entry = cursor_.PeekEntry(k);
    if (!Matches(entry)) continue;
    ++counted_.results;
    if (ids != nullptr) ids->push_back(entry.payload);
  }
  Consumed(run);
  return run;
}

uint64_t ZkdIndex::RangeCursor::TakeElement() {
  assert(positioned_);
  // Sums run lengths and whole-leaf header counts; no row is decoded.
  const uint64_t count = cursor_.CountWhileLE(zhi_);
  ++counted_.contained_elements;
  counted_.results += count;
  have_point_ = cursor_.Valid();
  positioned_ = false;
  return count;
}

bool ZkdIndex::RangeCursor::Next(uint64_t* id, geometry::GridPoint* point) {
  while (Step()) {
    const LeafEntry entry = cursor_.entry();
    PROBE_AUDIT(report_order_.Observe(entry.key.ToZValue().ToInteger(),
                                      "skip-merge reported points"));
    const bool match = Matches(entry);
    Consumed(1);
    if (!match) continue;
    ++counted_.results;
    *id = entry.payload;
    if (point != nullptr) {
      *point = GridPoint(std::span<const uint32_t>(
          Unshuffle(index_.grid_, entry.key.ToZValue())));
    }
    return true;
  }
  return false;
}

QueryStats ZkdIndex::RangeCursor::stats() const {
  QueryStats out = counted_;
  FillCursorStats(cursor_, &out);
  out.elements_generated = generator_.elements_emitted();
  out.classify_calls = generator_.classify_calls();
  return out;
}

QueryStats ZkdIndex::RangeCursor::TakeStats() {
  report_ = false;
  return stats();
}

std::vector<ZkdIndex::LeafInfo> ZkdIndex::LeafPartitions() const {
  std::vector<LeafInfo> infos;
  for (const auto& summary : tree_.LeafSequence()) {
    infos.push_back(LeafInfo{summary.first_key, summary.entries});
  }
  return infos;
}

}  // namespace probe::index
