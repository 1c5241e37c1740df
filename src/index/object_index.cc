#include "index/object_index.h"

#include <algorithm>
#include <cassert>
#include <unordered_set>

#include "decompose/generator.h"
#include "geometry/primitives.h"
#include "zorder/shuffle.h"

namespace probe::index {

namespace {

using btree::ZKey;
using zorder::ZValue;

// Hashable identity of a z value, for the per-query ancestor memo.
struct ZId {
  uint64_t raw;
  int len;
  bool operator==(const ZId&) const = default;
};

struct ZIdHash {
  size_t operator()(const ZId& z) const {
    return std::hash<uint64_t>()(z.raw * 31 + static_cast<uint64_t>(z.len));
  }
};

}  // namespace

ZkdObjectIndex::ZkdObjectIndex(const zorder::GridSpec& grid,
                               storage::BufferPool* pool,
                               const btree::BTreeConfig& config)
    : grid_(grid), tree_(pool, config) {
  assert(grid_.Valid());
}

uint64_t ZkdObjectIndex::Insert(uint64_t id,
                                const geometry::SpatialObject& object,
                                const decompose::DecomposeOptions& options) {
  uint64_t inserted = 0;
  for (const ZValue& element : Decompose(grid_, object, options)) {
    tree_.Insert(ZKey::FromZValue(element), id);
    ++inserted;
  }
  element_counts_[id] += inserted;
  return inserted;
}

uint64_t ZkdObjectIndex::Remove(uint64_t id,
                                const geometry::SpatialObject& object,
                                const decompose::DecomposeOptions& options) {
  uint64_t removed = 0;
  for (const ZValue& element : Decompose(grid_, object, options)) {
    if (tree_.Delete(ZKey::FromZValue(element), id)) ++removed;
  }
  auto it = element_counts_.find(id);
  if (it != element_counts_.end()) {
    it->second -= removed;
    if (it->second == 0) element_counts_.erase(it);
  }
  return removed;
}

std::vector<uint64_t> ZkdObjectIndex::QueryOverlapping(
    const geometry::SpatialObject& probe, ObjectQueryStats* stats,
    const decompose::DecomposeOptions& options) const {
  const int total = grid_.total_bits();
  std::vector<uint64_t> hits;
  decompose::ElementGenerator generator(grid_, probe, options);
  btree::BTree::Cursor cursor(&tree_);
  std::unordered_set<ZId, ZIdHash> checked_prefixes;
  uint64_t entries_scanned = 0;
  uint64_t prefix_lookups = 0;
  uint64_t probe_elements = 0;
  uint64_t ancestor_leaf_loads = 0;
  uint64_t ancestor_internal_loads = 0;

  // Collects stored elements that *strictly contain* `element`: they are
  // exactly the proper prefixes of its z value, found by point lookups.
  // (They precede the element in key order, so the forward merge below
  // cannot see them.) The memo keeps shared ancestors from being probed
  // once per probe element.
  auto check_ancestors = [&](const ZValue& element) {
    for (int len = 0; len < element.length(); ++len) {
      const ZValue prefix = element.Prefix(len);
      if (!checked_prefixes.insert(ZId{prefix.raw(), len}).second) continue;
      const ZKey key = ZKey::FromZValue(prefix);
      ++prefix_lookups;
      btree::BTree::Cursor probe_cursor(&tree_);
      if (probe_cursor.Seek(key)) {
        while (probe_cursor.entry().key == key) {
          hits.push_back(probe_cursor.entry().payload);
          if (!probe_cursor.Next()) break;
        }
      }
      ancestor_leaf_loads += probe_cursor.leaf_loads();
      ancestor_internal_loads += probe_cursor.internal_loads();
    }
  };

  ZValue element;
  bool have_element = generator.Next(&element);
  if (have_element) {
    ++probe_elements;
    check_ancestors(element);
    bool have_entry = cursor.Seek(ZKey::FromZValue(element));
    while (have_entry && have_element) {
      const ZValue entry_z = cursor.entry().key.ToZValue();
      ++entries_scanned;
      if (element.Contains(entry_z)) {
        // The stored element lies inside the probe element: overlap.
        hits.push_back(cursor.entry().payload);
        have_entry = cursor.Next();
        continue;
      }
      // The entry is past the probe element's subtree: advance the probe
      // to the first element that could still reach this entry, skipping
      // the dead gap on both sequences.
      const uint64_t entry_lo = entry_z.RangeLo(total);
      // invariant-lint waiver(private-merge): stored elements, not points;
      // the containment test replaces the point-in-interval one.
      have_element = generator.SeekForward(entry_lo, &element);
      if (!have_element) break;
      ++probe_elements;
      check_ancestors(element);
      const ZKey element_key = ZKey::FromZValue(element);
      if (cursor.entry().key < element_key) {
        have_entry = cursor.Seek(element_key);
      }
    }
  }

  std::sort(hits.begin(), hits.end());
  hits.erase(std::unique(hits.begin(), hits.end()), hits.end());
  if (stats != nullptr) {
    stats->leaf_pages = cursor.leaf_loads() + ancestor_leaf_loads;
    stats->internal_pages = cursor.internal_loads() + ancestor_internal_loads;
    stats->entries_scanned = entries_scanned;
    stats->probe_elements = probe_elements;
    stats->prefix_lookups = prefix_lookups;
    stats->result_objects = hits.size();
  }
  return hits;
}

std::vector<uint64_t> ZkdObjectIndex::QueryBox(const geometry::GridBox& box,
                                               ObjectQueryStats* stats) const {
  const geometry::BoxObject probe(box);
  return QueryOverlapping(probe, stats);
}

std::vector<uint64_t> ZkdObjectIndex::QueryContained(
    const geometry::GridBox& window, ObjectQueryStats* stats) const {
  // An object is contained in the window iff all of its elements are; an
  // element is inside the window iff some (maximal) window element
  // contains it, which is exactly the forward-merge containment case — so
  // no ancestor lookups are needed here, only the skip merge, counting
  // covered elements per object.
  const int total = grid_.total_bits();
  const geometry::BoxObject probe(window);
  decompose::ElementGenerator generator(grid_, probe);
  btree::BTree::Cursor cursor(&tree_);
  std::unordered_map<uint64_t, uint64_t> covered;
  uint64_t entries_scanned = 0;
  uint64_t probe_elements = 0;

  ZValue element;
  bool have_element = generator.Next(&element);
  if (have_element) {
    ++probe_elements;
    bool have_entry = cursor.Seek(ZKey::FromZValue(element));
    while (have_entry && have_element) {
      const ZValue entry_z = cursor.entry().key.ToZValue();
      ++entries_scanned;
      if (element.Contains(entry_z)) {
        ++covered[cursor.entry().payload];
        have_entry = cursor.Next();
        continue;
      }
      const uint64_t entry_lo = entry_z.RangeLo(total);
      // invariant-lint waiver(private-merge): stored elements, not points.
      have_element = generator.SeekForward(entry_lo, &element);
      if (!have_element) break;
      ++probe_elements;
      const ZKey element_key = ZKey::FromZValue(element);
      if (cursor.entry().key < element_key) {
        have_entry = cursor.Seek(element_key);
      }
    }
  }

  std::vector<uint64_t> hits;
  for (const auto& [id, count] : covered) {
    auto it = element_counts_.find(id);
    if (it != element_counts_.end() && it->second == count) {
      hits.push_back(id);
    }
  }
  std::sort(hits.begin(), hits.end());
  if (stats != nullptr) {
    stats->leaf_pages = cursor.leaf_loads();
    stats->internal_pages = cursor.internal_loads();
    stats->entries_scanned = entries_scanned;
    stats->probe_elements = probe_elements;
    stats->prefix_lookups = 0;
    stats->result_objects = hits.size();
  }
  return hits;
}

std::vector<uint64_t> ZkdObjectIndex::QueryPoint(
    const geometry::GridPoint& point, ObjectQueryStats* stats) const {
  // A cell is covered by exactly the stored elements whose z values are
  // prefixes of the cell's full-resolution z value.
  const ZValue cell = Shuffle(grid_, point.coords());
  std::vector<uint64_t> hits;
  uint64_t prefix_lookups = 0;
  uint64_t leaf_pages = 0;
  uint64_t internal_pages = 0;
  for (int len = 0; len <= cell.length(); ++len) {
    const ZKey key = ZKey::FromZValue(cell.Prefix(len));
    ++prefix_lookups;
    btree::BTree::Cursor cursor(&tree_);
    if (cursor.Seek(key)) {
      while (cursor.entry().key == key) {
        hits.push_back(cursor.entry().payload);
        if (!cursor.Next()) break;
      }
    }
    leaf_pages += cursor.leaf_loads();
    internal_pages += cursor.internal_loads();
  }
  std::sort(hits.begin(), hits.end());
  hits.erase(std::unique(hits.begin(), hits.end()), hits.end());
  if (stats != nullptr) {
    stats->prefix_lookups = prefix_lookups;
    stats->leaf_pages = leaf_pages;
    stats->internal_pages = internal_pages;
    stats->result_objects = hits.size();
  }
  return hits;
}

}  // namespace probe::index
