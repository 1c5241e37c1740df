#include "checks.h"

#include <algorithm>

#include "common.h"

namespace perfbench {

using probe::geometry::GridBox;
using probe::geometry::GridPoint;
using probe::index::Dist2;
using probe::index::Neighbor;
using probe::index::PointRecord;

const char* KindName(Kind kind) {
  switch (kind) {
    case Kind::kCount: return "count";
    case Kind::kRange: return "range";
    case Kind::kBox: return "box";
    case Kind::kKnn: return "knn";
  }
  return "?";
}

Dist2 Distance2(const GridPoint& a, const GridPoint& b) {
  Dist2 d = 0;
  for (int i = 0; i < a.dims(); ++i) {
    const uint64_t delta = a[i] > b[i] ? a[i] - b[i] : b[i] - a[i];
    d += static_cast<Dist2>(delta) * delta;
  }
  return d;
}

namespace {

bool NeighborLess(const Neighbor& a, const Neighbor& b) {
  if (a.distance2 != b.distance2) return a.distance2 < b.distance2;
  return a.id < b.id;
}

}  // namespace

PointSet::PointSet(std::vector<PointRecord> points) : points_(std::move(points)) {
  std::sort(points_.begin(), points_.end(),
            [](const PointRecord& a, const PointRecord& b) {
              return a.point[0] < b.point[0];
            });
}

template <typename Fn>
void PointSet::ForEachIn(const GridBox& box, Fn&& fn) const {
  const auto& x = box.range(0);
  auto it = std::lower_bound(
      points_.begin(), points_.end(), x.lo,
      [](const PointRecord& p, uint32_t v) { return p.point[0] < v; });
  for (; it != points_.end() && it->point[0] <= x.hi; ++it) {
    if (box.ContainsPoint(it->point)) fn(*it);
  }
}

uint64_t PointSet::CountIn(const GridBox& box) const {
  uint64_t n = 0;
  ForEachIn(box, [&n](const PointRecord&) { ++n; });
  return n;
}

Answer PointSet::Expected(const Request& request) const {
  Answer a;
  if (request.kind == Kind::kKnn) {
    std::vector<Neighbor> all;
    all.reserve(points_.size());
    for (const PointRecord& p : points_) {
      all.push_back(Neighbor{p.id, Distance2(p.point, request.center)});
    }
    const size_t k = std::min(kKnnK, all.size());
    std::partial_sort(all.begin(), all.begin() + static_cast<long>(k),
                      all.end(), NeighborLess);
    all.resize(k);
    a.knn = std::move(all);
    return a;
  }
  std::vector<PointRecord> rows;
  ForEachIn(request.box, [&rows](const PointRecord& p) { rows.push_back(p); });
  std::sort(rows.begin(), rows.end(),
            [](const PointRecord& l, const PointRecord& r) { return l.id < r.id; });
  a.count = rows.size();
  if (request.kind == Kind::kCount) return a;
  for (const PointRecord& p : rows) {
    a.ids.push_back(p.id);
    if (request.kind == Kind::kBox) a.points.push_back(p.point);
  }
  return a;
}

bool SameAnswer(Kind kind, const Answer& expected, const Answer& actual) {
  switch (kind) {
    case Kind::kCount:
      return expected.count == actual.count;
    case Kind::kRange:
      return expected.ids == actual.ids;
    case Kind::kBox:
      return expected.ids == actual.ids && expected.points == actual.points;
    case Kind::kKnn:
      if (expected.knn.size() != actual.knn.size()) return false;
      for (size_t i = 0; i < expected.knn.size(); ++i) {
        if (expected.knn[i].id != actual.knn[i].id ||
            expected.knn[i].distance2 != actual.knn[i].distance2) {
          return false;
        }
      }
      return true;
  }
  return false;
}

bool WithinStreamBounds(const Request& request, const Answer& base,
                        uint64_t stream_in_box, const Catalog& stream,
                        const Answer& actual) {
  if (request.kind == Kind::kCount) {
    return actual.count >= base.count &&
           actual.count <= base.count + stream_in_box;
  }
  // RANGE / BOX: base ⊆ answer ⊆ base ∪ (stream inserts inside the box).
  if (!std::is_sorted(actual.ids.begin(), actual.ids.end()) ||
      std::adjacent_find(actual.ids.begin(), actual.ids.end()) !=
          actual.ids.end()) {
    return false;
  }
  if (!std::includes(actual.ids.begin(), actual.ids.end(), base.ids.begin(),
                     base.ids.end())) {
    return false;
  }
  const bool rows = request.kind == Kind::kBox;
  for (size_t i = 0; i < actual.ids.size(); ++i) {
    const uint64_t id = actual.ids[i];
    const auto b = std::lower_bound(base.ids.begin(), base.ids.end(), id);
    if (b != base.ids.end() && *b == id) {
      if (rows && base.points[static_cast<size_t>(b - base.ids.begin())] !=
                      actual.points[i]) {
        return false;
      }
      continue;
    }
    const auto it = stream.find(id);
    if (it == stream.end() || !request.box.ContainsPoint(it->second)) {
      return false;
    }
    if (rows && it->second != actual.points[i]) return false;
  }
  return true;
}

bool SameRows(std::span<const PointRecord> expected,
              std::span<const PointRecord> observed) {
  if (expected.size() != observed.size()) return false;
  for (size_t i = 0; i < expected.size(); ++i) {
    if (expected[i].id != observed[i].id ||
        expected[i].point != observed[i].point) {
      return false;
    }
  }
  return true;
}

void PairSet::Add(uint64_t a, uint64_t b) {
  ++count;
  digest += PairDigest(a, b);
}

}  // namespace perfbench
