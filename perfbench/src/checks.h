#ifndef PERFBENCH_CHECKS_H_
#define PERFBENCH_CHECKS_H_

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "geometry/box.h"
#include "geometry/point.h"
#include "index/nearest.h"
#include "index/zkd_index.h"

/// \file
/// Answer oracles and comparators. The oracles are brute force over plain
/// point arrays — no z order, no tree, no decomposition — so they share no
/// code with the index under test. Every run also feeds each comparator a
/// perturbed input and requires it to be flagged, which shows the
/// comparison can fail.

namespace perfbench {

enum class Kind : uint8_t { kCount, kRange, kBox, kKnn };
constexpr int kKinds = 4;
const char* KindName(Kind kind);

constexpr size_t kKnnK = 10;

/// One read request of the serve workloads.
struct Request {
  Kind kind = Kind::kCount;
  probe::geometry::GridBox box;        // COUNT, RANGE, BOX
  probe::geometry::GridPoint center;   // KNN
};

/// A read answer in comparable form: ids sorted ascending (RANGE, BOX),
/// the BOX rows' points in the same order, neighbors in answer order.
struct Answer {
  uint64_t count = 0;
  std::vector<uint64_t> ids;
  std::vector<probe::geometry::GridPoint> points;
  std::vector<probe::index::Neighbor> knn;
};

/// Brute-force oracle over a point array sorted by x.
class PointSet {
 public:
  explicit PointSet(std::vector<probe::index::PointRecord> points);

  /// The answer `request` must get from an index holding exactly these
  /// points.
  Answer Expected(const Request& request) const;
  uint64_t CountIn(const probe::geometry::GridBox& box) const;

 private:
  template <typename Fn>
  void ForEachIn(const probe::geometry::GridBox& box, Fn&& fn) const;

  std::vector<probe::index::PointRecord> points_;  // sorted by x
};

/// id -> point.
using Catalog = std::unordered_map<uint64_t, probe::geometry::GridPoint>;

probe::index::Dist2 Distance2(const probe::geometry::GridPoint& a,
                              const probe::geometry::GridPoint& b);

/// Exact equality of an answer with the oracle's.
bool SameAnswer(Kind kind, const Answer& expected, const Answer& actual);

/// The answer to a COUNT, RANGE or BOX `request` while a write stream
/// runs: base points are never deleted, so every base result must be
/// present; everything else must be a stream insert (found in `stream`)
/// inside the box. `stream_in_box` bounds COUNT from above.
bool WithinStreamBounds(const Request& request, const Answer& base,
                        uint64_t stream_in_box, const Catalog& stream,
                        const Answer& actual);

/// Exact equality of two row sets, each sorted by id.
bool SameRows(std::span<const probe::index::PointRecord> expected,
              std::span<const probe::index::PointRecord> observed);

/// Count and order-insensitive digest of a pair set.
struct PairSet {
  uint64_t count = 0;
  uint64_t digest = 0;
  void Add(uint64_t a, uint64_t b);
  friend bool operator==(const PairSet&, const PairSet&) = default;
};

}  // namespace perfbench

#endif  // PERFBENCH_CHECKS_H_
