/// \file
/// Deterministic fuzz driver for decomposition: random boxes and balls on
/// random grids, audited with the disjoint-cover invariants of Section 3.
///
/// Every output is pushed through the auditors (strictly ascending,
/// pairwise-disjoint z intervals; exact cell cover for boxes; over- or
/// under-approximation as requested for capped decompositions), and the
/// lazy ElementGenerator is cross-checked against the eager Decompose.
/// Both carry each region's box from its parent's; a reference decomposer
/// that unshuffles every region instead pins down that the boxes, the
/// classify order and the emitted elements are exactly what unshuffling
/// gives. 10,000+ seeded cases per test; run under UBSan by
/// scripts/check.sh.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "decompose/audit.h"
#include "decompose/decomposer.h"
#include "decompose/generator.h"
#include "geometry/box.h"
#include "geometry/primitives.h"
#include "util/rng.h"
#include "zorder/audit.h"
#include "zorder/grid.h"
#include "zorder/shuffle.h"
#include "zorder/zvalue.h"

namespace probe {
namespace {

using decompose::DecomposeOptions;
using geometry::GridBox;
using geometry::RegionClass;
using geometry::SpatialObject;
using zorder::DimRange;
using zorder::GridSpec;
using zorder::ZValue;

constexpr int kCases = 10000;

GridSpec RandomGrid(util::Rng& rng, int max_total_bits) {
  GridSpec grid;
  grid.dims = static_cast<int>(1 + rng.NextBelow(3));
  grid.bits_per_dim = static_cast<int>(
      1 + rng.NextBelow(static_cast<uint64_t>(max_total_bits / grid.dims)));
  return grid;
}

GridBox RandomBox(util::Rng& rng, const GridSpec& grid) {
  std::vector<DimRange> ranges(static_cast<size_t>(grid.dims));
  for (auto& r : ranges) {
    uint64_t a = rng.NextBelow(grid.side());
    uint64_t b = rng.NextBelow(grid.side());
    if (a > b) std::swap(a, b);
    r.lo = static_cast<uint32_t>(a);
    r.hi = static_cast<uint32_t>(b);
  }
  return GridBox(ranges);
}

TEST(FuzzDecompose, BoxCoversAreExact) {
  util::Rng rng(0xDEC0);
  for (int c = 0; c < kCases; ++c) {
    const GridSpec grid = RandomGrid(rng, 16);
    const GridBox box = RandomBox(rng, grid);
    decompose::DecomposeStats stats;
    const std::vector<ZValue> elements =
        decompose::DecomposeBox(grid, box, {}, &stats);
    ASSERT_EQ(stats.elements, elements.size());
    ASSERT_EQ(stats.boundary_elements, 0u)
        << "a full-depth box decomposition has no boundary fringe";
    decompose::AuditBoxCover(grid, box, elements, /*exact=*/true,
                             /*include_boundary=*/true);
  }
}

TEST(FuzzDecompose, CappedBoxCoversBracketTheBox) {
  util::Rng rng(0xDEC1);
  for (int c = 0; c < kCases; ++c) {
    const GridSpec grid = RandomGrid(rng, 16);
    const GridBox box = RandomBox(rng, grid);
    DecomposeOptions options;
    options.max_depth =
        static_cast<int>(rng.NextBelow(
            static_cast<uint64_t>(grid.total_bits()) + 1));
    options.include_boundary = rng.NextBelow(2) == 0;
    const std::vector<ZValue> elements =
        decompose::DecomposeBox(grid, box, options);
    // With the boundary fringe the cover over-approximates the box; without
    // it the cover under-approximates. Either way it is a disjoint cover.
    decompose::AuditBoxCover(grid, box, elements, /*exact=*/false,
                             options.include_boundary);
  }
}

TEST(FuzzDecompose, BallCoversAreDisjointAndBracketed) {
  util::Rng rng(0xDEC2);
  for (int c = 0; c < 2000; ++c) {  // balls classify slower than boxes
    GridSpec grid;
    grid.dims = 2;
    grid.bits_per_dim = static_cast<int>(2 + rng.NextBelow(4));
    std::vector<double> center = {
        rng.NextDouble() * static_cast<double>(grid.side()),
        rng.NextDouble() * static_cast<double>(grid.side())};
    const double radius =
        rng.NextDouble() * static_cast<double>(grid.side()) / 2.0;
    const geometry::BallObject ball(center, radius);

    decompose::DecomposeStats inner_stats;
    DecomposeOptions inner;
    inner.include_boundary = false;
    const std::vector<ZValue> interior =
        decompose::Decompose(grid, ball, inner, &inner_stats);
    decompose::AuditDecomposition(grid, interior);

    const std::vector<ZValue> full = decompose::Decompose(grid, ball);
    decompose::AuditDecomposition(grid, full);

    // Inside-out approximation never covers more than boundary-inclusive.
    ASSERT_LE(decompose::CoveredVolume(grid, interior),
              decompose::CoveredVolume(grid, full));
  }
}

TEST(FuzzDecompose, GeneratorMatchesEagerDecompose) {
  util::Rng rng(0xDEC3);
  for (int c = 0; c < kCases; ++c) {
    const GridSpec grid = RandomGrid(rng, 14);
    const GridBox box = RandomBox(rng, grid);
    const geometry::BoxObject object(box);

    const std::vector<ZValue> eager = decompose::Decompose(grid, object);
    decompose::ElementGenerator gen(grid, object);
    std::vector<ZValue> lazy;
    ZValue z;
    while (gen.Next(&z)) lazy.push_back(z);
    ASSERT_EQ(lazy, eager) << "lazy and eager decompositions disagree";
  }
}

TEST(FuzzDecompose, GeneratorSeekForwardSkipsSoundly) {
  util::Rng rng(0xDEC4);
  for (int c = 0; c < kCases; ++c) {
    const GridSpec grid = RandomGrid(rng, 14);
    const GridBox box = RandomBox(rng, grid);
    const geometry::BoxObject object(box);
    const std::vector<ZValue> eager = decompose::Decompose(grid, object);

    const uint64_t target = rng.NextBelow(grid.cell_count());
    decompose::ElementGenerator gen(grid, object);
    ZValue z;
    const bool found = gen.SeekForward(target, &z);

    // Oracle: first eager element whose interval ends at or after target.
    const ZValue* want = nullptr;
    for (const ZValue& e : eager) {
      if (e.RangeHi(grid.total_bits()) >= target) {
        want = &e;
        break;
      }
    }
    ASSERT_EQ(found, want != nullptr);
    if (found) {
      ASSERT_EQ(z, *want) << "SeekForward skipped past an element";
    }
  }
}

// ------------------------------------------- incremental region boxes

// Wraps an object and records every box it is asked to classify.
class RecordingObject : public SpatialObject {
 public:
  explicit RecordingObject(const SpatialObject& inner) : inner_(inner) {}
  int dims() const override { return inner_.dims(); }
  RegionClass Classify(const GridBox& region) const override {
    boxes.push_back(region);
    return inner_.Classify(region);
  }
  std::string Describe() const override { return inner_.Describe(); }

  mutable std::vector<GridBox> boxes;

 private:
  const SpatialObject& inner_;
};

// The decomposition with every classified region's box computed by
// UnshuffleRegion from its z value: the specification ChildBox must
// reproduce. Advance(0) is Next(); a nonzero target prunes like
// ElementGenerator::SeekForward. Draining it with Next() is the eager
// Decompose (both walk the regions depth first, child 0 first).
class ReferenceDecomposer {
 public:
  ReferenceDecomposer(const GridSpec& grid, const SpatialObject& object,
                      const DecomposeOptions& options)
      : grid_(grid),
        object_(object),
        options_(options),
        depth_cap_(decompose::EffectiveDepthCap(grid, options)),
        stack_{ZValue()} {}

  bool Advance(uint64_t target, ZValue* out) {
    while (!stack_.empty()) {
      const ZValue region = stack_.back();
      stack_.pop_back();
      if (target != 0 && region.RangeHi(grid_.total_bits()) < target) {
        continue;
      }
      const GridBox box(zorder::UnshuffleRegion(grid_, region));
      classified.push_back(box);
      switch (object_.Classify(box)) {
        case RegionClass::kOutside:
          continue;
        case RegionClass::kInside:
          *out = region;
          return true;
        case RegionClass::kCrossing:
          if (region.length() >= depth_cap_) {
            if (!options_.include_boundary) continue;
            *out = region;
            return true;
          }
          stack_.push_back(region.Child(1));
          stack_.push_back(region.Child(0));
          continue;
      }
    }
    return false;
  }

  std::vector<ZValue> Drain() {
    std::vector<ZValue> elements;
    ZValue z;
    while (Advance(0, &z)) elements.push_back(z);
    return elements;
  }

  std::vector<GridBox> classified;

 private:
  const GridSpec grid_;
  const SpatialObject& object_;
  const DecomposeOptions options_;
  const int depth_cap_;
  std::vector<ZValue> stack_;
};

// Empty when the two classify sequences are identical, else the first
// difference.
std::string FirstBoxMismatch(const std::vector<GridBox>& got,
                             const std::vector<GridBox>& want) {
  const size_t n = std::min(got.size(), want.size());
  for (size_t i = 0; i < n; ++i) {
    if (!(got[i] == want[i])) {
      return "classify call " + std::to_string(i) + ": box " +
             got[i].ToString() + ", UnshuffleRegion gives " +
             want[i].ToString();
    }
  }
  if (got.size() != want.size()) {
    return std::to_string(got.size()) + " classify calls, reference made " +
           std::to_string(want.size());
  }
  return "";
}

// The grid shapes the incremental boxes must handle: default alternation
// in 2-d and 3-d, a random custom schedule, the composite schedule, and
// 32 bits per dimension (whose unsplit ranges span the whole uint32).
GridSpec ShapedGrid(util::Rng& rng, int shape) {
  switch (shape) {
    case 0:
      return GridSpec{2, static_cast<int>(1 + rng.NextBelow(8))};
    case 1:
      return GridSpec{3, static_cast<int>(1 + rng.NextBelow(5))};
    case 2: {
      const int dims = static_cast<int>(1 + rng.NextBelow(3));
      const int bits = static_cast<int>(1 + rng.NextBelow(15 / dims));
      std::vector<int> schedule;
      for (int dim = 0; dim < dims; ++dim) {
        schedule.insert(schedule.end(), static_cast<size_t>(bits), dim);
      }
      for (size_t i = schedule.size(); i > 1; --i) {
        std::swap(schedule[i - 1], schedule[rng.NextBelow(i)]);
      }
      return GridSpec::WithSchedule(dims, bits, schedule);
    }
    case 3: {
      const int dims = static_cast<int>(1 + rng.NextBelow(3));
      return GridSpec::Composite(
          dims, static_cast<int>(1 + rng.NextBelow(15 / dims)));
    }
    default:
      return GridSpec{static_cast<int>(1 + rng.NextBelow(2)), 32};
  }
}

DecomposeOptions RandomOptions(util::Rng& rng, const GridSpec& grid) {
  DecomposeOptions options;
  // A full-depth box on a 32-bit grid can have ~2^30 elements; cap it.
  const int deepest = std::min(grid.total_bits(), 20);
  if (grid.bits_per_dim < 32 && rng.NextBelow(2) == 0) {
    options.max_depth = -1;
  } else {
    options.max_depth = static_cast<int>(
        rng.NextBelow(static_cast<uint64_t>(deepest) + 1));
  }
  options.include_boundary = rng.NextBelow(4) != 0;
  return options;
}

geometry::BallObject RandomBall(util::Rng& rng, const GridSpec& grid) {
  const double side = static_cast<double>(grid.side());
  std::vector<double> center;
  for (int dim = 0; dim < grid.dims; ++dim) {
    center.push_back(rng.NextDouble() * side);
  }
  return geometry::BallObject(center, rng.NextDouble() * side / 2.0);
}

TEST(FuzzDecompose, EagerBoxesEqualUnshuffleRegion) {
  util::Rng rng(0xDEC5);
  for (int c = 0; c < kCases; ++c) {
    const GridSpec grid = ShapedGrid(rng, c % 5);
    ASSERT_TRUE(grid.Valid());
    const DecomposeOptions options = RandomOptions(rng, grid);
    const GridBox box = RandomBox(rng, grid);
    const geometry::BoxObject box_object(box);
    const geometry::BallObject ball = RandomBall(rng, grid);
    const SpatialObject& object =
        rng.NextBelow(2) == 0 ? static_cast<const SpatialObject&>(box_object)
                              : ball;

    ReferenceDecomposer reference(grid, object, options);
    const std::vector<ZValue> want = reference.Drain();

    const RecordingObject recorded(object);
    decompose::DecomposeStats stats;
    const std::vector<ZValue> got =
        decompose::Decompose(grid, recorded, options, &stats);
    ASSERT_EQ(got, want) << "case " << c;
    ASSERT_EQ(FirstBoxMismatch(recorded.boxes, reference.classified), "")
        << "case " << c;
    ASSERT_EQ(stats.classify_calls, reference.classified.size());
    ASSERT_EQ(stats.elements, want.size());
    ASSERT_EQ(decompose::CountElements(grid, object, options), want.size());

    std::vector<decompose::TaggedElement> tagged =
        decompose::DecomposeTagged(grid, object, options);
    ASSERT_EQ(tagged.size(), want.size());
    for (size_t i = 0; i < tagged.size(); ++i) ASSERT_EQ(tagged[i].z, want[i]);
  }
}

TEST(FuzzDecompose, GeneratorBoxesEqualUnshuffleRegion) {
  util::Rng rng(0xDEC6);
  for (int c = 0; c < kCases; ++c) {
    const GridSpec grid = ShapedGrid(rng, c % 5);
    const DecomposeOptions options = RandomOptions(rng, grid);
    const geometry::BoxObject object(RandomBox(rng, grid));

    ReferenceDecomposer reference(grid, object, options);
    const RecordingObject recorded(object);
    decompose::ElementGenerator gen(grid, recorded, options);
    // A random mix of Next and SeekForward, as a merge issues them.
    const uint64_t cells = grid.cell_count();  // 0: the full 64-bit range
    for (;;) {
      uint64_t target = 0;
      if (rng.NextBelow(3) == 0) {
        target = cells == 0 ? rng.Next() : rng.NextBelow(cells);
      }
      ZValue want;
      ZValue got;
      const bool want_found = reference.Advance(target, &want);
      const bool found = target == 0 ? gen.Next(&got)
                                     : gen.SeekForward(target, &got);
      ASSERT_EQ(found, want_found) << "case " << c;
      if (!found) break;
      ASSERT_EQ(got, want) << "case " << c;
    }
    ASSERT_EQ(FirstBoxMismatch(recorded.boxes, reference.classified), "")
        << "case " << c;
    ASSERT_EQ(gen.classify_calls(), reference.classified.size());
  }
}

}  // namespace
}  // namespace probe
