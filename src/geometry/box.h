#ifndef PROBE_GEOMETRY_BOX_H_
#define PROBE_GEOMETRY_BOX_H_

#include <array>
#include <cassert>
#include <cstdint>
#include <optional>
#include <string>

#include "geometry/point.h"
#include "zorder/shuffle.h"

/// \file
/// Axis-aligned boxes of grid cells.
///
/// A range query L_i <= A_i <= U_i is "a k-dimensional box in the space
/// whose sides are parallel to the axes" (Section 2, Figure 1). GridBox is
/// that box: a closed per-dimension interval of cells.

namespace probe::geometry {

/// A closed axis-aligned box of grid cells in up to 8 dimensions.
class GridBox {
 public:
  static constexpr int kMaxDims = 8;

  GridBox() : dims_(0) {}

  /// Builds a box from per-dimension [lo, hi] ranges. Each range must have
  /// lo <= hi (boxes are never empty; use std::optional<GridBox> for maybe-
  /// empty results).
  explicit GridBox(std::span<const zorder::DimRange> ranges) : dims_(0) {
    assert(ranges.size() <= kMaxDims);
    for (const auto& r : ranges) {
      assert(r.lo <= r.hi);
      ranges_[dims_++] = r;
    }
  }

  /// 2-d convenience constructor: [xlo, xhi] x [ylo, yhi].
  static GridBox Make2D(uint32_t xlo, uint32_t xhi, uint32_t ylo,
                        uint32_t yhi);

  /// 3-d convenience constructor.
  static GridBox Make3D(uint32_t xlo, uint32_t xhi, uint32_t ylo, uint32_t yhi,
                        uint32_t zlo, uint32_t zhi);

  /// The degenerate box holding a single cell.
  static GridBox FromPoint(const GridPoint& p);

  int dims() const { return dims_; }

  const zorder::DimRange& range(int i) const {
    assert(i >= 0 && i < dims_);
    return ranges_[i];
  }

  /// Replaces the range of dimension `i`. Requires r.lo <= r.hi.
  void set_range(int i, const zorder::DimRange& r) {
    assert(i >= 0 && i < dims_);
    assert(r.lo <= r.hi);
    ranges_[i] = r;
  }

  std::span<const zorder::DimRange> ranges() const {
    return std::span<const zorder::DimRange>(ranges_.data(), dims_);
  }

  /// Number of cells in the box (its volume in pixels).
  uint64_t Volume() const;

  /// True iff `p` lies in the box. Requires matching dimensionality.
  bool ContainsPoint(const GridPoint& p) const;

  /// True iff `other` is entirely inside this box.
  bool ContainsBox(const GridBox& other) const;

  /// True iff the boxes share at least one cell.
  bool Intersects(const GridBox& other) const;

  /// The common cells of the two boxes, or nullopt if disjoint.
  std::optional<GridBox> Intersection(const GridBox& other) const;

  /// Renders as "[lo,hi]x[lo,hi]...".
  std::string ToString() const;

  friend bool operator==(const GridBox& a, const GridBox& b) {
    if (a.dims_ != b.dims_) return false;
    for (int i = 0; i < a.dims_; ++i) {
      if (!(a.ranges_[i] == b.ranges_[i])) return false;
    }
    return true;
  }

 private:
  std::array<zorder::DimRange, kMaxDims> ranges_;
  int dims_;
};

}  // namespace probe::geometry

#endif  // PROBE_GEOMETRY_BOX_H_
