#ifndef PROBE_DECOMPOSE_DECOMPOSER_H_
#define PROBE_DECOMPOSE_DECOMPOSER_H_

#include <cstdint>
#include <vector>

#include "geometry/box.h"
#include "geometry/object.h"
#include "zorder/grid.h"
#include "zorder/zvalue.h"

/// \file
/// Decomposition of spatial objects into elements (Section 3.1, Figure 2).
///
/// A region produced by the recursive alternating splitting policy is kept
/// (becomes an element) when it is entirely inside the object; a region
/// that crosses the boundary is split further, down to single pixels (or a
/// configured depth cap). Because child 0 precedes child 1 in z order, a
/// depth-first traversal emits elements already sorted by z value — no sort
/// step is needed.

namespace probe::decompose {

/// Tuning knobs for decomposition.
struct DecomposeOptions {
  /// Maximum z-value length of an emitted element. Boundary-crossing
  /// regions at this depth are emitted as elements (approximating the
  /// object from outside), matching the paper's grid approximation where
  /// boundary pixels count as part of the object. Default -1 means full
  /// pixel resolution (grid.total_bits()).
  int max_depth = -1;

  /// When false, boundary-crossing regions at the depth cap are dropped
  /// instead of emitted: the decomposition then approximates the object
  /// from the *inside*. Useful for interference tests that must avoid
  /// false positives.
  bool include_boundary = true;
};

/// The z-value length past which a decomposition under `options` stops
/// splitting: options.max_depth clamped to grid.total_bits(), or full
/// resolution when max_depth is negative.
int EffectiveDepthCap(const zorder::GridSpec& grid,
                      const DecomposeOptions& options);

/// Statistics from one decomposition run.
struct DecomposeStats {
  /// Elements emitted.
  uint64_t elements = 0;
  /// Calls made to the object's classifier.
  uint64_t classify_calls = 0;
  /// Elements that were boundary-crossing regions at the depth cap.
  uint64_t boundary_elements = 0;
};

/// The box of `region.Child(bit)`, given `box`, the box of `region`: the
/// parent halved along the dimension that split number region.length()
/// consumes (bit 0 keeps the lower half). Both the eager and the lazy
/// decomposition track each region's box this way, parent to child, so
/// classifying a region never unshuffles its z value; the result equals
/// UnshuffleRegion(grid, region.Child(bit)) because every region is an
/// aligned power-of-two block.
inline geometry::GridBox ChildBox(const zorder::GridSpec& grid,
                                  const zorder::ZValue& region,
                                  const geometry::GridBox& box, int bit) {
  const int dim = grid.SplitDimAt(region.length());
  zorder::DimRange r = box.range(dim);
  const uint32_t mid = r.lo + (r.hi - r.lo) / 2;
  if (bit == 0) {
    r.hi = mid;
  } else {
    r.lo = mid + 1;
  }
  geometry::GridBox child = box;
  child.set_range(dim, r);
  return child;
}

/// Decomposes `object` into elements, in z order. `stats` may be null.
std::vector<zorder::ZValue> Decompose(const zorder::GridSpec& grid,
                                      const geometry::SpatialObject& object,
                                      const DecomposeOptions& options = {},
                                      DecomposeStats* stats = nullptr);

/// An element plus whether it came from a boundary-crossing region at the
/// depth cap (interior elements are certain; boundary elements are the
/// approximation fringe).
struct TaggedElement {
  zorder::ZValue z;
  bool boundary = false;
};

/// Like Decompose but keeps the interior/boundary distinction per element.
/// Interference detection (Section 6) uses the tags to separate certain
/// overlap from approximation-fringe contact.
std::vector<TaggedElement> DecomposeTagged(
    const zorder::GridSpec& grid, const geometry::SpatialObject& object,
    const DecomposeOptions& options = {}, DecomposeStats* stats = nullptr);

/// Decomposes an axis-aligned box (the range-query case, Figure 2). Exact:
/// box decompositions have no boundary-crossing leaves.
std::vector<zorder::ZValue> DecomposeBox(const zorder::GridSpec& grid,
                                         const geometry::GridBox& box,
                                         const DecomposeOptions& options = {},
                                         DecomposeStats* stats = nullptr);

/// Counts the elements a decomposition would produce without materializing
/// them (used by the Section 5.1 space analysis sweeps).
uint64_t CountElements(const zorder::GridSpec& grid,
                       const geometry::SpatialObject& object,
                       const DecomposeOptions& options = {});

/// Total number of grid cells covered by a set of elements.
uint64_t CoveredVolume(const zorder::GridSpec& grid,
                       const std::vector<zorder::ZValue>& elements);

}  // namespace probe::decompose

#endif  // PROBE_DECOMPOSE_DECOMPOSER_H_
