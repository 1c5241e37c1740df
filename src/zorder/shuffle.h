#ifndef PROBE_ZORDER_SHUFFLE_H_
#define PROBE_ZORDER_SHUFFLE_H_

#include <array>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "zorder/grid.h"
#include "zorder/zvalue.h"

/// \file
/// `shuffle` and `unshuffle`: the coordinate <-> z value mappings of
/// Section 4.
///
/// shuffle interleaves the coordinate bits (x bit first) into a z value;
/// unshuffle is the inverse. A *partial* z value (fewer than k*d bits)
/// names a rectangular region rather than a single cell; UnshuffleRegion
/// recovers that region's per-dimension extents, which is how the z value
/// acts as "a concise description of the shape, size and position of the
/// region" (Section 3.1).

namespace probe::zorder {

/// Per-dimension closed interval [lo, hi] of grid cells.
struct DimRange {
  uint32_t lo = 0;
  uint32_t hi = 0;

  uint64_t width() const { return static_cast<uint64_t>(hi) - lo + 1; }
  friend bool operator==(const DimRange&, const DimRange&) = default;
};

/// Computes the full-resolution z value of the cell at `coords` (one value
/// per dimension, each < grid.side()). The result has grid.total_bits()
/// bits. This is the paper's shuffle applied to a one-pixel region.
ZValue Shuffle(const GridSpec& grid, std::span<const uint32_t> coords);

/// Convenience overload for 2-d grids.
ZValue Shuffle2D(const GridSpec& grid, uint32_t x, uint32_t y);

/// Inverse of Shuffle for full-resolution z values: recovers the cell
/// coordinates. Requires z.length() == grid.total_bits().
std::vector<uint32_t> Unshuffle(const GridSpec& grid, const ZValue& z);

/// Per-dimension extents of a region, held inline (at most 8 dimensions)
/// so that unshuffling a region allocates nothing. Reads like a
/// std::vector<DimRange> with one entry per dimension.
class RegionRanges {
 public:
  static constexpr int kMaxDims = 8;

  explicit RegionRanges(int dims) : dims_(dims) {
    assert(dims >= 0 && dims <= kMaxDims);
  }

  size_t size() const { return static_cast<size_t>(dims_); }
  DimRange& operator[](size_t i) { return ranges_[i]; }
  const DimRange& operator[](size_t i) const { return ranges_[i]; }
  const DimRange* data() const { return ranges_.data(); }
  const DimRange* begin() const { return ranges_.data(); }
  const DimRange* end() const { return ranges_.data() + dims_; }

 private:
  std::array<DimRange, kMaxDims> ranges_{};
  int dims_;
};

/// General unshuffle: the region named by a (possibly partial) z value,
/// as per-dimension cell ranges. A full-length z value yields degenerate
/// ranges (lo == hi); the empty z value yields the whole grid. Requires
/// grid.bits_per_dim <= 32 (a DimRange holds 32-bit coordinates).
RegionRanges UnshuffleRegion(const GridSpec& grid, const ZValue& z);

/// The z value of the region whose per-dimension extents are `ranges`,
/// when that region is one produced by the recursive splitting policy
/// (each range must be an aligned power-of-two block, and the consumed bit
/// counts must be compatible with the alternating split order; i.e. the
/// region must be a genuine element). This is the paper's
/// `shuffle(r: region) -> element`. Asserts on non-element regions.
ZValue ShuffleRegion(const GridSpec& grid, std::span<const DimRange> ranges);

/// True iff `ranges` describe a region obtainable from the splitting policy
/// (see ShuffleRegion); such regions are exactly the potential elements.
bool IsElementRegion(const GridSpec& grid, std::span<const DimRange> ranges);

}  // namespace probe::zorder

#endif  // PROBE_ZORDER_SHUFFLE_H_
