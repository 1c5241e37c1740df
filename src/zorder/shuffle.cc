#include "zorder/shuffle.h"

#include <cassert>

#include "util/bits.h"
#include "zorder/fast_interleave.h"

namespace probe::zorder {

ZValue Shuffle(const GridSpec& grid, std::span<const uint32_t> coords) {
  assert(grid.Valid());
  assert(coords.size() == static_cast<size_t>(grid.dims));
  // Hot path: full-resolution shuffle under the default alternating
  // schedule is a plain Morton encode.
  if (!grid.has_custom_schedule) {
    if (grid.dims == 2) {
      assert(coords[0] < grid.side() && coords[1] < grid.side());
      return ZValue::FromInteger(
          MortonEncode2(coords[0], coords[1], grid.bits_per_dim),
          grid.total_bits());
    }
    if (grid.dims == 3) {
      assert(coords[0] < grid.side() && coords[1] < grid.side() &&
             coords[2] < grid.side());
      return ZValue::FromInteger(
          MortonEncode3(coords[0], coords[1], coords[2], grid.bits_per_dim),
          grid.total_bits());
    }
  }
  const int d = grid.bits_per_dim;
  uint64_t raw = 0;
  int consumed[8] = {};  // bits of each dimension already interleaved
  for (int j = 0; j < grid.total_bits(); ++j) {
    const int dim = grid.SplitDimAt(j);
    const int coord_bit = d - 1 - consumed[dim]++;  // MSB of the dim first
    assert(coords[dim] < grid.side());
    const uint64_t bit = (coords[dim] >> coord_bit) & 1;
    raw |= bit << (ZValue::kMaxBits - 1 - j);
  }
  return ZValue::FromRaw(raw, grid.total_bits());
}

ZValue Shuffle2D(const GridSpec& grid, uint32_t x, uint32_t y) {
  assert(grid.dims == 2);
  const uint32_t coords[2] = {x, y};
  return Shuffle(grid, coords);
}

std::vector<uint32_t> Unshuffle(const GridSpec& grid, const ZValue& z) {
  assert(z.length() == grid.total_bits());
  if (!grid.has_custom_schedule) {
    if (grid.dims == 2) {
      std::vector<uint32_t> coords(2);
      MortonDecode2(z.ToInteger(), grid.bits_per_dim, &coords[0], &coords[1]);
      return coords;
    }
    if (grid.dims == 3) {
      std::vector<uint32_t> coords(3);
      MortonDecode3(z.ToInteger(), grid.bits_per_dim, &coords[0], &coords[1],
                    &coords[2]);
      return coords;
    }
  }
  std::vector<uint32_t> coords(grid.dims, 0);
  for (int j = 0; j < z.length(); ++j) {
    const int dim = grid.SplitDimAt(j);
    coords[dim] = (coords[dim] << 1) | static_cast<uint32_t>(z.BitAt(j));
  }
  return coords;
}

RegionRanges UnshuffleRegion(const GridSpec& grid, const ZValue& z) {
  assert(grid.Valid());
  assert(grid.bits_per_dim <= 32);
  assert(z.length() <= grid.total_bits());
  uint32_t prefix[RegionRanges::kMaxDims] = {};
  int consumed[RegionRanges::kMaxDims] = {};
  for (int j = 0; j < z.length(); ++j) {
    const int dim = grid.SplitDimAt(j);
    prefix[dim] = (prefix[dim] << 1) | static_cast<uint32_t>(z.BitAt(j));
    ++consumed[dim];
  }
  RegionRanges ranges(grid.dims);
  for (int dim = 0; dim < grid.dims; ++dim) {
    // 64-bit shift: an unsplit dimension of a 32-bit grid shifts by 32.
    const int free_bits = grid.bits_per_dim - consumed[dim];
    const uint64_t lo = static_cast<uint64_t>(prefix[dim]) << free_bits;
    ranges[dim].lo = static_cast<uint32_t>(lo);
    ranges[dim].hi = static_cast<uint32_t>(lo | util::LowMask(free_bits));
  }
  return ranges;
}

bool IsElementRegion(const GridSpec& grid,
                     std::span<const DimRange> ranges) {
  if (ranges.size() != static_cast<size_t>(grid.dims)) return false;
  const int d = grid.bits_per_dim;
  int total = 0;
  int consumed[RegionRanges::kMaxDims] = {};
  for (int dim = 0; dim < grid.dims; ++dim) {
    const DimRange& r = ranges[dim];
    if (r.hi < r.lo || r.hi >= grid.side()) return false;
    const uint64_t width = r.width();
    if (!util::IsPowerOfTwo(width)) return false;
    if (r.lo % width != 0) return false;  // must be an aligned block
    consumed[dim] = d - util::FloorLog2(width);
    total += consumed[dim];
  }
  // The alternating split order fixes how many bits each dimension has
  // consumed at a given total length; the region is an element only if the
  // per-dimension counts match that schedule.
  for (int dim = 0; dim < grid.dims; ++dim) {
    if (grid.BitsConsumed(total, dim) != consumed[dim]) return false;
  }
  return true;
}

ZValue ShuffleRegion(const GridSpec& grid, std::span<const DimRange> ranges) {
  assert(IsElementRegion(grid, ranges));
  const int d = grid.bits_per_dim;
  int total = 0;
  for (int dim = 0; dim < grid.dims; ++dim) {
    total += d - util::FloorLog2(ranges[dim].width());
  }
  uint64_t raw = 0;
  int consumed[8] = {};
  for (int j = 0; j < total; ++j) {
    const int dim = grid.SplitDimAt(j);
    const int coord_bit = d - 1 - consumed[dim]++;
    const uint64_t bit = (ranges[dim].lo >> coord_bit) & 1;
    raw |= bit << (ZValue::kMaxBits - 1 - j);
  }
  return ZValue::FromRaw(raw, total);
}

}  // namespace probe::zorder
