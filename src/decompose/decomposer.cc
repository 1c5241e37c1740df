#include "decompose/decomposer.h"

#include <cassert>

#include "decompose/audit.h"
#include "geometry/primitives.h"
#include "probe/check.h"
#include "zorder/shuffle.h"

namespace probe::decompose {

namespace {

using geometry::GridBox;
using geometry::RegionClass;
using geometry::SpatialObject;
using zorder::GridSpec;
using zorder::ZValue;

// Shared recursive core. `box` is `region`'s extent, carried down from the
// parent (ChildBox). Emit is called with elements in z order.
template <typename Emit>
void DecomposeRecursive(const GridSpec& grid, const SpatialObject& object,
                        const DecomposeOptions& options, const ZValue& region,
                        const GridBox& box, int depth_cap,
                        DecomposeStats* stats, Emit&& emit) {
  if (stats != nullptr) ++stats->classify_calls;
  switch (object.Classify(box)) {
    case RegionClass::kOutside:
      return;
    case RegionClass::kInside:
      if (stats != nullptr) ++stats->elements;
      emit(region, /*boundary=*/false);
      return;
    case RegionClass::kCrossing:
      if (region.length() >= depth_cap) {
        // Cannot (or may not) split further: the region straddles the
        // boundary at the resolution limit.
        if (options.include_boundary) {
          if (stats != nullptr) {
            ++stats->elements;
            ++stats->boundary_elements;
          }
          emit(region, /*boundary=*/true);
        }
        return;
      }
      for (int bit = 0; bit <= 1; ++bit) {
        DecomposeRecursive(grid, object, options, region.Child(bit),
                           ChildBox(grid, region, box, bit), depth_cap, stats,
                           emit);
      }
      return;
  }
}

// Decomposes from the root region (the whole grid).
template <typename Emit>
void DecomposeAll(const GridSpec& grid, const SpatialObject& object,
                  const DecomposeOptions& options, DecomposeStats* stats,
                  Emit&& emit) {
  DecomposeRecursive(grid, object, options, ZValue(),
                     GridBox(UnshuffleRegion(grid, ZValue())),
                     EffectiveDepthCap(grid, options), stats, emit);
}

}  // namespace

int EffectiveDepthCap(const GridSpec& grid, const DecomposeOptions& options) {
  if (options.max_depth < 0) return grid.total_bits();
  return options.max_depth < grid.total_bits() ? options.max_depth
                                               : grid.total_bits();
}

std::vector<ZValue> Decompose(const GridSpec& grid,
                              const SpatialObject& object,
                              const DecomposeOptions& options,
                              DecomposeStats* stats) {
  assert(grid.Valid());
  assert(object.dims() == grid.dims);
  std::vector<ZValue> elements;
  DecomposeAll(grid, object, options, stats,
               [&](const ZValue& z, bool) { elements.push_back(z); });
  PROBE_AUDIT(AuditDecomposition(grid, elements));
  return elements;
}

std::vector<TaggedElement> DecomposeTagged(const GridSpec& grid,
                                           const SpatialObject& object,
                                           const DecomposeOptions& options,
                                           DecomposeStats* stats) {
  assert(grid.Valid());
  assert(object.dims() == grid.dims);
  std::vector<TaggedElement> elements;
  DecomposeAll(grid, object, options, stats,
               [&](const ZValue& z, bool boundary) {
                 elements.push_back(TaggedElement{z, boundary});
               });
  return elements;
}

std::vector<ZValue> DecomposeBox(const GridSpec& grid, const GridBox& box,
                                 const DecomposeOptions& options,
                                 DecomposeStats* stats) {
  const geometry::BoxObject object(box);
  std::vector<ZValue> elements = Decompose(grid, object, options, stats);
  // A full-resolution box decomposition is an exact disjoint cover; a
  // depth-capped one approximates from outside (or inside, when boundary
  // elements are dropped).
  PROBE_AUDIT(AuditBoxCover(
      grid, box, elements,
      /*exact=*/EffectiveDepthCap(grid, options) == grid.total_bits(),
      options.include_boundary));
  return elements;
}

uint64_t CountElements(const GridSpec& grid, const SpatialObject& object,
                       const DecomposeOptions& options) {
  uint64_t count = 0;
  DecomposeAll(grid, object, options, nullptr,
               [&](const ZValue&, bool) { ++count; });
  return count;
}

uint64_t CoveredVolume(const GridSpec& grid,
                       const std::vector<ZValue>& elements) {
  uint64_t volume = 0;
  for (const ZValue& z : elements) {
    volume += 1ULL << (grid.total_bits() - z.length());
  }
  return volume;
}

}  // namespace probe::decompose
