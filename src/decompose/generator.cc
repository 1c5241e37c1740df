#include "decompose/generator.h"

#include <cassert>

#include "geometry/box.h"
#include "zorder/shuffle.h"

namespace probe::decompose {

ElementGenerator::ElementGenerator(const zorder::GridSpec& grid,
                                   const geometry::SpatialObject& object,
                                   const DecomposeOptions& options)
    : grid_(grid),
      object_(object),
      options_(options),
      depth_cap_(EffectiveDepthCap(grid, options)) {
  assert(grid_.Valid());
  assert(object_.dims() == grid_.dims);
  // Depth-first, both children pushed per split: at most one pending
  // sibling per level above the deepest, two at it.
  stack_.reserve(static_cast<size_t>(depth_cap_) + 1);
  const zorder::ZValue root;  // the whole space
  stack_.push_back(
      Pending{root, geometry::GridBox(UnshuffleRegion(grid_, root))});
}

bool ElementGenerator::Next(zorder::ZValue* out) { return Advance(0, out); }

bool ElementGenerator::SeekForward(uint64_t target, zorder::ZValue* out) {
  return Advance(target, out);
}

bool ElementGenerator::Advance(uint64_t target, zorder::ZValue* out) {
  const int total = grid_.total_bits();
  while (!stack_.empty()) {
    const zorder::ZValue region = stack_.back().region;
    const geometry::GridBox box = stack_.back().box;
    stack_.pop_back();
    // Random-access pruning: if the whole region precedes the target z
    // value, no element inside it is of interest — and no classifier call
    // is spent on it. This is the skip that makes the merge's running time
    // proportional to the query's share of the space (Section 5.3).
    if (target != 0 && region.RangeHi(total) < target) continue;
    ++stats_.classify_calls;
    switch (object_.Classify(box)) {
      case geometry::RegionClass::kOutside:
        continue;
      case geometry::RegionClass::kInside:
        ++stats_.elements;
        PROBE_AUDIT(
            emit_order_.Observe(region.RangeLo(total), "element generator"));
        *out = region;
        return true;
      case geometry::RegionClass::kCrossing:
        if (region.length() >= depth_cap_) {
          if (options_.include_boundary) {
            ++stats_.elements;
            ++stats_.boundary_elements;
            PROBE_AUDIT(emit_order_.Observe(region.RangeLo(total),
                                            "element generator"));
            *out = region;
            return true;
          }
          continue;
        }
        // Push child 1 first so child 0 (earlier in z order) pops first.
        stack_.push_back(
            Pending{region.Child(1), ChildBox(grid_, region, box, 1)});
        stack_.push_back(
            Pending{region.Child(0), ChildBox(grid_, region, box, 0)});
        continue;
    }
  }
  return false;
}

}  // namespace probe::decompose
