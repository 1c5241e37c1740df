#ifndef PROBE_DECOMPOSE_GENERATOR_H_
#define PROBE_DECOMPOSE_GENERATOR_H_

#include <cstdint>
#include <vector>

#include "decompose/decomposer.h"
#include "geometry/box.h"
#include "geometry/object.h"
#include "probe/check.h"
#include "zorder/grid.h"
#include "zorder/zvalue.h"

/// \file
/// On-demand element generation (Section 3.3's second optimization).
///
/// "The sequence B does not have to be formed before the merge starts.
/// Elements of the box may be generated on demand, i.e. when a sequential
/// or random access on sequence B is performed." ElementGenerator is that
/// demand-driven producer: Next() yields the next element in z order, and
/// SeekForward() implements the random access — it skips every part of the
/// object that precedes a target z value without classifying it.

namespace probe::decompose {

/// Streams the elements of a decomposition in z order, lazily.
///
/// The generator holds a stack of unexplored regions (z-value prefixes,
/// each with its box); regions are classified only when reached, so a
/// merge that skips most of the object also skips most of the
/// classification work.
class ElementGenerator {
 public:
  /// The object must outlive the generator.
  ElementGenerator(const zorder::GridSpec& grid,
                   const geometry::SpatialObject& object,
                   const DecomposeOptions& options = {});

  /// Produces the next element in z order. Returns false when exhausted.
  bool Next(zorder::ZValue* out);

  /// Produces the next element whose z-value range [zlo, zhi] ends at or
  /// after `target` (a full-resolution z integer); i.e. the first element
  /// that could still contain a point with z value >= target. Regions that
  /// lie entirely before the target are discarded *without* classifier
  /// calls. Returns false when exhausted.
  bool SeekForward(uint64_t target, zorder::ZValue* out);

  /// Classifier invocations so far (work measure for the laziness ablation).
  uint64_t classify_calls() const { return stats_.classify_calls; }

  /// Elements emitted so far.
  uint64_t elements_emitted() const { return stats_.elements; }

 private:
  // Advances until an element is found; `target` prunes regions whose
  // entire z range precedes it (pass 0 for plain Next()).
  bool Advance(uint64_t target, zorder::ZValue* out);

  // An unexplored region and its box (derived from the parent's with
  // ChildBox, so classifying it needs no unshuffle).
  struct Pending {
    zorder::ZValue region;
    geometry::GridBox box;
  };

  const zorder::GridSpec grid_;
  const geometry::SpatialObject& object_;
  const DecomposeOptions options_;
  const int depth_cap_;
  std::vector<Pending> stack_;
  DecomposeStats stats_;
  // Audit state: emitted elements must be strictly ascending in z order.
  check::ZMonotone emit_order_{/*strict=*/true};
};

}  // namespace probe::decompose

#endif  // PROBE_DECOMPOSE_GENERATOR_H_
