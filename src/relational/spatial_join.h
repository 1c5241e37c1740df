#ifndef PROBE_RELATIONAL_SPATIAL_JOIN_H_
#define PROBE_RELATIONAL_SPATIAL_JOIN_H_

#include <cstdint>
#include <string>

#include "relational/relation.h"
#include "util/thread_pool.h"

/// \file
/// The spatial join R[zr <> zs]S of Section 4.
///
/// "The implementation strategies of natural join can be used. Instead of
/// looking for equality, we're looking for containment between zr and zs."
/// Both inputs are element relations sorted by their z columns; the join
/// is a single merge pass with one containment stack per side. The stacks
/// exploit the structural theorem of Section 3.2: two elements either
/// nest (one z value is a prefix of the other) or are disjoint, so the set
/// of "open" elements at any merge position forms a chain of prefixes and
/// pops like a stack. An element pairs with exactly the other side's open
/// elements at the moment it is processed — each overlapping pair is
/// emitted exactly once.
///
/// The same chain property makes the merge partitionable: at any merge
/// position where the next z value starts after every previously seen
/// element's range has ended, both stacks are provably empty, so cutting
/// the two sorted inputs there splits the join into independent pieces —
/// no pair crosses such an open-element-free cut. ParallelSpatialJoin
/// finds those cuts and merges the pieces concurrently.

namespace probe::relational {

/// Work counters for one spatial join.
struct SpatialJoinStats {
  uint64_t r_rows = 0;
  uint64_t s_rows = 0;
  /// Pairs emitted (overlap evidence; may repeat object-id combinations —
  /// the paper projects the redundancy away afterwards).
  uint64_t pairs = 0;
  /// Maximum nesting depth observed on either stack.
  size_t max_stack_depth = 0;
  /// Merge partitions actually executed (1 for the serial join; the
  /// parallel join may produce fewer than requested when safe cut points
  /// are scarce).
  size_t partitions = 1;
};

/// The output schema of R[zr <> zs]S: r's columns, then s's. An s column
/// whose name is already taken (two object relations both carry `id`, for
/// one) is renamed by prefixing "s_" until the name is unused, so every
/// output column is reachable by name and r's keep theirs.
Schema JoinSchema(const Schema& r, const Schema& s);

/// Computes R[zr <> zs]S: one output row per pair of input rows whose
/// elements overlap (i.e. one z value is a prefix of the other). The output
/// schema is JoinSchema(r, s). Inputs need not be pre-sorted; they are sorted by their z
/// columns internally (stably). `stats` may be null.
Relation SpatialJoin(const Relation& r, const std::string& zr_column,
                     const Relation& s, const std::string& zs_column,
                     SpatialJoinStats* stats = nullptr);

/// SpatialJoin cut at open-element-free z boundaries and merged
/// concurrently on `pool`; the per-partition outputs are concatenated in
/// cut order, so rows come out in exactly the serial join's order.
/// `partitions` <= 0 targets one partition per pool lane; the actual count
/// may be lower (cuts exist only where no element straddles the boundary).
/// `stats` may be null.
Relation ParallelSpatialJoin(const Relation& r, const std::string& zr_column,
                             const Relation& s, const std::string& zs_column,
                             util::ThreadPool& pool, int partitions = 0,
                             SpatialJoinStats* stats = nullptr);

}  // namespace probe::relational

#endif  // PROBE_RELATIONAL_SPATIAL_JOIN_H_
