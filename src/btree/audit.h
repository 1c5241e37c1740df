#ifndef PROBE_BTREE_AUDIT_H_
#define PROBE_BTREE_AUDIT_H_

#include "btree/node.h"

/// \file
/// Page-local B-tree auditors: key order and occupancy for one node.
///
/// BTree::CheckInvariants walks the whole tree (O(n)); these are the O(page)
/// checks cheap enough to run after every structural mutation in auditing
/// builds. They abort on violation and return normally otherwise.

namespace probe::btree {

/// Keys non-decreasing (duplicates allowed), count within [min_count,
/// max_count]. Pass min_count 0 for pages allowed to underflow (the root,
/// or a page mid-rebalance).
void AuditLeafPage(const LeafView& leaf, int min_count, int max_count);

/// Separators non-decreasing (prefix-truncated separators of a duplicate
/// run may repeat), pair count within [min_count, max_count], all child
/// ids valid.
void AuditInternalPage(const InternalView& node, int min_count,
                       int max_count);

}  // namespace probe::btree

#endif  // PROBE_BTREE_AUDIT_H_
