#include "btree/audit.h"

#include "probe/check.h"
#include "storage/page.h"

namespace probe::btree {

void AuditLeafPage(const LeafView& leaf, int min_count, int max_count) {
  const int n = leaf.count();
  if (n < min_count || n > max_count) {
    check::AuditFailure(__FILE__, __LINE__, "leaf occupancy in bounds",
                        "leaf entry count outside [min, capacity]");
  }
  for (int i = 1; i < n; ++i) {
    if (leaf.Get(i).key < leaf.Get(i - 1).key) {
      check::AuditFailure(__FILE__, __LINE__, "leaf keys sorted",
                          "leaf keys out of z order");
    }
  }
}

void AuditInternalPage(const InternalView& node, int min_count,
                       int max_count) {
  const int n = node.count();
  if (n < min_count || n > max_count) {
    check::AuditFailure(__FILE__, __LINE__, "internal occupancy in bounds",
                        "internal pair count outside [min, capacity]");
  }
  for (int i = 1; i < n; ++i) {
    if (node.SeparatorAt(i) < node.SeparatorAt(i - 1)) {
      check::AuditFailure(__FILE__, __LINE__, "separators sorted",
                          "internal separators out of z order");
    }
  }
  for (int i = 0; i <= n; ++i) {
    if (node.ChildAt(i) == storage::kInvalidPageId) {
      check::AuditFailure(__FILE__, __LINE__, "child ids valid",
                          "internal node references an invalid page");
    }
  }
}

}  // namespace probe::btree
