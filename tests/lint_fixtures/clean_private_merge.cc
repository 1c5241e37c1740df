// Lint fixture: clean control for private-merge — a read that drives the
// one merge (ZkdIndex::RangeCursor) instead of calling SeekForward( on a
// generator of its own. Never compiled; see README.md.
#include "index/zkd_index.h"

namespace fixture {

std::vector<uint64_t> Ids(const probe::index::ZkdIndex& index,
                          const probe::geometry::GridBox& box) {
  probe::index::ZkdIndex::RangeCursor merge(index, box);
  std::vector<uint64_t> ids;
  while (merge.Step()) merge.TakeRun(&ids);
  return ids;
}

}  // namespace fixture
