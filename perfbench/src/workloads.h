#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include "common.h"

namespace perfbench {

/// serve_read / serve_mixed: wire reads over TCP against a 4-shard
/// ShardedEngine; `mixed` adds the open-loop commit stream, the crash
/// reopen and the durability check.
void RunServe(const RunArgs& args, bool mixed, Report* report);

/// crossmatch: DistanceJoin of two paired 5M-point catalogs.
void RunCrossmatch(const RunArgs& args, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
