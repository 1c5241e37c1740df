// crossmatch: relational::DistanceJoin of two paired 5M-point catalogs
// (half of S re-observes R within a few cells) at radius 8 on a 2^20
// grid, on a ThreadPool of nproc lanes with the default sort budget, so
// both sides spill through the external sorter.

#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <thread>

#include "checks.h"
#include "common.h"
#include "obs/runtime_metrics.h"
#include "relational/distance_join.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "workload/datagen.h"
#include "workloads.h"

namespace perfbench {
namespace {

using probe::index::PointRecord;

constexpr size_t kCatalogPoints = 5000000;
constexpr uint64_t kRadius = 8;
constexpr int kGenerations = 3;
constexpr size_t kSlicePoints = 10000;
const probe::zorder::GridSpec kGrid{2, 20};

bool WithinRadius(const PointRecord& a, const PointRecord& b) {
  return Distance2(a.point, b.point) <=
         static_cast<probe::index::Dist2>(kRadius) * kRadius;
}

// The oracle's join: bucket S into square cells of side `radius` and probe
// the 3 x 3 cells around each R point. Shares no code with DistanceJoin.
PairSet GridJoin(std::span<const PointRecord> r, std::span<const PointRecord> s,
                 int threads) {
  const uint64_t width = kGrid.side() / kRadius + 3;
  const auto key = [&](const PointRecord& p, int64_t dx, int64_t dy) {
    const auto cx = static_cast<int64_t>(p.point[0] / kRadius) + 1 + dx;
    const auto cy = static_cast<int64_t>(p.point[1] / kRadius) + 1 + dy;
    return static_cast<uint64_t>(cy) * width + static_cast<uint64_t>(cx);
  };
  std::vector<std::pair<uint64_t, uint32_t>> cells(s.size());
  for (size_t i = 0; i < s.size(); ++i) cells[i] = {key(s[i], 0, 0), static_cast<uint32_t>(i)};
  std::sort(cells.begin(), cells.end());

  std::vector<PairSet> partial(static_cast<size_t>(threads));
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      PairSet& out = partial[static_cast<size_t>(t)];
      for (size_t i = static_cast<size_t>(t); i < r.size();
           i += static_cast<size_t>(threads)) {
        for (int64_t dy = -1; dy <= 1; ++dy) {
          const uint64_t lo = key(r[i], -1, dy);
          const uint64_t hi = key(r[i], 1, dy);
          auto it = std::lower_bound(cells.begin(), cells.end(),
                                     std::make_pair(lo, uint32_t{0}));
          for (; it != cells.end() && it->first <= hi; ++it) {
            const PointRecord& q = s[it->second];
            if (WithinRadius(r[i], q)) out.Add(r[i].id, q.id);
          }
        }
      }
    });
  }
  for (auto& th : pool) th.join();
  PairSet total;
  for (const PairSet& p : partial) {
    total.count += p.count;
    total.digest += p.digest;
  }
  return total;
}

PairSet BruteForce(std::span<const PointRecord> r, std::span<const PointRecord> s) {
  PairSet out;
  for (const PointRecord& p : r) {
    for (const PointRecord& q : s) {
      if (WithinRadius(p, q)) out.Add(p.id, q.id);
    }
  }
  return out;
}

uint64_t CatalogDigest(const std::vector<PointRecord>& points) {
  uint64_t h = 0;
  for (const PointRecord& p : points) {
    h = h * 31 + PairDigest(p.id, (uint64_t{p.point[0]} << 32) | p.point[1]);
  }
  return h;
}

struct JoinRun {
  double seconds = 0.0;
  PairSet pairs;
  probe::relational::DistanceJoinStats stats;
};

JoinRun TimedJoin(const probe::workload::PairedPoints& data,
                  probe::util::ThreadPool* pool, SpanLog* log, uint64_t request) {
  JoinRun run;
  probe::relational::DistanceJoinOptions options;
  options.pool = pool;
  const auto t0 = Clock::now();
  probe::relational::DistanceJoin(
      data.r, data.s, kGrid, kRadius,
      [&run](const probe::relational::IdPair& p) { run.pairs.Add(p.r_id, p.s_id); },
      &run.stats, options);
  const auto t1 = Clock::now();
  log->Add("join.call", request, 0, t0, t1);
  run.seconds = SecondsBetween(t0, t1);
  return run;
}

}  // namespace

void RunCrossmatch(const RunArgs& args, Report* report) {
  SpanLog log(args.trace, 0);

  // ---- set-up: catalog generation, several times; the copies must agree.
  probe::workload::PairedDataGenConfig config;
  config.base.count = kCatalogPoints;
  config.base.seed = args.seed;
  config.s_count = kCatalogPoints;
  config.match_fraction = 0.5;
  std::vector<double> setup_s;
  probe::workload::PairedPoints data;
  uint64_t first_digest = 0;
  bool same_inputs = true;
  for (int i = 0; i < kGenerations; ++i) {
    data = {};
    const auto t0 = Clock::now();
    data = probe::workload::GeneratePairedPoints(kGrid, config);
    const auto t1 = Clock::now();
    log.Add("setup.generate", 0, 0, t0, t1);
    setup_s.push_back(SecondsBetween(t0, t1));
    const uint64_t digest = CatalogDigest(data.r) ^ (CatalogDigest(data.s) * 3);
    if (i == 0) first_digest = digest;
    same_inputs = same_inputs && digest == first_digest;
  }
  report->Check("the seed regenerates identical catalogs", same_inputs);
  const double total_points = static_cast<double>(data.r.size() + data.s.size());

  // ---- oracle, outside every timed region: the full pair set from an
  // independent join, and both joins against brute force on a slice.
  const PairSet expected = GridJoin(data.r, data.s, args.nproc);
  {
    probe::util::Rng rng(args.seed ^ 0xC0FFEEULL);
    const uint64_t side = kGrid.side();
    const auto width = static_cast<uint64_t>(
        static_cast<double>(side) *
        std::sqrt(static_cast<double>(kSlicePoints) / static_cast<double>(kCatalogPoints)));
    const uint64_t x0 = rng.NextBelow(side - width);
    const uint64_t y0 = rng.NextBelow(side - width);
    const auto in_window = [&](const PointRecord& p) {
      return p.point[0] >= x0 && p.point[0] < x0 + width && p.point[1] >= y0 &&
             p.point[1] < y0 + width;
    };
    std::vector<PointRecord> r_slice, s_slice;
    std::copy_if(data.r.begin(), data.r.end(), std::back_inserter(r_slice), in_window);
    std::copy_if(data.s.begin(), data.s.end(), std::back_inserter(s_slice), in_window);
    const PairSet brute = BruteForce(r_slice, s_slice);
    PairSet joined;
    probe::relational::DistanceJoin(
        r_slice, s_slice, kGrid, kRadius,
        [&joined](const probe::relational::IdPair& p) { joined.Add(p.r_id, p.s_id); });
    report->Check("slice: DistanceJoin equals brute force", joined == brute && brute.count > 0);
    report->Check("slice: the oracle join equals brute force",
                  GridJoin(r_slice, s_slice, 1) == brute);
    // Mutation: a perturbed expected pair set must be flagged.
    PairSet off_by_one = brute;
    off_by_one.Add(r_slice.front().id, s_slice.front().id + 1);
    PairSet other_pair = brute;
    other_pair.digest += PairDigest(1, 2);
    report->Check("mutation: perturbed expected pair sets are flagged",
                  !(joined == off_by_one) && !(joined == other_pair));
  }

  // ---- the measured joins. peak_rss_mb covers them, not set-up.
  malloc_trim(0);
  ResetPeakRss();
  probe::util::ThreadPool pool(std::max(1, args.nproc - 1));
  std::vector<JoinRun> untraced, traced;
  SpanLog quiet(false, 0);
  const auto start = Clock::now();
  const double window = args.seconds;
  // A traced run spends its first half untraced, for trace.overhead_frac.
  const double untraced_until = args.trace ? window / 2 : window;
  RegistryValues reg_before;
  uint64_t request = 0;
  bool all_equal = true;
  while (untraced.empty() || SecondsBetween(start, Clock::now()) < untraced_until) {
    untraced.push_back(TimedJoin(data, &pool, &quiet, ++request));
  }
  if (args.trace) {
    pool.EnableMetrics(&probe::obs::ThreadPoolMetrics::Default());
    reg_before = RegistryValues::Take();
    while (traced.empty() || SecondsBetween(start, Clock::now()) < window) {
      traced.push_back(TimedJoin(data, &pool, &log, ++request));
    }
    pool.EnableMetrics(nullptr);
  }
  for (const auto* runs : {&untraced, &traced}) {
    for (const JoinRun& run : *runs) {
      report->CountAttempt();
      all_equal = all_equal && run.pairs == expected &&
                  run.stats.pairs == run.pairs.count &&
                  run.stats.r_rows == data.r.size() && run.stats.s_rows == data.s.size();
    }
  }
  report->Check("every join's pair set equals the oracle's (count " +
                    std::to_string(expected.count) + ")",
                all_equal);

  if (!args.trace) {
    std::vector<double> ms;
    for (const JoinRun& run : untraced) ms.push_back(run.seconds * 1000.0);
    report->Add("setup_s", Median(setup_s), "s", setup_s.size());
    report->Add("join_points_per_s", total_points / (Median(ms) / 1000.0), "1/s", ms.size());
    report->Add("join_call_p50_ms", Median(ms), "ms", ms.size());
    return;
  }

  const RegistryValues reg_after = RegistryValues::Take();
  std::vector<double> traced_s, untraced_s;
  for (const JoinRun& run : traced) traced_s.push_back(run.seconds);
  for (const JoinRun& run : untraced) untraced_s.push_back(run.seconds);
  const auto& stats = traced.back().stats;
  report->Add("join.call_s", Median(traced_s), "s", traced_s.size());
  report->Add("join.candidate_pairs", static_cast<double>(stats.candidate_pairs), "count", 1);
  report->Add("join.pairs", static_cast<double>(stats.pairs), "count", 1);
  report->Add("join.candidate_ratio",
              stats.pairs == 0 ? 0.0
                               : static_cast<double>(stats.candidate_pairs) /
                                     static_cast<double>(stats.pairs),
              "ratio", 1);
  report->Add("join.sort_pages", static_cast<double>(stats.sort_pages), "pages", 1);
  report->Add("join.sort_runs", static_cast<double>(stats.sort_runs), "count", 1);
  const auto tasks = reg_after.HistogramDelta(reg_before, "probe_threadpool_task_ms");
  report->Check("probe_threadpool_tasks_total delta equals the task histogram count",
                static_cast<uint64_t>(reg_after.CounterDelta(
                    reg_before, "probe_threadpool_tasks_total")) == tasks.count);
  report->Add("threadpool.task_ms_p50", HistogramQuantile(tasks, 0.5), "ms", tasks.count);
  report->Add("trace.overhead_frac", Median(traced_s) / Median(untraced_s) - 1.0, "ratio",
              traced_s.size() + untraced_s.size());
  if (!args.trace_out.empty() && !WriteSpans(args.trace_out, {&log})) {
    std::fprintf(stderr, "warning: could not write %s\n", args.trace_out.c_str());
  }
}

}  // namespace perfbench
