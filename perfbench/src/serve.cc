// serve_read and serve_mixed: wire traffic from server::Client over TCP
// to a server::Server on a 4-shard ShardedEngine.
//
// Both run 2 reader connections in a closed loop (one request in flight
// each) over a seeded mix of COUNT, RANGE and BOX in the ratio 4:3:1.
// Boxes cover 1e-4 to 1e-3 of a 2^16 x 2^16 grid (log-uniform), aspect 1
// to 4, centred on seeded data points. serve_read holds 50k road-network
// points, whose tree fits in the shards' snapshot frames; serve_mixed
// holds 500k, about 8x those frames, and adds 2 writer threads calling
// ShardedEngine::Apply on a fixed schedule, then a reopen without a
// checkpoint, which runs recovery.
//
// KNN (k = 10) is not in the timed mix: on a sharded engine each shard
// searches outward from the centre until it finds k of its own points,
// and a shard whose z interval lies far from the centre spends 0.5 to 6 s
// doing so. One KNN per run is timed and checked on its own instead
// (knn_probe_ms; engine.knn_us in the traced run), so a fix shows there.

#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <thread>

#include "checks.h"
#include "common.h"
#include "obs/runtime_metrics.h"
#include "server/client.h"
#include "server/server.h"
#include "server/sharded_engine.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "workload/datagen.h"
#include "workloads.h"
#include "zorder/shuffle.h"

namespace perfbench {
namespace {

namespace server = probe::server;
using probe::geometry::GridBox;
using probe::geometry::GridPoint;
using probe::index::DurableIndex;
using probe::index::PointRecord;
using probe::index::QueryStats;
using probe::server::ShardedEngine;
using Op = DurableIndex::Op;

constexpr int kShards = 4;
constexpr int kReaders = 2;
constexpr int kWriters = 2;
// Set-up runs this many times per run; setup_s is the median. serve_read's
// set-up is short, so it takes more samples.
constexpr int kReadSetups = 9;
constexpr int kMixedSetups = 3;
// The served database is the same in every run; --seed drives the traffic
// (requests, the KNN probe, the write stream). Road layouts differ a lot
// between generator seeds, and a per-run layout would make the read cost
// swing with the seed rather than with the code.
constexpr uint64_t kDataSeed = 20260101;
constexpr size_t kReadPoints = 50000;
constexpr size_t kMixedPoints = 500000;
constexpr size_t kRequests = 4096;
constexpr size_t kLoadBatch = 10000;
// Both writers together. At 10 s this gives 1200 commits, so that at
// least ten samples sit beyond the commit p99.
constexpr double kBatchesPerSecond = 120.0;
constexpr size_t kInsertsPerBatch = 90;
constexpr size_t kDeletesPerBatch = 10;
// A batch deletes only inserts at least this many of its own writer's
// batches old, so they were acknowledged before it was sent.
constexpr size_t kDeleteLag = 2;
constexpr size_t kReplaySample = 2000;
constexpr size_t kQuiescentSample = 512;
constexpr double kWarmupSeconds = 0.5;
constexpr uint64_t kStreamIdBase = 1ull << 40;
// Read metrics are medians over windows of this length.
constexpr double kReadWindowSeconds = 1.0;

const probe::zorder::GridSpec kGrid{2, 16};

std::vector<Request> MakeRequests(const std::vector<PointRecord>& points,
                                  uint64_t seed) {
  probe::util::Rng rng(seed);
  const double side = static_cast<double>(kGrid.side());
  const int64_t max_coord = static_cast<int64_t>(kGrid.side()) - 1;
  std::vector<Request> out(kRequests);
  for (Request& r : out) {
    const uint64_t roll = rng.NextBelow(8);
    r.kind = roll < 4 ? Kind::kCount : roll < 7 ? Kind::kRange : Kind::kBox;
    const GridPoint& anchor = points[rng.NextBelow(points.size())].point;
    const double fraction = 1e-4 * std::pow(10.0, rng.NextDouble());
    const double aspect = 1.0 + 3.0 * rng.NextDouble();
    const double area = fraction * side * side;
    double extent[2] = {std::sqrt(area * aspect), 0.0};
    extent[1] = area / extent[0];
    if (rng.NextBelow(2) == 1) std::swap(extent[0], extent[1]);
    probe::zorder::DimRange ranges[2];
    for (int d = 0; d < 2; ++d) {
      const int64_t w = std::clamp<int64_t>(std::llround(extent[d]), 1,
                                            max_coord + 1);
      const int64_t lo =
          std::clamp<int64_t>(anchor[d] - w / 2, 0, max_coord + 1 - w);
      ranges[d].lo = static_cast<uint32_t>(lo);
      ranges[d].hi = static_cast<uint32_t>(lo + w - 1);
    }
    r.box = GridBox(std::span<const probe::zorder::DimRange>(ranges, 2));
  }
  return out;
}

// A KNN centre near a seeded data point.
Request MakeKnnProbe(const std::vector<PointRecord>& points, uint64_t seed) {
  probe::util::Rng rng(seed);
  const GridPoint& anchor = points[rng.NextBelow(points.size())].point;
  const int64_t max_coord = static_cast<int64_t>(kGrid.side()) - 1;
  uint32_t c[2];
  for (int d = 0; d < 2; ++d) {
    const int64_t jitter = static_cast<int64_t>(rng.NextBelow(33)) - 16;
    c[d] = static_cast<uint32_t>(std::clamp<int64_t>(anchor[d] + jitter, 0, max_coord));
  }
  Request r;
  r.kind = Kind::kKnn;
  r.center = GridPoint(std::span<const uint32_t>(c, 2));
  return r;
}

void PrintWindows(const char* name, const std::vector<double>& values) {
  std::printf("window %-36s =", name);
  for (double v : values) std::printf(" %.4g", v);
  std::printf("\n");
}

// The commit stream: per writer, a fixed sequence of batches generated
// from the seed before the run. Each batch is local, as a trace from one
// vehicle or sensor is: its inserts are neighbours in z order, and its
// deletes all come from one earlier batch of the same writer. Random
// inserts would touch ~100 leaves on all four shards per batch and make
// the run's speed follow the sandbox disk's fsync latency.
struct Stream {
  std::vector<std::vector<std::vector<Op>>> batches;  // [writer][batch]
  Catalog inserted;  // id -> point of every insert in the stream
  std::vector<PointRecord> inserts;
};

Stream MakeStream(uint64_t seed, size_t batches_per_writer) {
  Stream stream;
  const size_t n_batches = kWriters * batches_per_writer;
  probe::workload::DataGenConfig config;
  config.distribution = probe::workload::Distribution::kRoadNetwork;
  config.count = n_batches * kInsertsPerBatch;
  config.seed = seed * 1000003 + 17;
  std::vector<PointRecord> fresh = probe::workload::GeneratePoints(kGrid, config);
  std::vector<std::pair<uint64_t, size_t>> by_z(fresh.size());
  for (size_t i = 0; i < fresh.size(); ++i) {
    by_z[i] = {probe::zorder::Shuffle(kGrid, fresh[i].point.coords()).ToInteger(), i};
  }
  std::sort(by_z.begin(), by_z.end());
  // Batch b inserts the b-th run of neighbours; batches go out in a
  // seeded order, dealt to the writers in turn.
  probe::util::Rng rng(seed ^ 0x5EEDF00DULL);
  std::vector<size_t> order(n_batches);
  for (size_t b = 0; b < n_batches; ++b) order[b] = b;
  for (size_t i = n_batches; i > 1; --i) std::swap(order[i - 1], order[rng.NextBelow(i)]);

  stream.batches.resize(kWriters);
  for (int w = 0; w < kWriters; ++w) {
    std::vector<std::vector<PointRecord>> live;  // per batch, not yet deleted
    uint64_t seq = 0;
    for (size_t j = 0; j < batches_per_writer; ++j) {
      const size_t chunk = order[j * kWriters + static_cast<size_t>(w)];
      std::vector<Op> ops;
      std::vector<PointRecord> mine;
      for (size_t i = 0; i < kInsertsPerBatch; ++i) {
        const PointRecord p{fresh[by_z[chunk * kInsertsPerBatch + i].second].point,
                            kStreamIdBase + (static_cast<uint64_t>(w) << 32) + seq++};
        ops.push_back(Op::Insert(p.point, p.id));
        mine.push_back(p);
        stream.inserted.emplace(p.id, p.point);
        stream.inserts.push_back(p);
      }
      if (j >= kDeleteLag) {
        std::vector<PointRecord>& old = live[rng.NextBelow(j - kDeleteLag + 1)];
        for (size_t i = 0; i < kDeletesPerBatch && !old.empty(); ++i) {
          const size_t pick = rng.NextBelow(old.size());
          ops.push_back(Op::Delete(old[pick].point, old[pick].id));
          old[pick] = old.back();
          old.pop_back();
        }
      }
      live.push_back(std::move(mine));
      stream.batches[static_cast<size_t>(w)].push_back(std::move(ops));
    }
  }
  return stream;
}

// Rows live after applying the acknowledged batches, sorted by id.
std::vector<PointRecord> LiveRows(const std::vector<PointRecord>& base,
                                  const Stream& stream,
                                  const std::vector<std::vector<bool>>& acked,
                                  int skip_writer, size_t skip_batch) {
  Catalog live;
  for (const PointRecord& p : base) live.emplace(p.id, p.point);
  for (int w = 0; w < kWriters; ++w) {
    const auto& batches = stream.batches[static_cast<size_t>(w)];
    for (size_t j = 0; j < batches.size(); ++j) {
      if (!acked[static_cast<size_t>(w)][j]) continue;
      if (w == skip_writer && j == skip_batch) continue;
      for (const Op& op : batches[j]) {
        if (op.kind == Op::Kind::kInsert) {
          live[op.id] = op.point;
        } else {
          live.erase(op.id);
        }
      }
    }
  }
  std::vector<PointRecord> rows;
  rows.reserve(live.size());
  for (const auto& [id, point] : live) rows.push_back(PointRecord{point, id});
  std::sort(rows.begin(), rows.end(),
            [](const PointRecord& a, const PointRecord& b) { return a.id < b.id; });
  return rows;
}

struct Serving {
  std::unique_ptr<ShardedEngine> engine;
  std::unique_ptr<server::Server> server;

  void Stop() {
    if (server) server->Stop();
    server.reset();
    engine.reset();
  }
};

// Generation, Apply load, Checkpoint and server start: what setup_s
// times. Throws when the engine cannot be built.
Serving SetUp(const std::string& dir, size_t n_points, uint64_t seed,
              probe::util::ThreadPool* pool, std::vector<PointRecord>* points,
              SpanLog* log, double* checkpoint_ms) {
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const auto t0 = Clock::now();
  probe::workload::DataGenConfig config;
  config.distribution = probe::workload::Distribution::kRoadNetwork;
  config.count = n_points;
  config.seed = seed;
  *points = probe::workload::GeneratePoints(kGrid, config);
  std::vector<Op> ops;
  ops.reserve(points->size());
  for (const PointRecord& p : *points) ops.push_back(Op::Insert(p.point, p.id));
  const auto t1 = Clock::now();

  Serving s;
  server::ShardedEngineOptions options;
  options.shards = kShards;
  options.truncate = true;
  s.engine = std::make_unique<ShardedEngine>(kGrid, dir + "/shard", options, pool);
  if (!s.engine->ok()) throw std::runtime_error("engine failed to open");
  for (size_t i = 0; i < ops.size(); i += kLoadBatch) {
    const size_t n = std::min(kLoadBatch, ops.size() - i);
    if (!s.engine->Apply(std::span<const Op>(ops.data() + i, n))) {
      throw std::runtime_error("load Apply failed");
    }
  }
  const auto t2 = Clock::now();
  if (!s.engine->Checkpoint()) throw std::runtime_error("Checkpoint failed");
  const auto t3 = Clock::now();
  s.server = std::make_unique<server::Server>(s.engine.get(), server::ServerOptions{});
  if (!s.server->Start()) throw std::runtime_error("server failed to start");
  const auto t4 = Clock::now();
  const uint64_t root = log->Add("setup", 0, 0, t0, t4);
  log->Add("setup.generate", 0, root, t0, t1);
  log->Add("setup.load", 0, root, t1, t2);
  log->Add("storage.checkpoint", 0, root, t2, t3);
  log->Add("setup.server_start", 0, root, t3, t4);
  *checkpoint_ms = MsBetween(t2, t3);
  return s;
}

// One wire call; the answer is left raw (wire order).
bool CallWire(server::Client& client, const Request& r, Answer* a) {
  switch (r.kind) {
    case Kind::kCount:
      return client.Count(r.box, &a->count);
    case Kind::kRange:
      return client.Range(r.box, &a->ids);
    case Kind::kBox: {
      std::vector<server::BoxResponse::Row> rows;
      if (!client.Box(r.box, &rows)) return false;
      for (const auto& row : rows) {
        a->ids.push_back(row.id);
        a->points.push_back(row.point);
      }
      return true;
    }
    case Kind::kKnn:
      return client.Knn(r.center, kKnnK, &a->knn);
  }
  return false;
}

// One in-process call on a View, the engine-level twin of CallWire.
Answer CallView(const ShardedEngine::View& view, const Request& r,
                QueryStats* stats) {
  Answer a;
  switch (r.kind) {
    case Kind::kCount:
      a.count = view.CountBox(r.box, stats);
      break;
    case Kind::kRange:
      a.ids = view.RangeSearch(r.box, stats);
      break;
    case Kind::kBox:
      for (const auto& row : view.RangeSearchRows(r.box, stats)) {
        a.ids.push_back(row.id);
        a.points.push_back(row.point);
      }
      break;
    case Kind::kKnn:
      a.knn = view.KNearest(r.center, kKnnK);
      break;
  }
  return a;
}

// Sorts RANGE/BOX answers by id (the wire returns z order).
void Normalize(Answer* a) {
  if (a->points.empty()) {
    std::sort(a->ids.begin(), a->ids.end());
    return;
  }
  std::vector<size_t> order(a->ids.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(),
            [a](size_t l, size_t r) { return a->ids[l] < a->ids[r]; });
  Answer sorted;
  for (size_t i : order) {
    sorted.ids.push_back(a->ids[i]);
    sorted.points.push_back(a->points[i]);
  }
  a->ids = std::move(sorted.ids);
  a->points = std::move(sorted.points);
}

std::string_view EngineSpanName(Kind kind) {
  switch (kind) {
    case Kind::kCount: return "engine.count";
    case Kind::kRange: return "engine.range";
    case Kind::kBox: return "engine.box";
    case Kind::kKnn: return "engine.knn";
  }
  return "engine.?";
}

// The answers a run checks reads against.
struct Oracle {
  const std::vector<Request>* requests = nullptr;
  std::vector<Answer> base;            // per request, on the loaded points
  std::vector<uint64_t> stream_in_box;  // per request (serve_mixed)
  const Catalog* stream = nullptr;      // null: no writes, answers exact

  bool Accepts(size_t index, const Answer& actual) const {
    const Request& r = (*requests)[index];
    if (stream == nullptr) return SameAnswer(r.kind, base[index], actual);
    return WithinStreamBounds(r, base[index], stream_in_box[index], *stream,
                              actual);
  }
};

// Evaluates `fn(i)` for i in [0, n) on `threads` threads.
template <typename Fn>
void ParallelIndex(size_t n, int threads, Fn&& fn) {
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      for (size_t i = static_cast<size_t>(t); i < n;
           i += static_cast<size_t>(threads)) {
        fn(i);
      }
    });
  }
  for (auto& th : pool) th.join();
}

struct Issued {
  uint32_t index = 0;       // into the request list
  uint64_t span = 0;        // its server.roundtrip span
  double roundtrip_us = 0.0;
};

struct ReaderResult {
  std::vector<double> latencies_ms;  // measured window
  std::vector<double> started_s;     // each one's start, from the window's
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t wrong = 0;
  uint64_t completed_untraced = 0;
  uint64_t completed_traced = 0;
  uint64_t frames = 0;  // every request frame sent, HELLO and GOODBYE too
  std::vector<Issued> issued;  // traced part of the window
  std::string error;
  std::string last_failure;
};

struct Timeline {
  Clock::time_point start;   // measured window opens (after warm-up)
  Clock::time_point traced;  // tracing switches on (== end when untraced)
  Clock::time_point end;
};

void ReaderLoop(int port, int reader, const Oracle& oracle, const Timeline& tl,
                SpanLog* log, ReaderResult* out) {
  server::Client client;
  server::HelloResponse hello;
  if (!client.ConnectTcp(port) || !client.Hello(&hello)) {
    out->error = "reader connect failed: " + client.last_error();
    return;
  }
  out->frames = 1;
  size_t next = static_cast<size_t>(reader) * (kRequests / kReaders);
  uint64_t seq = static_cast<uint64_t>(reader) << 40;
  for (;;) {
    const auto t0 = Clock::now();
    if (t0 >= tl.end) break;
    const bool measured = t0 >= tl.start;
    const bool traced = log->enabled() && t0 >= tl.traced;
    const size_t index = next++ % kRequests;
    Answer actual;
    const bool ok = CallWire(client, (*oracle.requests)[index], &actual);
    const auto t1 = Clock::now();
    ++out->frames;
    if (measured) ++out->attempted;
    if (!ok) {
      if (measured) ++out->failed;
      out->last_failure = client.last_error();
      if (!client.connected()) {
        out->error = "reader lost its connection: " + client.last_error();
        return;
      }
      continue;
    }
    if (measured) {
      out->latencies_ms.push_back(MsBetween(t0, t1));
      out->started_s.push_back(SecondsBetween(tl.start, t0));
      ++(traced ? out->completed_traced : out->completed_untraced);
    }
    if (traced) {
      const uint64_t span = log->Add("server.roundtrip", ++seq, 0, t0, t1);
      out->issued.push_back(
          Issued{static_cast<uint32_t>(index), span, UsBetween(t0, t1)});
    }
    Normalize(&actual);
    if (!oracle.Accepts(index, actual)) ++out->wrong;
  }
  client.Goodbye();
  ++out->frames;
}

struct WriterResult {
  std::vector<double> commit_ms;  // due time -> Apply returned
  std::vector<double> late_ms;    // due time -> Apply called
  std::vector<double> apply_ms;   // traced part: the Apply call alone
  std::vector<bool> acked;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t backlog = 0;  // due before the window closed, never sent
  uint64_t ops = 0;
  uint64_t shard_commits = 0;  // (batch, shard) pairs of acked batches
};

void WriterLoop(ShardedEngine* engine, int writer,
                const std::vector<std::vector<Op>>& batches, const Timeline& tl,
                SpanLog* log, WriterResult* out) {
  const auto interval = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(1.0 / kBatchesPerSecond));
  out->acked.assign(batches.size(), false);
  for (size_t j = 0; j < batches.size(); ++j) {
    const auto due = tl.start + interval * static_cast<int64_t>(
                                               j * kWriters +
                                               static_cast<size_t>(writer));
    if (due >= tl.end) break;
    if (Clock::now() >= tl.end) {
      // Backlog: batches that fell due but were never sent. Each counts
      // as a commit that took at least until the window closed, so a
      // stalled writer shows as latency, not as a lower offered rate.
      ++out->backlog;
      out->commit_ms.push_back(MsBetween(due, tl.end));
      continue;
    }
    std::this_thread::sleep_until(due);
    const auto start = Clock::now();
    const bool ok = engine->Apply(batches[j]);
    const auto end = Clock::now();
    ++out->attempted;
    out->commit_ms.push_back(MsBetween(due, end));
    out->late_ms.push_back(std::max(0.0, MsBetween(due, start)));
    if (log->enabled() && start >= tl.traced) {
      log->Add("engine.apply", (static_cast<uint64_t>(writer) << 40) | j, 0,
               start, end);
      out->apply_ms.push_back(MsBetween(start, end));
    }
    if (!ok) {
      ++out->failed;
      continue;
    }
    out->acked[j] = true;
    out->ops += batches[j].size();
    std::vector<bool> touched(kShards, false);
    for (const Op& op : batches[j]) {
      touched[static_cast<size_t>(engine->ShardOf(engine->ZOf(op.point)))] = true;
    }
    out->shard_commits +=
        static_cast<uint64_t>(std::count(touched.begin(), touched.end(), true));
  }
}

probe::storage::WalStats SumWalStats(ShardedEngine& engine) {
  probe::storage::WalStats sum;
  for (int i = 0; i < engine.shard_count(); ++i) {
    const auto s = engine.shard(i).wal().stats();
    sum.records += s.records;
    sum.bytes += s.bytes;
    sum.syncs += s.syncs;
    sum.group_syncs += s.group_syncs;
    sum.group_commits += s.group_commits;
  }
  return sum;
}

uint64_t DiskBytes(ShardedEngine& engine, uint64_t* wal_bytes) {
  uint64_t total = 0;
  *wal_bytes = 0;
  for (int i = 0; i < engine.shard_count(); ++i) {
    const uint64_t wal = FileBytes(engine.shard(i).wal_path());
    *wal_bytes += wal;
    total += wal + FileBytes(engine.shard(i).path());
  }
  return total;
}

// Process-wide index and pager counters, read directly: cheap enough to
// take around every replayed request.
struct Counters {
  uint64_t queries, leaf, internal, scanned, elements, results, pager_reads;

  static Counters Take() {
    const auto& q = probe::obs::QueryMetrics::Default();
    return Counters{q.queries->value(),        q.leaf_pages->value(),
                    q.internal_pages->value(), q.points_scanned->value(),
                    q.elements_generated->value(), q.results->value(),
                    probe::obs::StorageMetrics::Default().pager_reads->value()};
  }
  Counters Minus(const Counters& o) const {
    return Counters{queries - o.queries,   leaf - o.leaf,
                    internal - o.internal, scanned - o.scanned,
                    elements - o.elements, results - o.results,
                    pager_reads - o.pager_reads};
  }
  void Add(const Counters& o) {
    queries += o.queries;
    leaf += o.leaf;
    internal += o.internal;
    scanned += o.scanned;
    elements += o.elements;
    results += o.results;
    pager_reads += o.pager_reads;
  }
};

// The traced run's in-process replay of requests the wire already served:
// each on a freshly pinned View with nothing else running, so the
// registry deltas belong to it alone.
void Replay(ShardedEngine& engine, const std::vector<Request>& requests,
            const Request& knn_probe,
            const std::vector<ReaderResult>& readers, const PointSet& truth,
            SpanLog* log, Report* report) {
  std::vector<Issued> sample;
  for (size_t i = 0; sample.size() < kReplaySample; ++i) {
    bool any = false;
    for (const ReaderResult& r : readers) {
      if (i < r.issued.size() && sample.size() < kReplaySample) {
        sample.push_back(r.issued[i]);
        any = true;
      }
    }
    if (!any) break;
  }

  std::vector<double> residual_us;
  double shards_touched = 0.0;
  QueryStats box_stats;  // summed over COUNT/RANGE/BOX replays
  uint64_t box_queries = 0, count_queries = 0, count_materialized = 0;
  uint64_t box_pager_reads = 0;
  Counters per_request_sum{};
  bool exact = true, answers_ok = true;
  const RegistryValues before = RegistryValues::Take();
  uint64_t seq = 1ull << 63;
  // `issued` is null for the KNN probe, which the wire did not serve.
  const auto replay_one = [&](const Request& r, const Issued* issued) {
    const Counters c0 = Counters::Take();
    QueryStats stats;
    const auto t0 = Clock::now();
    Clock::time_point t1, t2;
    Answer answer;
    {
      const ShardedEngine::View view = engine.CreateView();
      t1 = Clock::now();
      answer = CallView(view, r, &stats);
      t2 = Clock::now();
    }
    const auto t3 = Clock::now();
    const Counters delta = Counters::Take().Minus(c0);
    per_request_sum.Add(delta);

    const uint64_t root =
        log->Add("replay", ++seq, issued == nullptr ? 0 : issued->span, t0, t3);
    log->Add("engine.view_pin", seq, root, t0, t1);
    log->Add(EngineSpanName(r.kind), seq, root, t1, t2);
    log->Add("engine.view_release", seq, root, t2, t3);

    Normalize(&answer);
    if (!SameAnswer(r.kind, truth.Expected(r), answer)) answers_ok = false;
    if (issued == nullptr) return;

    residual_us.push_back(issued->roundtrip_us - UsBetween(t0, t3));
    const auto [first, last] = engine.ShardSpan(r.box);
    shards_touched += last - first + 1;
    const uint64_t result_rows =
        r.kind == Kind::kCount ? answer.count : answer.ids.size();
    // What the benchmark counted for the request equals what the program
    // exported for it, exactly.
    exact = exact && delta.leaf == stats.leaf_pages &&
            delta.internal == stats.internal_pages &&
            delta.scanned == stats.points_scanned &&
            delta.elements == stats.elements_generated &&
            delta.results == result_rows &&
            delta.queries == static_cast<uint64_t>(last - first + 1);
    ++box_queries;
    box_stats.leaf_pages += stats.leaf_pages;
    box_stats.internal_pages += stats.internal_pages;
    box_stats.points_scanned += stats.points_scanned;
    box_stats.elements_generated += stats.elements_generated;
    box_stats.classify_calls += stats.classify_calls;
    box_stats.results += stats.results;
    box_stats.entries_on_touched_pages += stats.entries_on_touched_pages;
    box_pager_reads += delta.pager_reads;
    if (r.kind == Kind::kCount) {
      ++count_queries;
      count_materialized += stats.materialized_rows;
    }
  };
  for (const Issued& issued : sample) replay_one(requests[issued.index], &issued);
  replay_one(knn_probe, nullptr);
  const RegistryValues after = RegistryValues::Take();
  const auto phase = [&](const char* name) {
    return static_cast<uint64_t>(after.CounterDelta(before, name));
  };
  report->Check("replayed answers equal the oracle", answers_ok);
  report->Check("per-request QueryStats equal the probe_index_* deltas", exact);
  report->Check(
      "replay sums equal registry deltas (leaf, internal, scanned, "
      "elements, results, queries, pager reads)",
      per_request_sum.leaf == phase("probe_index_leaf_pages_total") &&
          per_request_sum.internal == phase("probe_index_internal_pages_total") &&
          per_request_sum.scanned == phase("probe_index_points_scanned_total") &&
          per_request_sum.elements == phase("probe_index_elements_total") &&
          per_request_sum.results == phase("probe_index_results_total") &&
          per_request_sum.queries == phase("probe_index_queries_total") &&
          per_request_sum.pager_reads == phase("probe_pager_reads_total") &&
          box_stats.leaf_pages == phase("probe_index_leaf_pages_total"));

  const size_t n = box_queries;
  const auto per_box = [&](uint64_t v) {
    return box_queries == 0 ? 0.0
                            : static_cast<double>(v) / static_cast<double>(box_queries);
  };
  report->Add("server.residual_us", Median(residual_us), "us", n);
  report->Add("engine.view_pin_us", Median(log->Durations("engine.view_pin")),
              "us", n);
  for (Kind kind : {Kind::kCount, Kind::kRange, Kind::kBox, Kind::kKnn}) {
    const std::string name(EngineSpanName(kind));
    const auto d = log->Durations(name);
    report->Add(name + "_us", Median(d), "us", d.size());
  }
  report->Add("engine.shards_per_query",
              n == 0 ? 0.0 : shards_touched / static_cast<double>(n), "count", n);
  report->Add("index.leaf_pages_per_query", per_box(box_stats.leaf_pages),
              "pages", box_queries);
  report->Add("index.internal_pages_per_query",
              per_box(box_stats.internal_pages), "pages", box_queries);
  report->Add("index.points_scanned_per_query",
              per_box(box_stats.points_scanned), "count", box_queries);
  report->Add("index.efficiency",
              box_stats.entries_on_touched_pages == 0
                  ? 1.0
                  : static_cast<double>(box_stats.results) /
                        static_cast<double>(box_stats.entries_on_touched_pages),
              "ratio", box_queries);
  report->Add("index.materialized_rows_per_count",
              count_queries == 0 ? 0.0
                                 : static_cast<double>(count_materialized) /
                                       static_cast<double>(count_queries),
              "count", count_queries);
  report->Add("decompose.elements_per_query",
              per_box(box_stats.elements_generated), "count", box_queries);
  report->Add("decompose.classify_calls_per_query",
              per_box(box_stats.classify_calls), "count", box_queries);
  report->Add("storage.pager_reads_per_query", per_box(box_pager_reads), "count",
              box_queries);
  const uint64_t fetches = box_stats.leaf_pages + box_stats.internal_pages;
  report->Add("storage.read_miss_ratio",
              fetches == 0 ? 0.0
                           : static_cast<double>(box_pager_reads) /
                                 static_cast<double>(fetches),
              "ratio", box_queries);
}

}  // namespace

void RunServe(const RunArgs& args, bool mixed, Report* report) {
  const size_t n_points = mixed ? kMixedPoints : kReadPoints;
  const std::string dir = args.workdir + "/db";
  probe::util::ThreadPool pool(std::max(1, args.nproc - 1));
  SpanLog main_log(args.trace, 0);

  // ---- set-up, several times; the last one serves.
  std::vector<double> setup_s, checkpoint_ms;
  std::vector<PointRecord> points;
  Serving serving;
  for (int i = 0; i < (mixed ? kMixedSetups : kReadSetups); ++i) {
    serving.Stop();
    double ckpt = 0.0;
    const auto t0 = Clock::now();
    serving = SetUp(dir, n_points, kDataSeed, &pool, &points, &main_log, &ckpt);
    setup_s.push_back(SecondsBetween(t0, Clock::now()));
    checkpoint_ms.push_back(ckpt);
  }
  ShardedEngine& engine = *serving.engine;
  report->Check("engine holds every loaded point", engine.size() == points.size());

  // ---- oracle, outside every timed region.
  const std::vector<Request> requests = MakeRequests(points, args.seed ^ 0xA5A5ULL);
  const Request knn_probe = MakeKnnProbe(points, args.seed ^ 0x4B4EULL);
  const PointSet base_set(points);
  Oracle oracle;
  oracle.requests = &requests;
  oracle.base.resize(kRequests);
  ParallelIndex(kRequests, args.nproc,
                [&](size_t i) { oracle.base[i] = base_set.Expected(requests[i]); });

  const double window_s = args.seconds;
  const size_t batches_per_writer = static_cast<size_t>(
      std::ceil(window_s * kBatchesPerSecond / kWriters)) + 1;
  Stream stream;
  if (mixed) {
    stream = MakeStream(args.seed, batches_per_writer);
    const PointSet stream_set(stream.inserts);
    oracle.stream_in_box.resize(kRequests);
    ParallelIndex(kRequests, args.nproc, [&](size_t i) {
      oracle.stream_in_box[i] = stream_set.CountIn(requests[i].box);
    });
    oracle.stream = &stream.inserted;
  }

  // ---- the measured window.
  const probe::storage::WalStats wal_before = SumWalStats(engine);
  std::vector<uint64_t> wal_file_before(kShards);
  for (int i = 0; i < kShards; ++i) {
    wal_file_before[static_cast<size_t>(i)] = FileBytes(engine.shard(i).wal_path());
  }
  const auto server_before = serving.server->counters();
  const RegistryValues reg_before = RegistryValues::Take();
  // peak_rss_mb covers the measured part of the run; set-up has its own
  // metric, and its transient peak depends on what the allocator kept.
  malloc_trim(0);
  ResetPeakRss();

  Timeline tl;
  const auto now = Clock::now();
  tl.start = now + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(kWarmupSeconds));
  tl.end = tl.start + std::chrono::duration_cast<Clock::duration>(
                          std::chrono::duration<double>(window_s));
  // A traced run measures its first half untraced and its second half
  // traced; the ratio of the two read rates is trace.overhead_frac.
  tl.traced = args.trace ? tl.start + (tl.end - tl.start) / 2 : tl.end;

  std::vector<ReaderResult> readers(kReaders);
  std::vector<WriterResult> writers(mixed ? kWriters : 0);
  std::vector<std::unique_ptr<SpanLog>> logs;
  std::vector<std::thread> threads;
  for (int c = 0; c < kReaders; ++c) {
    logs.push_back(std::make_unique<SpanLog>(args.trace, 1 + c));
    threads.emplace_back(ReaderLoop, serving.server->port(), c, std::cref(oracle),
                         std::cref(tl), logs.back().get(),
                         &readers[static_cast<size_t>(c)]);
  }
  for (int w = 0; w < static_cast<int>(writers.size()); ++w) {
    logs.push_back(std::make_unique<SpanLog>(args.trace, 1 + kReaders + w));
    threads.emplace_back(WriterLoop, &engine, w,
                         std::cref(stream.batches[static_cast<size_t>(w)]),
                         std::cref(tl), logs.back().get(),
                         &writers[static_cast<size_t>(w)]);
  }
  RegistryValues reg_traced;
  if (args.trace) {
    std::this_thread::sleep_until(tl.traced);
    pool.EnableMetrics(&probe::obs::ThreadPoolMetrics::Default());
    reg_traced = RegistryValues::Take();
  }
  for (auto& t : threads) t.join();
  pool.EnableMetrics(nullptr);
  const RegistryValues reg_after = RegistryValues::Take();
  const auto server_after = serving.server->counters();

  // ---- read results.
  std::vector<double> latencies, started;
  uint64_t attempted = 0, failed = 0, wrong = 0, frames = 0;
  uint64_t done_untraced = 0, done_traced = 0;
  for (const ReaderResult& r : readers) {
    if (!r.error.empty()) throw std::runtime_error(r.error);
    if (r.failed > 0) {
      std::printf("reader failures: %llu, last: %s\n",
                  static_cast<unsigned long long>(r.failed), r.last_failure.c_str());
    }
    latencies.insert(latencies.end(), r.latencies_ms.begin(), r.latencies_ms.end());
    started.insert(started.end(), r.started_s.begin(), r.started_s.end());
    attempted += r.attempted;
    failed += r.failed;
    wrong += r.wrong;
    frames += r.frames;
    done_untraced += r.completed_untraced;
    done_traced += r.completed_traced;
  }
  report->CountAttempt(attempted);
  report->CountFailure(failed);
  report->Check(mixed ? "reads during the stream within base/stream bounds"
                      : "every wire answer equals the oracle",
                wrong == 0);

  // ---- write results.
  std::vector<double> commit_ms, late_ms, apply_ms;
  uint64_t w_attempted = 0, w_failed = 0, backlog = 0, ops = 0, shard_commits = 0,
           acked_batches = 0;
  std::vector<std::vector<bool>> acked;
  for (const WriterResult& w : writers) {
    commit_ms.insert(commit_ms.end(), w.commit_ms.begin(), w.commit_ms.end());
    late_ms.insert(late_ms.end(), w.late_ms.begin(), w.late_ms.end());
    apply_ms.insert(apply_ms.end(), w.apply_ms.begin(), w.apply_ms.end());
    w_attempted += w.attempted;
    w_failed += w.failed;
    backlog += w.backlog;
    ops += w.ops;
    shard_commits += w.shard_commits;
    acked.push_back(w.acked);
    acked_batches += static_cast<uint64_t>(std::count(w.acked.begin(), w.acked.end(), true));
  }
  report->CountAttempt(w_attempted + backlog);
  report->CountFailure(w_failed + backlog);
  if (mixed) report->Check("every sent batch acknowledged", w_failed == 0);

  if (!args.trace) {
    report->Add("setup_s", Median(setup_s), "s", setup_s.size());
    const Windowed w = SplitWindows(started, latencies, kReadWindowSeconds,
                                    static_cast<int>(window_s / kReadWindowSeconds));
    PrintWindows("read_qps", w.rate);
    PrintWindows("read_p50_ms", w.p50);
    PrintWindows("read_p99_ms", w.p99);
    report->Add("read_qps", Median(w.rate), "1/s", latencies.size());
    report->Add("read_p50_ms", Median(w.p50), "ms", latencies.size());
    report->Add("read_p99_ms", Median(w.p99), "ms", latencies.size());
    if (mixed) {
      report->Add("commit_p50_ms", Quantile(commit_ms, 0.50), "ms", commit_ms.size());
      report->Add("commit_p99_ms", Quantile(commit_ms, 0.99), "ms", commit_ms.size());
      report->Add("writer_late_p99_ms", Quantile(late_ms, 0.99), "ms", late_ms.size());
      report->Add("writer_backlog", static_cast<double>(backlog), "batches",
                  acked_batches + backlog);
    }
  }

  // ---- quiescent pass: writers and readers stopped, every answer exact.
  const std::vector<PointRecord> live =
      mixed ? LiveRows(points, stream, acked, -1, 0) : points;
  const PointSet live_set(live);
  if (!args.trace) {
    server::Client client;
    server::HelloResponse hello;
    if (!client.ConnectTcp(serving.server->port()) || !client.Hello(&hello)) {
      throw std::runtime_error("quiescent client connect failed");
    }
    if (mixed) {
      bool exact = true;
      for (size_t i = 0; i < kQuiescentSample; ++i) {
        Answer actual;
        report->CountAttempt();
        if (!CallWire(client, requests[i], &actual)) {
          report->CountFailure();
          continue;
        }
        Normalize(&actual);
        exact = exact &&
                SameAnswer(requests[i].kind, live_set.Expected(requests[i]), actual);
      }
      report->Check("quiescent wire answers equal the oracle", exact);
    }
    Answer knn;
    report->CountAttempt();
    const auto t0 = Clock::now();
    const bool ok = CallWire(client, knn_probe, &knn);
    const auto t1 = Clock::now();
    if (!ok) report->CountFailure();
    report->Check("the KNN probe equals the oracle",
                  ok && SameAnswer(Kind::kKnn, live_set.Expected(knn_probe), knn));
    report->Add("knn_probe_ms", MsBetween(t0, t1), "ms", 1);
    client.Goodbye();
  }

  // ---- the comparators can fail: perturbed inputs must be flagged.
  {
    bool flagged = true;
    for (Kind kind : {Kind::kCount, Kind::kRange, Kind::kBox}) {
      size_t i = 0;
      while (i < kRequests &&
             (requests[i].kind != kind || oracle.base[i].count == 0)) {
        ++i;
      }
      if (i == kRequests) continue;
      Answer perturbed = oracle.base[i];
      switch (kind) {
        case Kind::kCount: ++perturbed.count; break;
        case Kind::kRange: perturbed.ids.pop_back(); break;
        default: perturbed.points.back().at(0) ^= 1; break;
      }
      flagged = flagged && !SameAnswer(kind, perturbed, oracle.base[i]);
      if (mixed && kind == Kind::kCount) {
        Answer low = oracle.base[i];
        --low.count;
        flagged = flagged && !oracle.Accepts(i, low);
      } else if (mixed) {
        // An answer missing a base row, or holding an id nobody inserted.
        Answer missing = oracle.base[i];
        missing.ids.erase(missing.ids.begin());
        if (kind == Kind::kBox) missing.points.erase(missing.points.begin());
        Answer alien = oracle.base[i];
        alien.ids.push_back(kStreamIdBase - 1);
        if (kind == Kind::kBox) alien.points.push_back(alien.points.back());
        flagged = flagged && !oracle.Accepts(i, missing) && !oracle.Accepts(i, alien);
      }
    }
    Answer knn = base_set.Expected(knn_probe);
    const Answer truth = knn;
    knn.knn.back().id ^= 1;
    flagged = flagged && !SameAnswer(Kind::kKnn, truth, knn);
    report->Check("mutation: perturbed expected answers are flagged", flagged);
  }

  // ---- traced: replay and layer counters.
  if (args.trace) {
    const double traced_s = SecondsBetween(tl.traced, tl.end);
    const double untraced_s = SecondsBetween(tl.start, tl.traced);
    std::vector<double> roundtrips;
    for (const auto& log : logs) {
      const auto d = log->Durations("server.roundtrip");
      roundtrips.insert(roundtrips.end(), d.begin(), d.end());
    }
    report->Add("server.roundtrip_us", Median(roundtrips), "us", roundtrips.size());
    const double req_delta = reg_after.CounterDelta(reg_before, "probe_server_requests_total");
    report->Check("probe_server_requests_total delta equals frames sent",
                  static_cast<uint64_t>(req_delta) == frames);
    report->Add("server.bytes_per_request",
                req_delta == 0 ? 0.0
                               : (reg_after.CounterDelta(reg_before, "probe_server_bytes_read_total") +
                                  reg_after.CounterDelta(reg_before, "probe_server_bytes_written_total")) /
                                     req_delta,
                "bytes", static_cast<uint64_t>(req_delta));
    const double busy = reg_after.CounterDelta(reg_before, "probe_server_busy_total");
    report->Check("probe_server_busy_total delta equals the server's busy count",
                  static_cast<uint64_t>(busy) == server_after.busy - server_before.busy);
    report->Add("server.busy", busy, "count", frames);
    const auto tasks = reg_after.HistogramDelta(reg_traced, "probe_threadpool_task_ms");
    report->Add("threadpool.task_ms_p50", HistogramQuantile(tasks, 0.5), "ms",
                tasks.count);
    const auto lag = reg_after.HistogramDelta(reg_traced, "probe_snapshot_epoch_lag");
    report->Add("storage.snapshot_epoch_lag_mean",
                lag.count == 0 ? 0.0 : lag.sum / static_cast<double>(lag.count),
                "epochs", lag.count);
    report->Add("storage.checkpoint_ms", Median(checkpoint_ms), "ms",
                checkpoint_ms.size());
    const double rate_untraced = static_cast<double>(done_untraced) / untraced_s;
    const double rate_traced = static_cast<double>(done_traced) / traced_s;
    report->Add("trace.overhead_frac",
                rate_traced == 0 ? 0.0 : rate_untraced / rate_traced - 1.0, "ratio",
                done_untraced + done_traced);
    if (mixed) {
      report->Add("engine.apply_ms", Median(apply_ms), "ms", apply_ms.size());
      const probe::storage::WalStats wal_after = SumWalStats(engine);
      const auto wal_delta = [&](const char* name) {
        return static_cast<uint64_t>(reg_after.CounterDelta(reg_before, name));
      };
      const auto group = reg_after.HistogramDelta(reg_before, "probe_wal_group_size");
      report->Check(
          "WalStats deltas equal probe_wal_* deltas (records, bytes, syncs, "
          "group syncs, group commits, commits)",
          wal_after.records - wal_before.records == wal_delta("probe_wal_appends_total") &&
              wal_after.bytes - wal_before.bytes == wal_delta("probe_wal_bytes_total") &&
              wal_after.syncs - wal_before.syncs == wal_delta("probe_wal_syncs_total") &&
              wal_after.group_syncs - wal_before.group_syncs == group.count &&
              static_cast<double>(wal_after.group_commits - wal_before.group_commits) ==
                  group.sum &&
              shard_commits == wal_delta("probe_wal_commits_total"));
      report->Add("storage.wal_syncs_per_commit",
                  acked_batches == 0 ? 0.0
                                     : static_cast<double>(wal_after.syncs - wal_before.syncs) /
                                           static_cast<double>(acked_batches),
                  "count", acked_batches);
      report->Add("storage.wal_group_size_mean",
                  group.count == 0 ? 0.0 : group.sum / static_cast<double>(group.count),
                  "commits", group.count);
      report->Add("storage.wal_bytes_per_op",
                  ops == 0 ? 0.0
                           : static_cast<double>(wal_after.bytes - wal_before.bytes) /
                                 static_cast<double>(ops),
                  "bytes", ops);
    }
    Replay(engine, requests, knn_probe, readers, live_set, &main_log, report);
  }

  // ---- serve_mixed: stop, drop the engine without a checkpoint, reopen.
  if (mixed) {
    serving.server->Stop();
    uint64_t wal_bytes = 0;
    const uint64_t disk = DiskBytes(engine, &wal_bytes);
    if (!args.trace) {
      report->Add("db_bytes_per_point",
                  static_cast<double>(disk) / static_cast<double>(live.size()),
                  "bytes", live.size());
    }
    const probe::storage::WalStats wal_end = SumWalStats(engine);
    uint64_t wal_file_start = 0;
    for (uint64_t b : wal_file_before) wal_file_start += b;
    report->Check("WAL files grew by exactly the WalStats bytes",
                  wal_bytes == wal_file_start + (wal_end.bytes - wal_before.bytes));
    serving.Stop();

    const auto t0 = Clock::now();
    server::ShardedEngineOptions options;
    options.shards = kShards;
    ShardedEngine reopened(kGrid, dir + "/shard", options, &pool);
    const bool ok = reopened.ok();
    const auto t1 = Clock::now();
    main_log.Add("recovery.reopen", 0, 0, t0, t1);
    report->Check("reopen after the stream recovers", ok);
    uint64_t redone = 0, scanned = 0;
    for (int i = 0; i < kShards; ++i) {
      redone += reopened.shard(i).recovery().records_redone;
      scanned += reopened.shard(i).recovery().records_scanned;
    }
    // Each shard's log holds its checkpoint record, then the stream's page
    // images and one commit record per acknowledged shard batch.
    const uint64_t stream_records = wal_end.records - wal_before.records;
    report->Check("RecoveryResult scanned/redone equal the WalStats records",
                  scanned == stream_records + kShards &&
                      redone == stream_records - shard_commits);
    if (args.trace) {
      report->Add("recovery.pages_redone", static_cast<double>(redone), "pages", kShards);
      report->Add("recovery.log_bytes", static_cast<double>(wal_bytes), "bytes", kShards);
    } else {
      report->Add("recover_s", SecondsBetween(t0, t1), "s", 1);
    }

    // Durability: the reopened engine holds exactly the rows the
    // acknowledged batches leave.
    std::vector<PointRecord> rows;
    {
      const GridBox all = GridBox::Make2D(0, static_cast<uint32_t>(kGrid.side() - 1), 0,
                                          static_cast<uint32_t>(kGrid.side() - 1));
      const ShardedEngine::View view = reopened.CreateView();
      for (const auto& row : view.RangeSearchRows(all)) {
        rows.push_back(PointRecord{row.point, row.id});
      }
    }
    std::sort(rows.begin(), rows.end(),
              [](const PointRecord& a, const PointRecord& b) { return a.id < b.id; });
    report->Check("every acknowledged batch survives the reopen", SameRows(live, rows));
    // Mutation: the same comparison must flag a dropped acknowledged
    // batch (writer 0's last).
    int skip_writer = -1;
    size_t skip_batch = 0;
    for (size_t j = acked.empty() ? 0 : acked[0].size(); j-- > 0;) {
      if (acked[0][j]) {
        skip_writer = 0;
        skip_batch = j;
        break;
      }
    }
    const std::vector<PointRecord> dropped =
        LiveRows(points, stream, acked, skip_writer, skip_batch);
    report->Check("mutation: a dropped acknowledged batch is flagged",
                  skip_writer >= 0 && !SameRows(dropped, rows));
  } else {
    serving.Stop();
  }

  if (args.trace) {
    std::vector<const SpanLog*> all{&main_log};
    for (const auto& log : logs) all.push_back(log.get());
    if (!args.trace_out.empty() && !WriteSpans(args.trace_out, all)) {
      std::fprintf(stderr, "warning: could not write %s\n", args.trace_out.c_str());
    }
  }
}

}  // namespace perfbench
