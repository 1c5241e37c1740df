// Spatial query server load generator: shard-scaling sweep over TCP.
//
// Builds a ShardedEngine at each shard count in the sweep, fronts it with
// the TCP server, and drives it with pipelined clients executing COUNT
// queries. Two measurements per configuration:
//
//   * latency probe — one client, strict request/response round trips,
//     per-request wall time collected for p50/p99;
//   * throughput run — N client threads, each pipelining windows of
//     requests (write the window, read the window), wall-clock qps.
//
// Every response is checked against the in-process answer computed on the
// single-shard engine, so the row-level `identical` flag certifies the
// scatter-gather concatenation over the wire, not just in a unit test.
// Rows where shard count exceeds the hardware's cores are tagged
// `oversubscribed`; rows whose speedup over the single-shard (single
// buffer pool, single WAL) baseline is <= 1.1x are tagged `low_scaling`
// so regression tooling can judge only the rows the machine can back.
//
// Numbers land in BENCH_server.json (section "server") with a
// machine-scaled `qps_floor`: the committed baseline's floor is the gate
// later runs must sustain (scripts/check.sh).
//
// Sizes default small enough for CI; scale up with
//   bench_server [points] [queries] [clients]
// (e.g. 500000 200000 8 for a real machine).

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "index/durable_index.h"
#include "server/client.h"
#include "server/server.h"
#include "server/sharded_engine.h"
#include "util/bench_json.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "workload/datagen.h"
#include "workload/querygen.h"

namespace {

using namespace probe;

double MsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

double Percentile(std::vector<double> sorted, double p) {
  if (sorted.empty()) return 0.0;
  const auto rank = static_cast<size_t>(
      p * static_cast<double>(sorted.size() - 1) + 0.5);
  return sorted[std::min(rank, sorted.size() - 1)];
}

void RemoveShardFiles(const std::string& prefix, int shards) {
  for (int i = 0; i < shards; ++i) {
    const std::string base = server::ShardedEngine::ShardPath(prefix, i);
    std::remove(base.c_str());
    std::remove((base + ".wal").c_str());
    std::remove((base + ".wal.tmp").c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  const size_t n_points =
      argc > 1 ? static_cast<size_t>(std::atoll(argv[1])) : 50000;
  const int n_queries = argc > 2 ? std::atoi(argv[2]) : 4000;
  const int n_clients = std::max(1, argc > 3 ? std::atoi(argv[3]) : 4);
  const int n_latency_probe = std::min(500, n_queries);
  constexpr int kWindow = 64;

  const zorder::GridSpec grid{2, 16};
  workload::DataGenConfig data;
  data.count = n_points;
  data.seed = 17;
  data.distribution = workload::Distribution::kUniform;
  const auto points = GeneratePoints(grid, data);
  std::vector<index::DurableIndex::Op> ops;
  ops.reserve(points.size());
  for (const auto& r : points) {
    ops.push_back(index::DurableIndex::Op::Insert(r.point, r.id));
  }

  util::Rng qrng(4321);
  const auto boxes =
      workload::MakeQueryBoxes2D(grid, 0.001, 1.0, 256, qrng);

  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  std::printf("=== Query server load: %zu points, %d queries, %d clients, "
              "hardware threads = %u ===\n\n",
              n_points, n_queries, n_clients, hw);

  const std::string prefix =
      "/tmp/probe_bench_server_" + std::to_string(::getpid());

  // Expected answers, computed once in-process: every configuration's wire
  // responses must match these exactly.
  std::vector<uint64_t> expected(boxes.size(), 0);

  std::string rows_json = "[";
  double qps_single = 0.0;
  double best_qps = 0.0;
  bool all_identical = true;

  for (const int shards : {1, 2, 4, 8}) {
    const bool oversubscribed = static_cast<unsigned>(shards) > hw;
    util::ThreadPool engine_pool(shards);
    server::ShardedEngineOptions engine_options;
    engine_options.shards = shards;
    engine_options.truncate = true;
    server::ShardedEngine engine(grid, prefix, engine_options, &engine_pool);
    if (!engine.ok()) {
      std::fprintf(stderr, "FATAL: shard open failed (shards=%d)\n", shards);
      return 1;
    }
    if (!engine.Apply(ops)) {
      std::fprintf(stderr, "FATAL: load failed (shards=%d)\n", shards);
      return 1;
    }
    if (shards == 1) {
      for (size_t q = 0; q < boxes.size(); ++q) {
        expected[q] = engine.CreateView().CountBox(boxes[q]);
      }
    }

    server::ServerOptions server_options;
    server_options.worker_threads = n_clients + 4;
    server_options.max_connections = n_clients + 8;
    server_options.max_inflight = 1024;
    server::Server server(&engine, server_options);
    if (!server.Start()) {
      std::fprintf(stderr, "FATAL: server bind failed\n");
      return 1;
    }

    // ---- latency probe: strict round trips, per-request timing.
    std::vector<double> latencies_ms;
    latencies_ms.reserve(static_cast<size_t>(n_latency_probe));
    std::atomic<size_t> mismatches{0};
    {
      server::Client probe;
      server::HelloResponse hello;
      if (!probe.ConnectTcp(server.port()) || !probe.Hello(&hello)) {
        std::fprintf(stderr, "FATAL: latency probe connect failed\n");
        return 1;
      }
      for (int i = 0; i < n_latency_probe; ++i) {
        const size_t q = static_cast<size_t>(i) % boxes.size();
        uint64_t count = 0;
        const auto start = std::chrono::steady_clock::now();
        if (!probe.Count(boxes[q], &count)) {
          std::fprintf(stderr, "FATAL: COUNT failed: %s\n",
                       probe.last_error().c_str());
          return 1;
        }
        latencies_ms.push_back(MsSince(start));
        if (count != expected[q]) mismatches.fetch_add(1);
      }
      probe.Goodbye();
    }
    std::sort(latencies_ms.begin(), latencies_ms.end());
    const double p50 = Percentile(latencies_ms, 0.50);
    const double p99 = Percentile(latencies_ms, 0.99);

    // ---- throughput run: pipelined windows across client threads.
    const int per_client = std::max(1, n_queries / n_clients);
    std::vector<std::thread> threads;
    std::atomic<bool> failed{false};
    const auto wall_start = std::chrono::steady_clock::now();
    for (int c = 0; c < n_clients; ++c) {
      threads.emplace_back([&, c] {
        server::Client client;
        server::HelloResponse hello;
        if (!client.ConnectTcp(server.port()) || !client.Hello(&hello)) {
          failed.store(true);
          return;
        }
        uint32_t next_id = 1;
        int done = 0;
        while (done < per_client) {
          const int window = std::min(kWindow, per_client - done);
          for (int i = 0; i < window; ++i) {
            const size_t q =
                static_cast<size_t>(c * 977 + done + i) % boxes.size();
            server::CountRequest req;
            req.box = boxes[q];
            if (!client.Send(req.ToFrame(next_id + static_cast<uint32_t>(i)))) {
              failed.store(true);
              return;
            }
          }
          for (int i = 0; i < window; ++i) {
            server::Frame frame;
            server::CountResponse resp;
            if (!client.Recv(&frame) ||
                frame.type != server::FrameType::kCountResult ||
                frame.request_id != next_id + static_cast<uint32_t>(i) ||
                !server::CountResponse::FromPayload(frame.payload, &resp)) {
              failed.store(true);
              return;
            }
            const size_t q =
                static_cast<size_t>(c * 977 + done + i) % boxes.size();
            if (resp.count != expected[q]) mismatches.fetch_add(1);
          }
          next_id += static_cast<uint32_t>(window);
          done += window;
        }
        client.Goodbye();
      });
    }
    for (auto& t : threads) t.join();
    const double wall_ms = MsSince(wall_start);
    const uint64_t total =
        static_cast<uint64_t>(per_client) * static_cast<uint64_t>(n_clients);
    const double qps = wall_ms > 0 ? 1000.0 * static_cast<double>(total) /
                                         wall_ms
                                   : 0.0;
    if (failed.load()) {
      std::fprintf(stderr, "FATAL: throughput client failed (shards=%d)\n",
                   shards);
      return 1;
    }

    const bool identical = mismatches.load() == 0;
    all_identical = all_identical && identical;
    if (shards == 1) qps_single = qps;
    best_qps = std::max(best_qps, qps);
    const double speedup = qps_single > 0 ? qps / qps_single : 0.0;
    const bool low_scaling = shards > 1 && !oversubscribed && speedup <= 1.1;

    std::printf("shards=%-2d  qps %9.0f  p50 %7.3f ms  p99 %7.3f ms  "
                "speedup %5.2fx  %s%s%s\n",
                shards, qps, p50, p99, speedup,
                identical ? "results identical" : "RESULT MISMATCH",
                oversubscribed ? "  (oversubscribed)" : "",
                low_scaling ? "  (low scaling)" : "");

    if (rows_json.size() > 1) rows_json += ",";
    rows_json += "{\"shards\":" + std::to_string(shards) +
                 ",\"qps\":" + std::to_string(qps) +
                 ",\"p50_ms\":" + std::to_string(p50) +
                 ",\"p99_ms\":" + std::to_string(p99) +
                 ",\"speedup\":" + std::to_string(speedup) +
                 ",\"oversubscribed\":" + (oversubscribed ? "true" : "false") +
                 ",\"low_scaling\":" + (low_scaling ? "true" : "false") +
                 ",\"identical\":" + (identical ? "true" : "false") + "}";

    server.Stop();
    RemoveShardFiles(prefix, shards);
    if (!identical) return 1;
  }
  rows_json += "]";

  // Machine-scaled gate: 100k qps when the host can do it, otherwise half
  // of what this host measured. The committed baseline's floor is what
  // later runs are held to.
  const double qps_floor =
      best_qps >= 100000.0 ? 100000.0 : std::floor(best_qps * 0.5);

  const std::string payload =
      "{\"points\":" + std::to_string(n_points) +
      ",\"queries\":" + std::to_string(n_queries) +
      ",\"clients\":" + std::to_string(n_clients) +
      ",\"hardware_threads\":" + std::to_string(hw) +
      ",\"best_qps\":" + std::to_string(best_qps) +
      ",\"qps_floor\":" + std::to_string(qps_floor) +
      ",\"all_identical\":" + (all_identical ? "true" : "false") +
      ",\"shard_sweep\":" + rows_json + "}";
  if (util::UpdateJsonSection("BENCH_server.json", "server", payload)) {
    std::printf("\nwrote BENCH_server.json (section \"server\")\n");
  }
  std::printf("\nEach shard owns a contiguous z interval with its own WAL\n"
              "and buffer pool, so scatter-gathered COUNTs scale with cores\n"
              "instead of one pool's latch throughput — and the gathered\n"
              "answer stays bitwise equal to the single-engine result.\n");
  return all_identical ? 0 : 1;
}
