// The spatial query server, end to end in one process.
//
// Boots a 4-shard engine (each shard: own database file, own WAL, own
// buffer pool over a contiguous z interval), loads clustered points,
// starts the TCP server on an ephemeral port, and then talks to it the
// way a real client would:
//   1. HELLO — open a session, learn the grid and shard layout,
//   2. RANGE / COUNT / KNN — query over the wire, checking the answers
//      against direct in-process calls (they are bitwise identical),
//   3. EXPLAIN — the scatter-gather routing and per-shard plans,
//   4. GET /metrics — the same listener answers HTTP for curl/Prometheus,
//   5. GOODBYE and a graceful Stop().
//
// Run with an argument to serve instead of demo:  server 4850  binds
// 127.0.0.1:4850 and blocks until stdin closes, so you can poke it with
// the client library or curl http://127.0.0.1:4850/metrics.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "geometry/box.h"
#include "index/durable_index.h"
#include "server/client.h"
#include "server/server.h"
#include "server/sharded_engine.h"
#include "util/thread_pool.h"
#include "workload/datagen.h"

namespace {

// One blocking HTTP exchange against 127.0.0.1:port.
std::string HttpGet(int port, const std::string& request) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return {};
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    ::close(fd);
    return {};
  }
  ::send(fd, request.data(), request.size(), 0);
  std::string response;
  char chunk[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) break;
    response.append(chunk, static_cast<size_t>(n));
  }
  ::close(fd);
  return response;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace probe;

  const zorder::GridSpec grid{/*dims=*/2, /*bits_per_dim=*/10};
  const std::string prefix =
      "/tmp/probe_server_example_" + std::to_string(::getpid());

  // ---- the engine: 4 shards over the range-partitioned z space.
  util::ThreadPool pool(4);
  server::ShardedEngineOptions engine_options;
  engine_options.shards = 4;
  engine_options.truncate = true;
  server::ShardedEngine engine(grid, prefix, engine_options, &pool);
  if (!engine.ok()) {
    std::printf("failed to open shards at %s\n", prefix.c_str());
    return 1;
  }

  workload::DataGenConfig data;
  data.count = 20000;
  data.distribution = workload::Distribution::kClustered;
  data.seed = 3;
  const auto points = workload::GeneratePoints(grid, data);
  std::vector<index::DurableIndex::Op> ops;
  for (const auto& r : points) {
    ops.push_back(index::DurableIndex::Op::Insert(r.point, r.id));
  }
  if (!engine.Apply(ops)) {
    std::printf("load failed\n");
    return 1;
  }

  // ---- the server. Port 0 = ephemeral; an argument pins it.
  server::ServerOptions options;
  options.port = argc > 1 ? std::atoi(argv[1]) : 0;
  server::Server server(&engine, options);
  if (!server.Start()) {
    std::printf("bind failed on port %d\n", options.port);
    return 1;
  }
  std::printf("serving %llu points on 4 shards at 127.0.0.1:%d\n\n",
              static_cast<unsigned long long>(engine.size()), server.port());

  if (argc > 1) {
    // Serve mode: block until stdin closes (^D or pipe end).
    std::printf("serve mode — try:\n"
                "  curl http://127.0.0.1:%d/metrics\n"
                "  curl http://127.0.0.1:%d/healthz\n"
                "press ^D to stop.\n",
                server.port(), server.port());
    char buf[256];
    while (::read(STDIN_FILENO, buf, sizeof(buf)) > 0) {
    }
    server.Stop();
    return 0;
  }

  // ---- a client session over real TCP.
  server::Client client;
  server::HelloResponse hello;
  if (!client.ConnectTcp(server.port()) || !client.Hello(&hello)) {
    std::printf("client connect failed\n");
    return 1;
  }
  std::printf("HELLO: session %llu, %u-d grid of 2^%u per dim, %d shards, "
              "%llu points\n",
              static_cast<unsigned long long>(hello.session_id), hello.dims,
              hello.bits_per_dim, hello.shards,
              static_cast<unsigned long long>(hello.point_count));

  const auto box = geometry::GridBox::Make2D(200, 420, 380, 600);
  std::vector<uint64_t> ids;
  uint64_t count = 0;
  if (!client.Range(box, &ids) || !client.Count(box, &count)) {
    std::printf("query failed: %s\n", client.last_error().c_str());
    return 1;
  }
  const bool same = ids == engine.CreateView().RangeSearch(box) &&
                    count == engine.CreateView().CountBox(box);
  std::printf("RANGE %s -> %zu ids; COUNT -> %llu  (%s in-process answer)\n",
              box.ToString().c_str(), ids.size(),
              static_cast<unsigned long long>(count),
              same ? "bitwise equal to" : "MISMATCH vs");

  std::vector<index::Neighbor> neighbors;
  if (client.Knn(geometry::GridPoint({512, 512}), 5, &neighbors)) {
    std::printf("KNN(512,512) k=5 ->");
    for (const auto& n : neighbors) {
      std::printf(" id %llu (d2=%llu)",
                  static_cast<unsigned long long>(n.id),
                  static_cast<unsigned long long>(n.distance2));
    }
    std::printf("\n");
  }

  std::string explain;
  if (client.Explain(box, /*count=*/false, &explain)) {
    std::printf("\nEXPLAIN over the wire:\n%s\n", explain.c_str());
  }

  // ---- the same listener answers HTTP.
  const std::string health = HttpGet(server.port(), "GET /healthz HTTP/1.0\r\n\r\n");
  const auto body = health.find("\r\n\r\n");
  std::printf("GET /healthz -> %s\n",
              body == std::string::npos ? "(no response)"
                                        : health.substr(body + 4).c_str());
  const std::string metrics =
      HttpGet(server.port(), "GET /metrics HTTP/1.0\r\n\r\n");
  std::printf("GET /metrics -> %zu bytes of Prometheus exposition\n",
              metrics.size());

  client.Goodbye();
  client.Close();
  const bool drained = server.Stop();
  std::printf("\ngraceful stop: %s\n",
              drained ? "all handlers drained" : "deadline hit");

  for (int i = 0; i < 4; ++i) {
    const std::string base = server::ShardedEngine::ShardPath(prefix, i);
    std::remove(base.c_str());
    std::remove((base + ".wal").c_str());
  }
  return same ? 0 : 1;
}
