#include "server/session.h"

#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "geometry/box.h"
#include "server/client.h"
#include "server/server.h"
#include "server/sharded_engine.h"
#include "temp_file.h"
#include "util/thread_pool.h"
#include "workload/datagen.h"

// Session rules, enforced end to end over a socketpair (no TCP, fully
// hermetic): HELLO creates a session, queries require one, a second HELLO
// is rejected, GOODBYE ends it, idling past the server's timeout expires
// it, and admission control answers kBusy instead of queueing.

namespace probe::server {
namespace {

using geometry::GridBox;
using std::chrono::milliseconds;

constexpr zorder::GridSpec kGrid{2, 8};

// ---------------------------------------------------------- unit level

TEST(SessionManagerTest, CreateTouchCloseLifecycle) {
  SessionManager manager(milliseconds(60000));
  EXPECT_EQ(manager.active(), 0u);
  const uint64_t a = manager.Create(-1, "a");
  const uint64_t b = manager.Create(8, "b");
  EXPECT_NE(a, b);
  EXPECT_EQ(manager.active(), 2u);

  Session* session = manager.Touch(b);
  ASSERT_NE(session, nullptr);
  EXPECT_EQ(session->max_element_depth(), 8);
  EXPECT_EQ(session->client_name(), "b");

  EXPECT_TRUE(manager.Close(a));
  EXPECT_FALSE(manager.Close(a));  // already gone
  EXPECT_EQ(manager.Touch(a), nullptr);
  EXPECT_EQ(manager.active(), 1u);
}

TEST(SessionManagerTest, IdleSessionsExpire) {
  // Harness clock: the test advances `now` instead of sleeping, so expiry
  // is exact at the timeout boundary and the test is sleep-free.
  auto now = std::chrono::steady_clock::now();
  SessionManager manager(milliseconds(50));
  manager.SetClockForTest([&now] { return now; });

  const uint64_t id = manager.Create(-1, "idler");
  EXPECT_FALSE(manager.Expired(id));
  now += milliseconds(120);
  EXPECT_TRUE(manager.Expired(id));
  // Touching an expired session refuses instead of reviving it; the
  // session stays registered until closed or swept.
  EXPECT_EQ(manager.Touch(id), nullptr);
  EXPECT_EQ(manager.active(), 1u);
  EXPECT_EQ(manager.ExpireIdle(), 1u);
  EXPECT_EQ(manager.active(), 0u);

  // A session touched inside the window keeps sliding: two 40ms idles
  // never expire under a 50ms timeout, a 60ms one does.
  const uint64_t fresh = manager.Create(-1, "fresh");
  now += milliseconds(40);
  ASSERT_NE(manager.Touch(fresh), nullptr);
  now += milliseconds(40);
  EXPECT_FALSE(manager.Expired(fresh));
  EXPECT_EQ(manager.ExpireIdle(), 0u);
  now += milliseconds(60);
  EXPECT_EQ(manager.ExpireIdle(), 1u);
  EXPECT_EQ(manager.active(), 0u);
}

// ------------------------------------------------------- protocol level

class SessionProtocolTest : public ::testing::Test {
 protected:
  void StartServer(ServerOptions options) {
    tmp_ = std::make_unique<testutil::TempFile>("session_proto");
    pool_ = std::make_unique<util::ThreadPool>(4);
    ShardedEngineOptions engine_options;
    engine_options.shards = 2;
    engine_options.truncate = true;
    engine_ = std::make_unique<ShardedEngine>(kGrid, tmp_->path(),
                                              engine_options, pool_.get());
    ASSERT_TRUE(engine_->ok());

    workload::DataGenConfig config;
    config.count = 500;
    const auto points = workload::GeneratePoints(kGrid, config);
    std::vector<index::DurableIndex::Op> ops;
    for (const auto& r : points) {
      ops.push_back(index::DurableIndex::Op::Insert(r.point, r.id));
    }
    ASSERT_TRUE(engine_->Apply(ops));

    server_ = std::make_unique<Server>(engine_.get(), options);
  }

  void TearDown() override {
    if (server_ != nullptr) server_->Stop();
    RemoveShardFiles();
  }

  // Hands one socketpair end to the server, returns a client on the other.
  Client Connect() {
    int fds[2] = {-1, -1};
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    server_->ServeConnection(fds[0]);
    Client client;
    client.Adopt(fds[1]);
    return client;
  }

  void RemoveShardFiles() {
    if (tmp_ == nullptr) return;
    for (int i = 0; i < 2; ++i) {
      const std::string base = ShardedEngine::ShardPath(tmp_->path(), i);
      std::remove(base.c_str());
      std::remove((base + ".wal").c_str());
    }
  }

  std::unique_ptr<testutil::TempFile> tmp_;
  std::unique_ptr<util::ThreadPool> pool_;
  std::unique_ptr<ShardedEngine> engine_;
  std::unique_ptr<Server> server_;
};

TEST_F(SessionProtocolTest, HelloQueriesGoodbye) {
  StartServer(ServerOptions{});
  Client client = Connect();

  HelloResponse hello;
  ASSERT_TRUE(client.Hello(&hello, -1, "lifecycle-test"));
  EXPECT_NE(hello.session_id, 0u);
  EXPECT_EQ(hello.dims, 2);
  EXPECT_EQ(hello.bits_per_dim, 8);
  EXPECT_EQ(hello.shards, 2);
  EXPECT_EQ(hello.point_count, 500u);
  EXPECT_EQ(server_->sessions().active(), 1u);

  const auto box = GridBox::Make2D(10, 200, 10, 200);
  std::vector<uint64_t> ids;
  ASSERT_TRUE(client.Range(box, &ids));
  EXPECT_EQ(ids, engine_->CreateView().RangeSearch(box));

  uint64_t count = 0;
  ASSERT_TRUE(client.Count(box, &count));
  EXPECT_EQ(count, ids.size());

  ASSERT_TRUE(client.Goodbye());
  EXPECT_EQ(server_->sessions().active(), 0u);

  // The connection survives GOODBYE but queries need a new HELLO.
  EXPECT_TRUE(client.Ping());
  EXPECT_FALSE(client.Range(box, &ids));
  EXPECT_EQ(client.last_status(), Status::kNoSession);
  ASSERT_TRUE(client.Hello(&hello));
  ASSERT_TRUE(client.Range(box, &ids));
}

TEST_F(SessionProtocolTest, DoubleHelloIsRejected) {
  StartServer(ServerOptions{});
  Client client = Connect();
  HelloResponse hello;
  ASSERT_TRUE(client.Hello(&hello));
  HelloResponse again;
  EXPECT_FALSE(client.Hello(&again));
  EXPECT_EQ(client.last_status(), Status::kDoubleHello);
  // The session survives the rejected HELLO.
  EXPECT_TRUE(client.Ping());
  std::vector<uint64_t> ids;
  EXPECT_TRUE(client.Range(GridBox::Make2D(0, 50, 0, 50), &ids));
}

TEST_F(SessionProtocolTest, QueryBeforeHelloIsRejected) {
  StartServer(ServerOptions{});
  Client client = Connect();
  std::vector<uint64_t> ids;
  EXPECT_FALSE(client.Range(GridBox::Make2D(0, 50, 0, 50), &ids));
  EXPECT_EQ(client.last_status(), Status::kNoSession);
  uint64_t count = 0;
  EXPECT_FALSE(client.Count(GridBox::Make2D(0, 50, 0, 50), &count));
  EXPECT_EQ(client.last_status(), Status::kNoSession);
}

TEST_F(SessionProtocolTest, IdleSessionExpiresAndConnectionCloses) {
  ServerOptions options;
  options.idle_timeout = milliseconds(100);
  StartServer(options);

  // Harness clock: real time plus a test-controlled offset. Advancing the
  // offset leaps the session past its idle timeout with no real sleeping
  // (the offset is atomic because handler threads read the clock
  // concurrently).
  auto offset = std::make_shared<std::atomic<int64_t>>(0);
  server_->sessions().SetClockForTest([offset] {
    return std::chrono::steady_clock::now() + milliseconds(offset->load());
  });

  Client client = Connect();
  HelloResponse hello;
  ASSERT_TRUE(client.Hello(&hello));
  EXPECT_EQ(server_->sessions().active(), 1u);

  offset->store(250);  // idle for "250ms" against a 100ms timeout

  // The next query finds the session expired — deterministically via the
  // lookup itself, or via the server's idle tick if that raced ahead and
  // closed the connection first.
  std::vector<uint64_t> ids;
  EXPECT_FALSE(client.Range(GridBox::Make2D(0, 50, 0, 50), &ids));
  EXPECT_TRUE(client.last_status() == Status::kSessionExpired ||
              client.last_status() == Status::kIoError)
      << StatusName(client.last_status());
  EXPECT_EQ(server_->sessions().active(), 0u);
}

TEST_F(SessionProtocolTest, SessionDepthCapAppliesToQueries) {
  StartServer(ServerOptions{});
  Client capped = Connect();
  HelloResponse hello;
  ASSERT_TRUE(capped.Hello(&hello, /*max_element_depth=*/6));

  // Depth-capped search with verification stays exact: same answers.
  const auto box = GridBox::Make2D(30, 220, 10, 190);
  std::vector<uint64_t> ids;
  ASSERT_TRUE(capped.Range(box, &ids));
  EXPECT_EQ(ids, engine_->CreateView().RangeSearch(box));
  uint64_t count = 0;
  ASSERT_TRUE(capped.Count(box, &count));
  EXPECT_EQ(count, engine_->CreateView().CountBox(box));
}

TEST_F(SessionProtocolTest, ConnectionsBeyondMaxAreRefusedBusy) {
  ServerOptions options;
  options.max_connections = 1;
  options.worker_threads = 4;
  StartServer(options);

  Client first = Connect();
  HelloResponse hello;
  ASSERT_TRUE(first.Hello(&hello));

  // The second connection is answered kBusy at the door and closed.
  Client second = Connect();
  HelloResponse refused;
  EXPECT_FALSE(second.Hello(&refused));
  EXPECT_EQ(second.last_status(), Status::kBusy);
  EXPECT_GE(server_->counters().busy, 1u);

  // Once the first hangs up, a new connection is admitted.
  ASSERT_TRUE(first.Goodbye());
  first.Close();
  // Give the handler a moment to notice the close and release the slot.
  for (int i = 0; i < 100; ++i) {
    if (server_->counters().connections >= 2) break;
    std::this_thread::sleep_for(milliseconds(10));
  }
  // A refused connection surfaces as kBusy (the refusal frame was read) or
  // as an I/O error (the send raced the server's close); both mean retry.
  Client third = Connect();
  for (int i = 0; i < 100; ++i) {
    HelloResponse ok;
    if (third.Hello(&ok)) return;
    if (third.last_status() != Status::kBusy &&
        third.last_status() != Status::kIoError) {
      break;
    }
    third.Close();
    std::this_thread::sleep_for(milliseconds(10));
    third = Connect();
  }
  FAIL() << "connection never admitted after slot freed: "
         << StatusName(third.last_status());
}

TEST_F(SessionProtocolTest, ZeroInflightBudgetAnswersBusyPerQuery) {
  ServerOptions options;
  options.max_inflight = 0;
  StartServer(options);
  Client client = Connect();
  HelloResponse hello;
  ASSERT_TRUE(client.Hello(&hello));  // HELLO is not a query
  std::vector<uint64_t> ids;
  EXPECT_FALSE(client.Range(GridBox::Make2D(0, 50, 0, 50), &ids));
  EXPECT_EQ(client.last_status(), Status::kBusy);
  // The connection stays usable; admission is per-request.
  EXPECT_TRUE(client.Ping());
}

TEST_F(SessionProtocolTest, InvalidQueryPayloadIsRejectedNotCrashed) {
  StartServer(ServerOptions{});
  Client client = Connect();
  HelloResponse hello;
  ASSERT_TRUE(client.Hello(&hello));

  // A box off the engine's grid (hi >= 2^8) is kBadPayload.
  std::vector<uint64_t> ids;
  EXPECT_FALSE(client.Range(GridBox::Make2D(0, 300, 0, 300), &ids));
  EXPECT_EQ(client.last_status(), Status::kBadPayload);

  // A 3-d box against a 2-d engine likewise.
  const zorder::DimRange ranges3[] = {{0, 1}, {0, 1}, {0, 1}};
  EXPECT_FALSE(client.Range(
      GridBox(std::span<const zorder::DimRange>(ranges3, 3)), &ids));
  EXPECT_EQ(client.last_status(), Status::kBadPayload);

  // The session survives rejected queries.
  EXPECT_TRUE(client.Range(GridBox::Make2D(0, 255, 0, 255), &ids));
}

}  // namespace
}  // namespace probe::server
