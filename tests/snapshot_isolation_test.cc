// Snapshot isolation under writer storms: a reader that pins an epoch E
// must see, for RANGE / BOX / COUNT / k-NN, exactly what a serial replay
// of batches 1..E answers — bitwise, same ids in the same order — no
// matter how many batches writers land while the reader runs. Covered for
// a single DurableIndex (bitwise vs a replay engine), a multi-writer
// storm (exact prefix sizes + containment), and a ShardedEngine View
// (per-shard epochs each a prefix of that shard's sub-batch sequence).
// The engine-held view is covered too: one warm view per epoch, replaced
// (and unpinned) on publish, and never a hang when a checkpoint races
// the snapshots that would re-cache it.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "geometry/box.h"
#include "index/durable_index.h"
#include "index/nearest.h"
#include "server/sharded_engine.h"
#include "temp_file.h"
#include "util/mutex.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace probe {
namespace {

using geometry::GridBox;
using geometry::GridPoint;
using index::DurableIndex;
using probe::util::Rng;
using Op = index::DurableIndex::Op;

constexpr zorder::GridSpec kGrid{2, 8};
constexpr uint32_t kSide = 256;
constexpr int kBatches = 24;
constexpr int kInsertsPerBatch = 16;

const GridBox FullBox() { return GridBox::Make2D(0, kSide - 1, 0, kSide - 1); }
const GridBox SubBox() { return GridBox::Make2D(40, 180, 60, 220); }
const GridPoint KnnCenter() { return GridPoint({128, 128}); }
constexpr size_t kKnnK = 8;

// The deterministic batch script both the replay oracle and the storm
// writer run: mostly inserts, with a delete of an older point every few
// batches so prefixes are not monotone sets.
std::vector<std::vector<Op>> BuildScript() {
  Rng rng(0x150D47E5);
  std::vector<std::vector<Op>> script;
  std::vector<std::pair<GridPoint, uint64_t>> live;
  uint64_t next_id = 1;
  for (int b = 0; b < kBatches; ++b) {
    std::vector<Op> batch;
    for (int i = 0; i < kInsertsPerBatch; ++i) {
      const GridPoint p({static_cast<uint32_t>(rng.Next() % kSide),
                         static_cast<uint32_t>(rng.Next() % kSide)});
      batch.push_back(Op::Insert(p, next_id));
      live.emplace_back(p, next_id);
      ++next_id;
    }
    if (b >= 2 && b % 3 == 0) {
      const size_t victim = rng.Next() % (live.size() - kInsertsPerBatch);
      batch.push_back(Op::Delete(live[victim].first, live[victim].second));
      live.erase(live.begin() + static_cast<ptrdiff_t>(victim));
    }
    script.push_back(std::move(batch));
  }
  return script;
}

// The serially-replayed answers after batches 1..k.
struct PrefixAnswers {
  std::vector<uint64_t> range;
  std::vector<uint64_t> box;
  uint64_t count = 0;
  std::vector<index::Neighbor> knn;
};

PrefixAnswers Answers(const index::ZkdIndex& index) {
  PrefixAnswers a;
  a.range = index.RangeSearch(FullBox());
  a.box = index.RangeSearch(SubBox());
  a.count = index.CountBox(SubBox());
  a.knn = index::KNearest(index, KnnCenter(), kKnnK);
  return a;
}

void ExpectBitwiseEqual(const PrefixAnswers& got, const PrefixAnswers& want,
                        uint64_t epoch) {
  EXPECT_EQ(got.range, want.range) << "RANGE diverges at epoch " << epoch;
  EXPECT_EQ(got.box, want.box) << "BOX diverges at epoch " << epoch;
  EXPECT_EQ(got.count, want.count) << "COUNT diverges at epoch " << epoch;
  ASSERT_EQ(got.knn.size(), want.knn.size())
      << "KNN diverges at epoch " << epoch;
  for (size_t i = 0; i < got.knn.size(); ++i) {
    EXPECT_EQ(got.knn[i].id, want.knn[i].id) << "epoch " << epoch;
    EXPECT_EQ(got.knn[i].distance2, want.knn[i].distance2)
        << "epoch " << epoch;
  }
}

// A writer lands the script while readers pin snapshots mid-flight; every
// snapshot must answer bitwise-identically to the serial replay of its
// epoch prefix, precomputed on a second engine.
TEST(SnapshotIsolationTest, ReadersSeeSerialReplayPrefixes) {
  const auto script = BuildScript();

  // Replay the script serially, recording the answers after each prefix.
  // oracle[k] = answers as of epoch k + 1 (epoch 1 is the empty commit).
  std::vector<PrefixAnswers> oracle;
  {
    testutil::TempFile replay_file("snap_iso_replay");
    DurableIndex::Options options;
    options.truncate = true;
    DurableIndex replay(kGrid, replay_file.path(), options);
    ASSERT_TRUE(replay.ok());
    oracle.push_back(Answers(replay.index()));
    for (const auto& batch : script) {
      ASSERT_TRUE(replay.Apply(batch));
      oracle.push_back(Answers(replay.index()));
    }
  }

  testutil::TempFile tmp("snap_iso_live");
  DurableIndex::Options options;
  options.truncate = true;
  DurableIndex db(kGrid, tmp.path(), options);
  ASSERT_TRUE(db.ok());
  ASSERT_EQ(db.published_epoch(), 1u);

  std::atomic<bool> writer_done{false};
  std::thread writer([&db, &script, &writer_done] {
    for (const auto& batch : script) {
      ASSERT_TRUE(db.Apply(batch));
    }
    writer_done.store(true);
  });

  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&db, &oracle, &writer_done] {
      uint64_t newest = 0;
      do {
        DurableIndex::Snapshot snap = db.CreateSnapshot();
        ASSERT_TRUE(snap.ok());
        const uint64_t epoch = snap.epoch();
        ASSERT_GE(epoch, 1u);
        ASSERT_LE(epoch, 1u + static_cast<uint64_t>(kBatches));
        ExpectBitwiseEqual(Answers(snap.index()), oracle[epoch - 1], epoch);
        newest = std::max(newest, epoch);
      } while (!writer_done.load());
      EXPECT_GE(newest, 1u);
    });
  }
  writer.join();
  for (auto& r : readers) r.join();

  // Quiescent: the final snapshot is the full replay.
  DurableIndex::Snapshot final_snap = db.CreateSnapshot();
  ASSERT_TRUE(final_snap.ok());
  EXPECT_EQ(final_snap.epoch(), 1u + static_cast<uint64_t>(kBatches));
  ExpectBitwiseEqual(Answers(final_snap.index()), oracle.back(),
                     final_snap.epoch());
}

// Three writers race same-sized insert batches (thread-unique id spaces)
// while readers pin snapshots. A pinned epoch E fixes the point count
// exactly — (E - 1) * kPerBatch — and must contain every batch whose
// commit the reader observed before pinning.
TEST(SnapshotIsolationTest, WriterStormPinsExactPrefixes) {
  constexpr int kWriters = 3;
  constexpr int kBatchesPerWriter = 10;
  constexpr int kPerBatch = 8;
  testutil::TempFile tmp("snap_iso_storm");
  DurableIndex::Options options;
  options.truncate = true;
  DurableIndex db(kGrid, tmp.path(), options);
  ASSERT_TRUE(db.ok());

  util::Mutex log_mutex;
  std::map<uint64_t, std::vector<uint64_t>> commit_log;  // epoch -> ids

  std::atomic<int> writers_left{kWriters};
  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&db, &log_mutex, &commit_log, &writers_left, w] {
      for (int b = 0; b < kBatchesPerWriter; ++b) {
        std::vector<Op> batch;
        std::vector<uint64_t> ids;
        for (int i = 0; i < kPerBatch; ++i) {
          const uint64_t id = static_cast<uint64_t>(w) * 100000 +
                              static_cast<uint64_t>(b) * 100 +
                              static_cast<uint64_t>(i) + 1;
          batch.push_back(Op::Insert(
              GridPoint({static_cast<uint32_t>((id * 53) % kSide),
                         static_cast<uint32_t>((id * 17) % kSide)}),
              id));
          ids.push_back(id);
        }
        uint64_t epoch = 0;
        ASSERT_TRUE(db.Apply(batch, &epoch));
        util::MutexLock lock(&log_mutex);
        commit_log.emplace(epoch, std::move(ids));
      }
      writers_left.fetch_sub(1);
    });
  }

  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&db, &log_mutex, &commit_log, &writers_left] {
      do {
        // Copy the log *before* pinning: every epoch recorded here is
        // published, so a snapshot pinned afterwards must include it.
        std::map<uint64_t, std::vector<uint64_t>> seen;
        {
          util::MutexLock lock(&log_mutex);
          seen = commit_log;
        }
        DurableIndex::Snapshot snap = db.CreateSnapshot();
        ASSERT_TRUE(snap.ok());
        const uint64_t epoch = snap.epoch();
        auto got = snap.index().RangeSearch(FullBox());
        // Exact size: every batch is the same size and epochs are dense.
        EXPECT_EQ(got.size(), (epoch - 1) * kPerBatch);
        std::set<uint64_t> got_set(got.begin(), got.end());
        for (const auto& [e, ids] : seen) {
          if (e > epoch) continue;
          for (uint64_t id : ids) {
            EXPECT_TRUE(got_set.count(id))
                << "epoch " << epoch << " is missing id " << id
                << " committed at epoch " << e;
          }
        }
      } while (writers_left.load() > 0);
    });
  }
  for (auto& t : threads) t.join();
  for (auto& r : readers) r.join();

  EXPECT_EQ(db.published_epoch(),
            1u + static_cast<uint64_t>(kWriters * kBatchesPerWriter));
  EXPECT_EQ(db.published_size(),
            static_cast<uint64_t>(kWriters * kBatchesPerWriter * kPerBatch));
}

// Sharded: a View pins one epoch per shard, and each pinned epoch is a
// prefix of that shard's sub-batch sequence — so the View's answer set is
// exactly the union of those per-shard prefixes, and COUNT agrees.
TEST(SnapshotIsolationTest, ShardedViewsPinPerShardPrefixes) {
  constexpr int kShards = 4;
  const auto script = BuildScript();

  testutil::TempFile tmp("snap_iso_sharded");
  // TempFile cleans only its own path; scrub the per-shard files.
  struct ShardScrub {
    std::string prefix;
    int shards;
    ~ShardScrub() {
      for (int i = 0; i < shards; ++i) {
        const std::string base =
            server::ShardedEngine::ShardPath(prefix, i);
        std::remove(base.c_str());
        std::remove((base + ".wal").c_str());
        std::remove((base + ".wal.tmp").c_str());
      }
    }
  } scrub{tmp.path(), kShards};

  util::ThreadPool pool(3);
  server::ShardedEngineOptions options;
  options.shards = kShards;
  options.truncate = true;
  server::ShardedEngine engine(kGrid, tmp.path(), options, &pool);
  ASSERT_TRUE(engine.ok());

  // Route the script the way Apply will: shard_script[s] is the sequence
  // of id-sets shard s commits, one entry per batch that touches it.
  std::vector<std::vector<std::set<uint64_t>>> shard_script(kShards);
  {
    std::vector<std::set<uint64_t>> live(kShards);
    for (const auto& batch : script) {
      std::vector<std::set<uint64_t>> touched(kShards);
      std::vector<bool> involved(kShards, false);
      for (const Op& op : batch) {
        const int s = engine.ShardOf(engine.ZOf(op.point));
        involved[static_cast<size_t>(s)] = true;
        if (op.kind == Op::Kind::kInsert) {
          live[static_cast<size_t>(s)].insert(op.id);
        } else {
          live[static_cast<size_t>(s)].erase(op.id);
        }
      }
      for (int s = 0; s < kShards; ++s) {
        if (involved[static_cast<size_t>(s)]) {
          shard_script[static_cast<size_t>(s)].push_back(
              live[static_cast<size_t>(s)]);
        }
      }
    }
  }

  std::atomic<bool> writer_done{false};
  std::thread writer([&engine, &script, &writer_done] {
    for (const auto& batch : script) {
      ASSERT_TRUE(engine.Apply(batch));
    }
    writer_done.store(true);
  });

  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&engine, &shard_script, &writer_done] {
      do {
        server::ShardedEngine::View view = engine.CreateView();
        ASSERT_TRUE(view.ok());
        std::set<uint64_t> expected;
        for (int s = 0; s < kShards; ++s) {
          const uint64_t epoch = view.epoch(s);
          ASSERT_GE(epoch, 1u);
          // Shard s at epoch E holds exactly its first E - 1 sub-batches.
          const size_t prefix = static_cast<size_t>(epoch - 1);
          const auto& commits = shard_script[static_cast<size_t>(s)];
          ASSERT_LE(prefix, commits.size()) << "shard " << s;
          if (prefix > 0) {
            expected.insert(commits[prefix - 1].begin(),
                            commits[prefix - 1].end());
          }
        }
        auto got = view.RangeSearch(FullBox());
        std::set<uint64_t> got_set(got.begin(), got.end());
        EXPECT_EQ(got_set, expected);
        EXPECT_EQ(got.size(), got_set.size()) << "duplicate ids in a View";
        EXPECT_EQ(view.CountBox(FullBox()), got.size());
        EXPECT_EQ(view.size(), got.size());
      } while (!writer_done.load());
    });
  }
  writer.join();
  for (auto& r : readers) r.join();

  // Quiescent: a fresh View holds every shard's full sub-batch sequence
  // and the engine-level queries agree with it.
  server::ShardedEngine::View final_view = engine.CreateView();
  std::set<uint64_t> all;
  for (int s = 0; s < kShards; ++s) {
    const auto& commits = shard_script[static_cast<size_t>(s)];
    EXPECT_EQ(final_view.epoch(s), 1u + commits.size()) << "shard " << s;
    if (!commits.empty()) {
      all.insert(commits.back().begin(), commits.back().end());
    }
  }
  auto got = final_view.RangeSearch(FullBox());
  EXPECT_EQ(std::set<uint64_t>(got.begin(), got.end()), all);
  EXPECT_EQ(engine.CreateView().RangeSearch(FullBox()), got);
  EXPECT_EQ(engine.size(), got.size());
}

// ------------------------------------------------ the engine-held view

std::vector<Op> InsertBatch(uint64_t first_id, int n) {
  std::vector<Op> batch;
  for (int i = 0; i < n; ++i) {
    const uint64_t id = first_id + static_cast<uint64_t>(i);
    batch.push_back(Op::Insert(
        GridPoint({static_cast<uint32_t>((id * 37) % kSide),
                   static_cast<uint32_t>((id * 91) % kSide)}),
        id));
  }
  return batch;
}

TEST(SnapshotViewTest, SnapshotsOfOneEpochShareOneWarmView) {
  testutil::TempFile file("snap_view_share");
  DurableIndex::Options options;
  options.truncate = true;
  DurableIndex db(kGrid, file.path(), options);
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE(db.Apply(InsertBatch(1, 200)));

  const index::ZkdIndex* view = nullptr;
  {
    const DurableIndex::Snapshot a = db.CreateSnapshot();
    const DurableIndex::Snapshot b = db.CreateSnapshot();
    ASSERT_TRUE(a.ok());
    EXPECT_EQ(&a.index(), &b.index()) << "concurrent readers of one epoch";
    EXPECT_EQ(a.index().CountBox(FullBox()), 200u);
    view = &a.index();
  }
  // No reader holds the view now; the next one of the same epoch still
  // gets it, pool warm: answering again reads no page.
  const uint64_t reads = db.txn_pager().stats().reads;
  const DurableIndex::Snapshot c = db.CreateSnapshot();
  EXPECT_EQ(&c.index(), view) << "consecutive readers of one epoch";
  EXPECT_EQ(c.index().CountBox(FullBox()), 200u);
  EXPECT_EQ(db.txn_pager().stats().reads, reads);
}

TEST(SnapshotViewTest, ApplyReplacesTheViewAndUnpinsTheOldOne) {
  testutil::TempFile file("snap_view_replace");
  DurableIndex::Options options;
  options.truncate = true;
  DurableIndex db(kGrid, file.path(), options);
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE(db.Apply(InsertBatch(1, 100)));

  DurableIndex::Snapshot old_snap = db.CreateSnapshot();
  const uint64_t old_epoch = old_snap.epoch();
  ASSERT_TRUE(db.Apply(InsertBatch(101, 100)));
  {
    const DurableIndex::Snapshot new_snap = db.CreateSnapshot();
    EXPECT_EQ(new_snap.epoch(), old_epoch + 1);
    EXPECT_NE(&new_snap.index(), &old_snap.index());
    EXPECT_EQ(new_snap.index().CountBox(FullBox()), 200u);
    // The old view still answers as of its own epoch while held...
    EXPECT_EQ(old_snap.index().CountBox(FullBox()), 100u);
    EXPECT_GT(db.txn_pager().pending_versions(),
              db.txn_pager().pending_pages());
    // ...and once its last reader lets go, nothing pins the old epoch: the
    // superseded page versions are gone.
    old_snap = DurableIndex::Snapshot();
    EXPECT_EQ(db.txn_pager().pending_versions(),
              db.txn_pager().pending_pages());
  }

  // No reader holds anything now, but the index still holds the view of
  // the published epoch; the next publish drops it, unpinning that epoch.
  ASSERT_TRUE(db.Apply(InsertBatch(201, 100)));
  EXPECT_EQ(db.txn_pager().pending_versions(), db.txn_pager().pending_pages());
  EXPECT_EQ(db.CreateSnapshot().index().CountBox(FullBox()), 300u);
}

TEST(SnapshotViewTest, CheckpointRacingSnapshotsNeverHangs) {
  testutil::TempFile file("snap_view_checkpoint");
  DurableIndex::Options options;
  options.truncate = true;
  DurableIndex db(kGrid, file.path(), options);
  ASSERT_TRUE(db.ok());
  constexpr int kRounds = 40;
  constexpr int kBatch = 8;

  std::atomic<bool> done{false};
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&db, &done] {
      while (!done.load()) {
        const DurableIndex::Snapshot snap = db.CreateSnapshot();
        ASSERT_TRUE(snap.ok());
        // Epoch 1 is the empty tree; each later epoch adds one batch.
        EXPECT_EQ(snap.index().CountBox(FullBox()),
                  (snap.epoch() - 1) * kBatch);
      }
    });
  }
  for (int round = 0; round < kRounds; ++round) {
    ASSERT_TRUE(db.Apply(
        InsertBatch(1 + static_cast<uint64_t>(round) * kBatch, kBatch)));
    ASSERT_TRUE(db.Checkpoint());
  }
  done.store(true);
  for (auto& r : readers) r.join();
  EXPECT_EQ(db.CreateSnapshot().index().CountBox(FullBox()),
            static_cast<uint64_t>(kRounds) * kBatch);
}

}  // namespace
}  // namespace probe
