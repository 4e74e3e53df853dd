// Shard-parallel write-path stress: many threads hammer disjoint and
// overlapping shards of the striped PlogStore and KvStore while
// store-wide operations (FlushAll, Scan, stats) sweep the stripes.
// Designed for the TSan preset (cmake --preset tsan); carries the
// `stress` ctest label. Also asserts that the lock-order graph observed
// under full stripe contention stays acyclic — the striped sub-rank rule
// must not introduce a cycle through the class-level lock names.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "common/hash.h"
#include "common/mutex.h"
#include "kv/kv_store.h"
#include "storage/plog_store.h"

namespace streamlake {
namespace {

TEST(ShardParallelTest, PlogStoreStripedMixedWorkload) {
  sim::SimClock clock;
  storage::StoragePool pool{"ssd", sim::MediaType::kNvmeSsd, &clock};
  pool.AddCluster(3, 2, 256 << 20);
  storage::PlogStoreConfig config;
  config.num_shards = 32;
  config.num_stripes = 8;  // 4 shards per stripe: intra-stripe contention
  config.plog.capacity = 1 << 20;
  config.plog.stripe_unit = 4096;
  config.plog.redundancy = storage::RedundancyConfig::Replication(3);
  storage::PlogStore store(&pool, config, &clock);

  constexpr int kThreads = 8;
  constexpr int kOpsEach = 150;
  std::atomic<bool> stop{false};
  std::atomic<int> flushes{0};

  // One sweeper runs store-wide operations concurrently with the
  // per-shard traffic: they lock stripes one at a time, never
  // stop-the-world, so they must neither deadlock nor starve.
  std::thread sweeper([&] {
    while (!stop.load(std::memory_order_acquire)) {
      ASSERT_TRUE(store.FlushAll().ok());
      flushes.fetch_add(1, std::memory_order_relaxed);
      (void)store.TotalLiveBytes();
      (void)store.TotalPlogs();
      store.ForEachPlog([](uint32_t, uint32_t, storage::Plog*) {});
      std::this_thread::yield();
    }
  });

  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      std::vector<std::pair<storage::PlogAddress, std::string>> mine;
      for (int i = 0; i < kOpsEach; ++i) {
        // Mix of a thread-private shard (disjoint: never contends) and a
        // shared shard (all threads: max intra-stripe contention).
        uint32_t shard = (i % 3 == 0) ? 0u
                                      : static_cast<uint32_t>(
                                            t * 4 % config.num_shards);
        std::string payload =
            "t" + std::to_string(t) + "-i" + std::to_string(i);
        auto addr = store.Append(shard, ByteView(payload));
        ASSERT_TRUE(addr.ok()) << addr.status().ToString();
        mine.emplace_back(*addr, payload);
        // Read back a random earlier record of this thread.
        const auto& [raddr, rpayload] = mine[i % mine.size()];
        auto read = store.Read(raddr);
        ASSERT_TRUE(read.ok()) << read.status().ToString();
        EXPECT_EQ(BytesToString(*read), rpayload);
        // Retire every fourth record.
        if (i % 4 == 3) {
          const auto& [gaddr, gpayload] = mine[mine.size() - 2];
          ASSERT_TRUE(store.MarkGarbage(gaddr, gpayload.size()).ok());
        }
      }
    });
  }
  for (auto& t : workers) t.join();
  stop.store(true, std::memory_order_release);
  sweeper.join();

  EXPECT_GT(flushes.load(), 0);
  EXPECT_EQ(store.num_stripes(), 8u);

#if SL_LOCK_ORDER_CHECK
  std::string cycle;
  EXPECT_TRUE(lock_order::GraphIsAcyclic(&cycle)) << cycle;
#endif
}

TEST(ShardParallelTest, KvStoreStripedWritersReadersAndScans) {
  kv::KvStore store;
  // Pair batches put one counter into "pair/a" and "pair/b", which live on
  // different stripes: a scan that released one stripe before locking the
  // next could see half of a batch. The fillers spread over every stripe
  // so such a scan has work to do between the two.
  ASSERT_NE(Hash64(ByteView("pair/a")) % kv::KvStore::kStripes,
            Hash64(ByteView("pair/b")) % kv::KvStore::kStripes);
  constexpr size_t kFillers = 256;
  for (size_t i = 0; i < kFillers; ++i) {
    ASSERT_TRUE(store.Put("pair/f" + std::to_string(i), "filler").ok());
  }
  auto commit_pair = [&store](const std::string& counter) {
    kv::WriteBatch pair;
    pair.Put("pair/a", counter);
    pair.Put("pair/b", counter);
    return store.Write(pair);
  };
  ASSERT_TRUE(commit_pair("start").ok());

  constexpr int kWriters = 4;
  constexpr int kOpsEach = 200;
  constexpr int kPairScans = 200;
  std::atomic<bool> stop{false};
  std::atomic<int> pair_commits{0};
  std::atomic<bool> pair_scans_done{false};
  std::vector<std::thread> threads;
  threads.reserve(kWriters + 3);

  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      for (int i = 0; i < kOpsEach; ++i) {
        // Multi-key batches span stripes: commit takes several stripe
        // locks in ascending order, racing the other writers' batches.
        kv::WriteBatch batch;
        batch.Put("shared/" + std::to_string(i % 17), std::to_string(w));
        batch.Put("w" + std::to_string(w) + "/" + std::to_string(i),
                  std::string(32, 'v'));
        if (i % 5 == 4) {
          batch.Delete("w" + std::to_string(w) + "/" +
                       std::to_string(i - 4));
        }
        ASSERT_TRUE(store.Write(batch).ok());
      }
      // Pair batches race the pair scanner for as long as it runs.
      for (int i = 0; !pair_scans_done.load(std::memory_order_acquire); ++i) {
        ASSERT_TRUE(
            commit_pair(std::to_string(w) + "/" + std::to_string(i)).ok());
        pair_commits.fetch_add(1, std::memory_order_release);
      }
    });
  }
  // Scanners: merged cross-stripe prefix reads while writes land.
  threads.emplace_back([&] {
    while (!stop.load(std::memory_order_acquire)) {
      auto rows = store.Scan("shared/", 64);
      // Scan output must be sorted despite per-stripe collection.
      for (size_t i = 1; i < rows.size(); ++i) {
        ASSERT_LT(rows[i - 1].first, rows[i].first);
      }
      std::this_thread::yield();
    }
  });
  std::atomic<int> torn_scans{0};
  std::atomic<int> raced_scans{0};
  threads.emplace_back([&] {
    // Start once a writer is in its pair loop: it stays there until the
    // last scan, so every scan below races pair batches.
    while (pair_commits.load(std::memory_order_acquire) == 0) {
      std::this_thread::yield();
    }
    for (int n = 0; n < kPairScans; ++n) {
      // "pair/a" and "pair/b" sort first; each batch is seen whole.
      auto rows = store.Scan("pair/");
      if (rows.size() != kFillers + 2 || rows[0].second != rows[1].second) {
        torn_scans.fetch_add(1);
      }
      if (!rows.empty() && rows[0].second != "start") raced_scans.fetch_add(1);
    }
    pair_scans_done.store(true, std::memory_order_release);
  });
  // Point reader on the hot shared keys.
  threads.emplace_back([&] {
    while (!stop.load(std::memory_order_acquire)) {
      for (int i = 0; i < 17; ++i) {
        auto value = store.Get("shared/" + std::to_string(i));
        if (value.ok()) {
          EXPECT_FALSE(value->empty());
        }
      }
      std::this_thread::yield();
    }
  });

  for (int w = 0; w < kWriters; ++w) threads[w].join();
  stop.store(true, std::memory_order_release);
  for (size_t i = kWriters; i < threads.size(); ++i) threads[i].join();
  EXPECT_EQ(torn_scans.load(), 0) << "of " << kPairScans << " pair scans";
  EXPECT_EQ(raced_scans.load(), kPairScans) << "scans that saw a pair batch";

  // Every writer's surviving keys are all visible at the end.
  for (int w = 0; w < kWriters; ++w) {
    int live = 0;
    for (int i = 0; i < kOpsEach; ++i) {
      if (store.Get("w" + std::to_string(w) + "/" + std::to_string(i)).ok()) {
        ++live;
      }
    }
    EXPECT_EQ(live, kOpsEach - kOpsEach / 5);
  }

#if SL_LOCK_ORDER_CHECK
  std::string cycle;
  EXPECT_TRUE(lock_order::GraphIsAcyclic(&cycle)) << cycle;
#endif
}

// Batches whose sequences interleave across stripes must recover to the
// exact same state: the per-stripe WALs are merged by sequence.
TEST(ShardParallelTest, ConcurrentBatchesRecoverExactly) {
  kv::KvStore store;

  constexpr int kWriters = 4;
  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      for (int i = 0; i < 100; ++i) {
        kv::WriteBatch batch;
        batch.Put("a/" + std::to_string(w) + "-" + std::to_string(i), "x");
        batch.Put("b/" + std::to_string(w) + "-" + std::to_string(i), "y");
        ASSERT_TRUE(store.Write(batch).ok());
      }
    });
  }
  for (auto& t : writers) t.join();

  kv::KvStore replayed;
  Bytes wal = store.WalContents();
  auto applied = replayed.Recover(ByteView(wal));
  ASSERT_TRUE(applied.ok()) << applied.status().ToString();
  EXPECT_EQ(replayed.LiveKeyCount(), store.LiveKeyCount());
  EXPECT_EQ(replayed.LatestSequence(), store.LatestSequence());
  auto rows = store.Scan("");
  for (const auto& [key, value] : rows) {
    auto got = replayed.Get(key);
    ASSERT_TRUE(got.ok()) << key;
    EXPECT_EQ(*got, value);
  }
}

}  // namespace
}  // namespace streamlake
