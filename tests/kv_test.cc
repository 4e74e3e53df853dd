#include <gtest/gtest.h>

#include <cstdio>
#include <thread>

#include "common/random.h"
#include "kv/kv_store.h"
#include "sim/clock.h"
#include "sim/device_model.h"

namespace streamlake::kv {
namespace {

TEST(WriteBatchTest, EncodeDecodeRoundTrip) {
  WriteBatch batch;
  batch.Put("a", "1");
  batch.Delete("b");
  batch.Put("key with spaces", std::string(1000, 'x'));
  Bytes encoded;
  batch.EncodeTo(&encoded);

  WriteBatch decoded;
  size_t consumed = decoded.DecodeFrom(ByteView(encoded));
  EXPECT_EQ(consumed, encoded.size());
  ASSERT_EQ(decoded.size(), 3u);
  EXPECT_EQ(decoded.ops()[0].key, "a");
  EXPECT_EQ(decoded.ops()[0].value, "1");
  EXPECT_TRUE(decoded.ops()[1].is_delete);
  EXPECT_EQ(decoded.ops()[1].key, "b");
  EXPECT_EQ(decoded.ops()[2].value, std::string(1000, 'x'));
}

TEST(WriteBatchTest, DecodeRejectsCorruption) {
  WriteBatch batch;
  batch.Put("k", "v");
  Bytes encoded;
  batch.EncodeTo(&encoded);
  encoded[encoded.size() - 1] ^= 0xFF;  // flip a payload bit -> CRC mismatch
  WriteBatch decoded;
  EXPECT_EQ(decoded.DecodeFrom(ByteView(encoded)), 0u);
}

TEST(KvStoreTest, PutGetDelete) {
  KvStore store;
  ASSERT_TRUE(store.Put("k1", "v1").ok());
  auto got = store.Get("k1");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, "v1");
  ASSERT_TRUE(store.Delete("k1").ok());
  EXPECT_TRUE(store.Get("k1").status().IsNotFound());
  EXPECT_TRUE(store.Scan("k1").empty());
  EXPECT_EQ(store.LiveKeyCount(), 0u);
  EXPECT_TRUE(store.Get("never").status().IsNotFound());
  // A put after the delete starts the key afresh.
  ASSERT_TRUE(store.Put("k1", "v2").ok());
  EXPECT_EQ(*store.Get("k1"), "v2");
}

TEST(KvStoreTest, OverwriteKeepsLatest) {
  KvStore store;
  ASSERT_TRUE(store.Put("k", "old").ok());
  ASSERT_TRUE(store.Put("k", "new").ok());
  EXPECT_EQ(*store.Get("k"), "new");
}

TEST(KvStoreTest, BatchIsAtomicAndSingleSequence) {
  KvStore store;
  WriteBatch batch;
  batch.Put("a", "1");
  batch.Put("b", "2");
  batch.Delete("c");
  ASSERT_TRUE(store.Write(batch).ok());
  EXPECT_EQ(store.LatestSequence(), 1u);  // one sequence for the whole batch
  EXPECT_EQ(*store.Get("a"), "1");
  EXPECT_EQ(*store.Get("b"), "2");
}

TEST(KvStoreTest, ScanOrderedRange) {
  KvStore store;
  for (std::string k : {"p/b", "p/a", "p/d", "p/c", "p", "q/a", "o"}) {
    ASSERT_TRUE(store.Put(k, "v" + k).ok());
  }
  ASSERT_TRUE(store.Delete("p/c").ok());
  auto rows = store.Scan("p/");
  ASSERT_EQ(rows.size(), 3u);  // p/a, p/b, p/d (p/c deleted)
  EXPECT_EQ(rows[0].first, "p/a");
  EXPECT_EQ(rows[0].second, "vp/a");
  EXPECT_EQ(rows[1].first, "p/b");
  EXPECT_EQ(rows[2].first, "p/d");

  EXPECT_TRUE(store.Scan("r").empty());  // no key has the prefix
  EXPECT_TRUE(store.Scan("p/c").empty());  // its only key was deleted
  // A prefix that is itself a key matches that key and its extensions.
  auto p_rows = store.Scan("p");
  ASSERT_EQ(p_rows.size(), 4u);
  EXPECT_EQ(p_rows[0].first, "p");
  EXPECT_EQ(p_rows[3].first, "p/d");

  EXPECT_EQ(store.Scan("").size(), 6u);
  auto limited = store.Scan("p/", 2);
  ASSERT_EQ(limited.size(), 2u);
  EXPECT_EQ(limited[1].first, "p/b");

  // A prefix ending in 0xFF has no "next prefix" of the same length; its
  // scan still finds the keys that extend it, and only those.
  ASSERT_TRUE(store.Put("x\xff", "v").ok());
  ASSERT_TRUE(store.Put("x\xff" "1", "v").ok());
  ASSERT_TRUE(store.Put("x\xfe", "v").ok());
  auto ff_rows = store.Scan("x\xff");
  ASSERT_EQ(ff_rows.size(), 2u);
  EXPECT_EQ(ff_rows[0].first, "x\xff");
  EXPECT_EQ(ff_rows[1].first, "x\xff" "1");
}

TEST(KvStoreTest, ScanLimitAcrossManyStripes) {
  // A small limit over many striped keys must return exactly the
  // first-`limit` keys in global order, however the keys hash over the
  // stripes.
  KvStore store;
  constexpr int kKeys = 500;
  for (int i = 0; i < kKeys; ++i) {
    char key[16];
    std::snprintf(key, sizeof(key), "k%04d", i);
    ASSERT_TRUE(store.Put(key, std::to_string(i)).ok());
  }
  ASSERT_TRUE(store.Put("other", "x").ok());

  for (size_t limit : {1u, 7u, 64u, 499u}) {
    auto rows = store.Scan("k", limit);
    ASSERT_EQ(rows.size(), limit);
    for (size_t i = 0; i < limit; ++i) {
      char want[16];
      std::snprintf(want, sizeof(want), "k%04zu", i);
      EXPECT_EQ(rows[i].first, want) << "limit " << limit;
      EXPECT_EQ(rows[i].second, std::to_string(i));
    }
  }
  // Limit larger than the matching set returns all of it, still ordered.
  auto all = store.Scan("k", 10000);
  ASSERT_EQ(all.size(), static_cast<size_t>(kKeys));
  EXPECT_EQ(all.front().first, "k0000");
  EXPECT_EQ(all.back().first, "k0499");
}

TEST(KvStoreTest, LiveKeyCount) {
  KvStore store;
  ASSERT_TRUE(store.Put("a", "1").ok());
  ASSERT_TRUE(store.Put("b", "2").ok());
  ASSERT_TRUE(store.Delete("a").ok());
  EXPECT_EQ(store.LiveKeyCount(), 1u);
}

TEST(KvStoreTest, WalRecoveryRebuildsState) {
  KvStore store;
  ASSERT_TRUE(store.Put("a", "1").ok());
  WriteBatch batch;
  batch.Put("b", "2");
  batch.Delete("a");
  ASSERT_TRUE(store.Write(batch).ok());

  KvStore recovered;
  auto applied = recovered.Recover(ByteView(store.WalContents()));
  ASSERT_TRUE(applied.ok());
  EXPECT_EQ(*applied, 2u);
  EXPECT_TRUE(recovered.Get("a").status().IsNotFound());
  EXPECT_EQ(*recovered.Get("b"), "2");
}

TEST(KvStoreTest, WalRecoveryStopsAtTornTail) {
  KvStore store;
  ASSERT_TRUE(store.Put("a", "1").ok());
  ASSERT_TRUE(store.Put("b", "2").ok());
  Bytes wal = store.WalContents();
  wal.resize(wal.size() - 3);  // simulate a crash mid-write

  KvStore recovered;
  auto applied = recovered.Recover(ByteView(wal));
  ASSERT_TRUE(applied.ok());
  EXPECT_EQ(*applied, 1u);
  EXPECT_EQ(*recovered.Get("a"), "1");
  EXPECT_TRUE(recovered.Get("b").status().IsNotFound());
}

TEST(KvStoreTest, RecoverRequiresEmptyStore) {
  KvStore store;
  ASSERT_TRUE(store.Put("a", "1").ok());
  EXPECT_TRUE(
      store.Recover(ByteView(store.WalContents())).status().IsInvalidArgument());
  // Every key deleted leaves no key, but the store has committed batches:
  // replaying on top of them would fork the sequence.
  KvStore emptied;
  ASSERT_TRUE(emptied.Put("a", "1").ok());
  ASSERT_TRUE(emptied.Delete("a").ok());
  ASSERT_EQ(emptied.LiveKeyCount(), 0u);
  EXPECT_TRUE(emptied.Recover(ByteView(emptied.WalContents()))
                  .status()
                  .IsInvalidArgument());
}

TEST(KvStoreTest, WalDeviceIsCharged) {
  sim::SimClock clock;
  sim::DeviceModel ssd(sim::DeviceProfile::NvmeSsd(), &clock);
  KvOptions options;
  options.wal_device = &ssd;
  KvStore store(options);
  ASSERT_TRUE(store.Put("k", std::string(4096, 'x')).ok());
  EXPECT_EQ(ssd.stats().write_ops, 1u);
  EXPECT_GT(ssd.stats().bytes_written, 4096u);
  EXPECT_GT(clock.NowNanos(), 0u);
}

TEST(KvStoreTest, ConcurrentWritersDoNotLoseUpdates) {
  KvStore store;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 200;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&store, t] {
      for (int i = 0; i < kPerThread; ++i) {
        ASSERT_TRUE(store
                        .Put("t" + std::to_string(t) + "/" + std::to_string(i),
                             "v")
                        .ok());
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(store.LiveKeyCount(), kThreads * kPerThread);
  EXPECT_EQ(store.LatestSequence(), kThreads * kPerThread);
}

// Property: a randomized interleaving of puts/deletes matches a reference
// std::map.
TEST(KvStoreProperty, MatchesReferenceModel) {
  Random rng(2024);
  KvStore store;
  std::map<std::string, std::string> model;
  constexpr int kOps = 3000;
  for (int i = 0; i < kOps; ++i) {
    std::string key = "k" + std::to_string(rng.Uniform(100));
    if (rng.OneIn(4)) {
      ASSERT_TRUE(store.Delete(key).ok());
      model.erase(key);
    } else {
      std::string value = rng.NextString(8);
      ASSERT_TRUE(store.Put(key, value).ok());
      model[key] = value;
    }
  }
  auto rows = store.Scan("");
  ASSERT_EQ(rows.size(), model.size());
  EXPECT_EQ(store.LiveKeyCount(), model.size());
  size_t idx = 0;
  for (const auto& [k, v] : model) {
    EXPECT_EQ(rows[idx].first, k);
    EXPECT_EQ(rows[idx].second, v);
    ++idx;
  }
}

}  // namespace
}  // namespace streamlake::kv
