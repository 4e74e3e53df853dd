#include <gtest/gtest.h>

#include "common/random.h"
#include "storage/repair.h"
#include "storage/replication.h"

namespace streamlake::storage {
namespace {

struct RepairFixture {
  sim::SimClock clock;
  StoragePool pool{"ssd", sim::MediaType::kNvmeSsd, &clock};
  std::unique_ptr<PlogStore> plogs;

  explicit RepairFixture(RedundancyConfig redundancy, uint32_t nodes = 6) {
    pool.AddCluster(nodes, 2, 256 << 20);
    PlogStoreConfig config;
    config.num_shards = 4;
    config.plog.capacity = 4 << 20;
    config.plog.stripe_unit = 4096;
    config.plog.redundancy = redundancy;
    plogs = std::make_unique<PlogStore>(&pool, config, &clock);
  }
};

class RepairParam : public ::testing::TestWithParam<RedundancyConfig> {};

TEST_P(RepairParam, RebuildsAfterNodeFailureAndReplacement) {
  RepairFixture f(GetParam());
  Random rng(11);
  std::vector<std::pair<PlogAddress, Bytes>> records;
  for (int i = 0; i < 40; ++i) {
    Bytes payload;
    for (int b = 0; b < 5000; ++b) {
      payload.push_back(static_cast<uint8_t>(rng.Uniform(256)));
    }
    auto addr = f.plogs->Append(i % 4, ByteView(payload));
    ASSERT_TRUE(addr.ok());
    records.emplace_back(*addr, payload);
  }
  ASSERT_TRUE(f.plogs->FlushAll().ok());

  // Node 0 dies.
  f.pool.SetNodeFailed(0, true);
  RepairService repair(f.plogs.get());
  auto stats = repair.Run();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_GT(stats->plogs_degraded, 0u);
  EXPECT_EQ(stats->plogs_repaired, stats->plogs_degraded);
  EXPECT_EQ(stats->plogs_unrecoverable, 0u);

  // Full redundancy restored: even a SECOND node loss is survivable for
  // FT >= 1 schemes (repair moved the lost copies to healthy nodes).
  if (GetParam().FaultTolerance() >= 1) {
    f.pool.SetNodeFailed(1, true);
    for (const auto& [addr, payload] : records) {
      auto read = f.plogs->Read(addr);
      ASSERT_TRUE(read.ok()) << read.status().ToString();
      EXPECT_EQ(*read, payload);
    }
    f.pool.SetNodeFailed(1, false);
  }

  // A second repair pass finds nothing degraded.
  auto again = repair.Run();
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->plogs_degraded, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Schemes, RepairParam,
    ::testing::Values(RedundancyConfig::Replication(3),
                      RedundancyConfig::ErasureCoding(4, 2)));

TEST(RepairTest, UnrecoverableBeyondFaultTolerance) {
  RepairFixture f(RedundancyConfig::Replication(2), /*nodes=*/4);
  auto addr = f.plogs->Append(0, ByteView("fragile"));
  ASSERT_TRUE(addr.ok());
  // Find the two nodes holding the replicas and fail both.
  std::set<uint32_t> nodes;
  f.plogs->ForEachPlog([&](uint32_t, uint32_t, Plog*) {
    // Repair needs to see both extents failed; fail every node to be sure.
  });
  for (uint32_t n = 0; n < 4; ++n) f.pool.SetNodeFailed(n, true);
  RepairService repair(f.plogs.get());
  auto stats = repair.Run();
  ASSERT_TRUE(stats.ok());
  EXPECT_GT(stats->plogs_unrecoverable, 0u);
  EXPECT_EQ(stats->plogs_repaired, 0u);
}

struct ReplicationFixture {
  sim::SimClock clock;
  StoragePool primary_pool{"site-a", sim::MediaType::kNvmeSsd, &clock};
  StoragePool remote_pool{"site-b", sim::MediaType::kNvmeSsd, &clock};
  sim::NetworkModel wan{sim::NetworkProfile::Tcp(), &clock};
  kv::KvStore primary_index;
  kv::KvStore remote_index;
  kv::KvStore state;
  std::unique_ptr<PlogStore> primary_plogs;
  std::unique_ptr<PlogStore> remote_plogs;
  std::unique_ptr<ObjectStore> primary;
  std::unique_ptr<ObjectStore> remote;
  std::unique_ptr<RemoteReplicationService> service;

  ReplicationFixture() {
    primary_pool.AddCluster(3, 1, 256 << 20);
    remote_pool.AddCluster(3, 1, 256 << 20);
    PlogStoreConfig config;
    config.num_shards = 4;
    config.plog.capacity = 16 << 20;
    config.plog.redundancy = RedundancyConfig::Replication(3);
    primary_plogs = std::make_unique<PlogStore>(&primary_pool, config, &clock);
    remote_plogs = std::make_unique<PlogStore>(&remote_pool, config, &clock);
    primary = std::make_unique<ObjectStore>(primary_plogs.get(),
                                            &primary_index);
    remote = std::make_unique<ObjectStore>(remote_plogs.get(), &remote_index);
    service = std::make_unique<RemoteReplicationService>(
        primary.get(), remote.get(), &wan, &state);
  }
};

TEST(ReplicationTest, IncrementalMirrorAndPrune) {
  ReplicationFixture f;
  ASSERT_TRUE(f.primary->Write("/t/a", ByteView("alpha")).ok());
  ASSERT_TRUE(f.primary->Write("/t/b", ByteView("beta")).ok());

  auto first = f.service->Replicate("/t/");
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(first->objects_shipped, 2u);
  EXPECT_EQ(BytesToString(*f.remote->Read("/t/a")), "alpha");

  // Second cycle with no changes ships nothing.
  auto second = f.service->Replicate("/t/");
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->objects_shipped, 0u);
  EXPECT_EQ(second->objects_unchanged, 2u);

  // Change one, delete the other: incremental ship + prune.
  ASSERT_TRUE(f.primary->Write("/t/a", ByteView("alpha-v2")).ok());
  ASSERT_TRUE(f.primary->Delete("/t/b").ok());
  auto third = f.service->Replicate("/t/");
  ASSERT_TRUE(third.ok());
  EXPECT_EQ(third->objects_shipped, 1u);
  EXPECT_EQ(third->objects_pruned, 1u);
  EXPECT_EQ(BytesToString(*f.remote->Read("/t/a")), "alpha-v2");
  EXPECT_TRUE(f.remote->Read("/t/b").status().IsNotFound());
}

TEST(ReplicationTest, UnparsableRecordedCrcShipsAgain) {
  ReplicationFixture f;
  ASSERT_TRUE(f.primary->Write("/t/a", ByteView("alpha")).ok());
  ASSERT_TRUE(f.service->Replicate("/t/").ok());
  for (const char* bad : {"x", "", "4294967296", "-1"}) {
    ASSERT_TRUE(f.state.Put("repl//t/a", bad).ok());
    auto run = f.service->Replicate("/t/");
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    EXPECT_EQ(run->objects_shipped, 1u) << bad;
    // The re-ship records a good CRC again.
    auto again = f.service->Replicate("/t/");
    ASSERT_TRUE(again.ok());
    EXPECT_EQ(again->objects_unchanged, 1u) << bad;
  }
}

TEST(ReplicationTest, DisasterRecoveryRestoresObject) {
  ReplicationFixture f;
  ASSERT_TRUE(f.primary->Write("/t/critical", ByteView("payload")).ok());
  ASSERT_TRUE(f.service->Replicate("/t/").ok());

  // Primary loses the object (e.g. operator error).
  ASSERT_TRUE(f.primary->Delete("/t/critical").ok());
  ASSERT_TRUE(f.service->RestoreObject("/t/critical").ok());
  EXPECT_EQ(BytesToString(*f.primary->Read("/t/critical")), "payload");

  EXPECT_TRUE(f.service->RestoreObject("/t/never").IsNotFound());
}

TEST(ReplicationTest, WanTrafficOnlyForChangedBytes) {
  ReplicationFixture f;
  Bytes big(1 << 20, 'z');
  ASSERT_TRUE(f.primary->Write("/t/big", ByteView(big)).ok());
  ASSERT_TRUE(f.service->Replicate("/t/").ok());
  uint64_t after_first = f.wan.stats().bytes;
  EXPECT_GE(after_first, big.size());
  // No changes: no WAN bytes.
  ASSERT_TRUE(f.service->Replicate("/t/").ok());
  EXPECT_EQ(f.wan.stats().bytes, after_first);
}

}  // namespace
}  // namespace streamlake::storage
