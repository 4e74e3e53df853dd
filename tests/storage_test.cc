#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <thread>

#include "common/hash.h"
#include "common/random.h"
#include "storage/erasure_coding.h"
#include "storage/gf256.h"
#include "storage/object_store.h"
#include "storage/plog_store.h"
#include "storage/tiering.h"

namespace streamlake::storage {
namespace {

// ---------------- GF(2^8) ----------------

TEST(Gf256Test, FieldAxioms) {
  Random rng(1);
  for (int i = 0; i < 2000; ++i) {
    uint8_t a = static_cast<uint8_t>(rng.Uniform(256));
    uint8_t b = static_cast<uint8_t>(rng.Uniform(256));
    uint8_t c = static_cast<uint8_t>(rng.Uniform(256));
    EXPECT_EQ(Gf256::Mul(a, b), Gf256::Mul(b, a));
    EXPECT_EQ(Gf256::Mul(a, Gf256::Mul(b, c)), Gf256::Mul(Gf256::Mul(a, b), c));
    EXPECT_EQ(Gf256::Mul(a, Gf256::Add(b, c)),
              Gf256::Add(Gf256::Mul(a, b), Gf256::Mul(a, c)));
    EXPECT_EQ(Gf256::Mul(a, 1), a);
    EXPECT_EQ(Gf256::Mul(a, 0), 0);
  }
}

TEST(Gf256Test, InverseIsExact) {
  for (int v = 1; v < 256; ++v) {
    uint8_t b = static_cast<uint8_t>(v);
    EXPECT_EQ(Gf256::Mul(b, Gf256::Inv(b)), 1) << v;
    EXPECT_EQ(Gf256::Div(b, b), 1) << v;
  }
}

TEST(Gf256Test, PowMatchesRepeatedMul) {
  for (uint8_t a : {2, 3, 7, 255}) {
    uint8_t acc = 1;
    for (unsigned n = 0; n < 20; ++n) {
      EXPECT_EQ(Gf256::Pow(a, n), acc);
      acc = Gf256::Mul(acc, a);
    }
  }
}

TEST(MatrixTest, InvertIdentityAndSingular) {
  std::vector<std::vector<uint8_t>> identity = {{1, 0}, {0, 1}};
  auto inv = InvertMatrix(identity);
  ASSERT_TRUE(inv.ok());
  EXPECT_EQ(*inv, identity);

  std::vector<std::vector<uint8_t>> singular = {{1, 1}, {1, 1}};
  EXPECT_FALSE(InvertMatrix(singular).ok());
}

// ---------------- Reed-Solomon ----------------

TEST(ReedSolomonTest, RoundTripNoLoss) {
  ReedSolomon rs(4, 2);
  Bytes payload = ToBytes("the quick brown fox jumps over the lazy dog");
  std::vector<Bytes> shards = rs.Encode(ByteView(payload));
  ASSERT_EQ(shards.size(), 6u);
  std::vector<std::optional<Bytes>> in(shards.begin(), shards.end());
  auto decoded = rs.Decode(in, payload.size());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, payload);
}

TEST(ReedSolomonTest, RecoversFromAnyTwoLosses) {
  ReedSolomon rs(4, 2);
  Random rng(2);
  Bytes payload;
  for (int i = 0; i < 1000; ++i) {
    payload.push_back(static_cast<uint8_t>(rng.Uniform(256)));
  }
  std::vector<Bytes> shards = rs.Encode(ByteView(payload));
  // Try every pair of lost shards.
  for (int a = 0; a < 6; ++a) {
    for (int b = a + 1; b < 6; ++b) {
      std::vector<std::optional<Bytes>> in(shards.begin(), shards.end());
      in[a] = std::nullopt;
      in[b] = std::nullopt;
      auto decoded = rs.Decode(in, payload.size());
      ASSERT_TRUE(decoded.ok()) << "lost " << a << "," << b;
      EXPECT_EQ(*decoded, payload) << "lost " << a << "," << b;
    }
  }
}

TEST(ReedSolomonTest, FailsBeyondParity) {
  ReedSolomon rs(4, 1);
  Bytes payload = ToBytes("data");
  std::vector<Bytes> shards = rs.Encode(ByteView(payload));
  std::vector<std::optional<Bytes>> in(shards.begin(), shards.end());
  in[0] = std::nullopt;
  in[1] = std::nullopt;  // two losses, one parity
  EXPECT_TRUE(rs.Decode(in, payload.size()).status().IsCorruption());
}

TEST(ReedSolomonTest, EmptyPayload) {
  ReedSolomon rs(3, 2);
  Bytes payload;
  std::vector<Bytes> shards = rs.Encode(ByteView(payload));
  std::vector<std::optional<Bytes>> in(shards.begin(), shards.end());
  in[0] = std::nullopt;
  auto decoded = rs.Decode(in, 0);
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded->empty());
}

TEST(ReedSolomonTest, MulAddMatchesPortableForEveryCoefficient) {
  // Unaligned source and destination, every length across the 32-byte
  // vector width and the scalar tail.
  Random rng(4);
  Bytes src(100 + 3);
  Bytes base(100 + 5);
  for (uint8_t& b : src) b = static_cast<uint8_t>(rng.Uniform(256));
  for (uint8_t& b : base) b = static_cast<uint8_t>(rng.Uniform(256));
  for (int coeff = 0; coeff < 256; ++coeff) {
    for (size_t n = 0; n <= 100; ++n) {
      Bytes fast = base;
      Bytes reference = base;
      const auto c = static_cast<uint8_t>(coeff);
      internal::MulAdd(c, src.data() + 3, fast.data() + 5, n);
      internal::MulAddPortable(c, src.data() + 3, reference.data() + 5, n);
      ASSERT_EQ(fast, reference) << "coeff " << coeff << " n " << n;
    }
  }
}

TEST(ReedSolomonTest, ParityIsFrozen) {
  // Parity bytes are stored on disk; any change to the multiply kernel
  // that moves them fails here. Values recorded from the bytewise kernel.
  Random rng(9);
  Bytes payload(100003);
  for (uint8_t& b : payload) b = static_cast<uint8_t>(rng.Uniform(256));
  const struct {
    int k, m;
    uint32_t crc;
  } kCases[] = {{4, 1, 0x3cd203c9u}, {8, 2, 0x98ac0146u}, {10, 4, 0x83141aacu}};
  for (const auto& c : kCases) {
    ReedSolomon rs(c.k, c.m);
    uint32_t crc = 0;
    for (const Bytes& shard : rs.Encode(ByteView(payload))) {
      crc = Crc32c(ByteView(shard), crc);
    }
    EXPECT_EQ(crc, c.crc) << "RS(" << c.k << "," << c.m << ")";
  }
}

TEST(ReedSolomonTest, RecoversFromEveryAllowedLossPattern) {
  Random rng(5);
  Bytes payload(4099);
  for (uint8_t& b : payload) b = static_cast<uint8_t>(rng.Uniform(256));
  for (auto [k, m] : {std::pair{4, 1}, std::pair{8, 2}}) {
    ReedSolomon rs(k, m);
    std::vector<Bytes> shards = rs.Encode(ByteView(payload));
    const int n = k + m;
    for (uint32_t lost = 0; lost < (1u << n); ++lost) {
      if (std::popcount(lost) > m) continue;
      std::vector<std::optional<Bytes>> in(shards.begin(), shards.end());
      for (int i = 0; i < n; ++i) {
        if (lost & (1u << i)) in[i] = std::nullopt;
      }
      auto decoded = rs.Decode(in, payload.size());
      ASSERT_TRUE(decoded.ok()) << "RS(" << k << "," << m << ") lost mask "
                                << lost;
      EXPECT_EQ(*decoded, payload) << "RS(" << k << "," << m
                                   << ") lost mask " << lost;
    }
  }
}

class ReedSolomonParam
    : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(ReedSolomonParam, RandomLossPatternsRoundTrip) {
  auto [k, m] = GetParam();
  ReedSolomon rs(k, m);
  Random rng(3 + k * 31 + m);
  for (int trial = 0; trial < 10; ++trial) {
    Bytes payload;
    size_t n = 1 + rng.Uniform(5000);
    for (size_t i = 0; i < n; ++i) {
      payload.push_back(static_cast<uint8_t>(rng.Uniform(256)));
    }
    std::vector<Bytes> shards = rs.Encode(ByteView(payload));
    std::vector<std::optional<Bytes>> in(shards.begin(), shards.end());
    // Lose exactly m random shards.
    int lost = 0;
    while (lost < m) {
      size_t idx = rng.Uniform(k + m);
      if (in[idx].has_value()) {
        in[idx] = std::nullopt;
        ++lost;
      }
    }
    auto decoded = rs.Decode(in, payload.size());
    ASSERT_TRUE(decoded.ok()) << "k=" << k << " m=" << m;
    EXPECT_EQ(*decoded, payload);
  }
}

INSTANTIATE_TEST_SUITE_P(Schemes, ReedSolomonParam,
                         ::testing::Values(std::make_pair(2, 1),
                                           std::make_pair(4, 2),
                                           std::make_pair(6, 3),
                                           std::make_pair(10, 4)));

// ---------------- BlockDevice / StoragePool ----------------

struct PoolFixture {
  sim::SimClock clock;
  StoragePool pool{"ssd", sim::MediaType::kNvmeSsd, &clock};
};

TEST(BlockDeviceTest, WriteReadAndFailure) {
  sim::SimClock clock;
  BlockDevice dev(0, 0, 1 << 20, sim::MediaType::kNvmeSsd, &clock);
  Bytes data = ToBytes("hello disk");
  ASSERT_TRUE(dev.Write(100, ByteView(data)).ok());
  auto read = dev.Read(100, data.size());
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, data);

  EXPECT_TRUE(dev.Read(1 << 20, 1).status().IsInvalidArgument());
  EXPECT_TRUE(dev.Write((1 << 20) - 2, ByteView(data))
                  .IsResourceExhausted());

  dev.SetFailed(true);
  EXPECT_TRUE(dev.Read(100, 4).status().IsIOError());
  EXPECT_TRUE(dev.Write(0, ByteView(data)).IsIOError());
  dev.SetFailed(false);
  EXPECT_TRUE(dev.Read(100, 4).ok());
}

TEST(StoragePoolTest, DistinctNodePlacement) {
  PoolFixture f;
  f.pool.AddCluster(/*nodes=*/3, /*disks_per_node=*/2, 1 << 20);
  auto extents = f.pool.AllocateExtents(3, 1024, /*distinct_nodes=*/true);
  ASSERT_TRUE(extents.ok());
  std::set<uint32_t> nodes;
  for (const Extent& e : *extents) nodes.insert(e.device->node_id());
  EXPECT_EQ(nodes.size(), 3u);

  // 4 distinct nodes is impossible with 3 nodes.
  EXPECT_TRUE(f.pool.AllocateExtents(4, 1024, true).status()
                  .IsResourceExhausted());
  // ...but fine when only distinct disks are required.
  EXPECT_TRUE(f.pool.AllocateExtents(4, 1024, false).ok());
}

TEST(StoragePoolTest, FreeAndReuse) {
  PoolFixture f;
  f.pool.AddDevice(0, 4096);
  auto a = f.pool.AllocateExtents(1, 4096, false);
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(f.pool.AllocatedBytes(), 4096u);
  // Full: next allocation fails.
  EXPECT_FALSE(f.pool.AllocateExtents(1, 4096, false).ok());
  f.pool.FreeExtent((*a)[0]);
  EXPECT_EQ(f.pool.AllocatedBytes(), 0u);
  EXPECT_TRUE(f.pool.AllocateExtents(1, 4096, false).ok());
}

TEST(StoragePoolTest, RoundRobinSpreadsLoad) {
  PoolFixture f;
  f.pool.AddCluster(4, 1, 1 << 20);
  std::map<uint32_t, int> per_device;
  for (int i = 0; i < 40; ++i) {
    auto e = f.pool.AllocateExtents(1, 1024, false);
    ASSERT_TRUE(e.ok());
    per_device[(*e)[0].device->id()]++;
  }
  for (const auto& [id, count] : per_device) EXPECT_EQ(count, 10);
}

// ---------------- Plog ----------------

PlogConfig SmallPlogConfig(RedundancyConfig redundancy,
                           uint64_t capacity = 1 << 20) {
  PlogConfig config;
  config.capacity = capacity;
  config.stripe_unit = 1024;
  config.redundancy = redundancy;
  return config;
}

TEST(PlogTest, ReplicationAppendRead) {
  PoolFixture f;
  f.pool.AddCluster(3, 1, 8 << 20);
  auto plog = Plog::Create(&f.pool, SmallPlogConfig(
      RedundancyConfig::Replication(3)));
  ASSERT_TRUE(plog.ok());
  auto off1 = (*plog)->Append(ByteView("first record"));
  auto off2 = (*plog)->Append(ByteView("second record"));
  ASSERT_TRUE(off1.ok() && off2.ok());
  EXPECT_EQ(*off1, 0u);
  EXPECT_GT(*off2, *off1);
  EXPECT_EQ((*plog)->record_count(), 2u);

  auto r1 = (*plog)->ReadRecord(*off1);
  auto r2 = (*plog)->ReadRecord(*off2);
  ASSERT_TRUE(r1.ok() && r2.ok());
  EXPECT_EQ(BytesToString(*r1), "first record");
  EXPECT_EQ(BytesToString(*r2), "second record");
}

TEST(PlogTest, ReplicationSurvivesNodeFailures) {
  PoolFixture f;
  f.pool.AddCluster(3, 1, 8 << 20);
  auto plog = Plog::Create(&f.pool, SmallPlogConfig(
      RedundancyConfig::Replication(3)));
  ASSERT_TRUE(plog.ok());
  auto off = (*plog)->Append(ByteView("replicated"));
  ASSERT_TRUE(off.ok());

  // Fail 2 of 3 nodes: replication FT = 2.
  f.pool.SetNodeFailed(0, true);
  f.pool.SetNodeFailed(1, true);
  auto read = (*plog)->ReadRecord(*off);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(BytesToString(*read), "replicated");

  f.pool.SetNodeFailed(2, true);
  EXPECT_TRUE((*plog)->ReadRecord(*off).status().IsIOError());
}

TEST(PlogTest, ReplicationWriteAmplification) {
  PoolFixture f;
  f.pool.AddCluster(3, 1, 8 << 20);
  auto plog = Plog::Create(&f.pool, SmallPlogConfig(
      RedundancyConfig::Replication(3)));
  ASSERT_TRUE(plog.ok());
  Bytes payload(10000, 'x');
  ASSERT_TRUE((*plog)->Append(ByteView(payload)).ok());
  sim::DeviceStats stats = f.pool.AggregateStats();
  // 3 copies of (payload + 8-byte header).
  EXPECT_EQ(stats.bytes_written, 3u * (10000 + 8));
}

TEST(PlogTest, EcAppendReadAcrossStripes) {
  PoolFixture f;
  f.pool.AddCluster(6, 1, 8 << 20);
  auto plog = Plog::Create(&f.pool, SmallPlogConfig(
      RedundancyConfig::ErasureCoding(4, 2)));
  ASSERT_TRUE(plog.ok());
  // Stripe data size = 4 KiB; write records big enough to span stripes.
  Random rng(4);
  std::vector<std::pair<uint64_t, Bytes>> records;
  for (int i = 0; i < 20; ++i) {
    Bytes payload;
    size_t n = 100 + rng.Uniform(3000);
    for (size_t b = 0; b < n; ++b) {
      payload.push_back(static_cast<uint8_t>(rng.Uniform(256)));
    }
    auto off = (*plog)->Append(ByteView(payload));
    ASSERT_TRUE(off.ok());
    records.emplace_back(*off, payload);
  }
  for (const auto& [off, payload] : records) {
    auto read = (*plog)->ReadRecord(off);
    ASSERT_TRUE(read.ok()) << read.status().ToString();
    EXPECT_EQ(*read, payload);
  }
}

TEST(PlogTest, EcWriteAmplificationIsKPlusMOverK) {
  PoolFixture f;
  f.pool.AddCluster(6, 1, 8 << 20);
  auto plog = Plog::Create(&f.pool, SmallPlogConfig(
      RedundancyConfig::ErasureCoding(4, 2)));
  ASSERT_TRUE(plog.ok());
  Bytes payload(64 * 1024, 'x');
  ASSERT_TRUE((*plog)->Append(ByteView(payload)).ok());
  ASSERT_TRUE((*plog)->Flush().ok());
  sim::DeviceStats stats = f.pool.AggregateStats();
  double amplification =
      static_cast<double>(stats.bytes_written) / payload.size();
  EXPECT_NEAR(amplification, 1.5, 0.1);  // (4+2)/4
}

TEST(PlogTest, EcReconstructsAfterParityManyFailures) {
  PoolFixture f;
  f.pool.AddCluster(6, 1, 8 << 20);
  auto plog = Plog::Create(&f.pool, SmallPlogConfig(
      RedundancyConfig::ErasureCoding(4, 2)));
  ASSERT_TRUE(plog.ok());
  Random rng(5);
  Bytes payload;
  for (int i = 0; i < 10000; ++i) {
    payload.push_back(static_cast<uint8_t>(rng.Uniform(256)));
  }
  auto off = (*plog)->Append(ByteView(payload));
  ASSERT_TRUE(off.ok());
  ASSERT_TRUE((*plog)->Flush().ok());

  f.pool.SetNodeFailed(0, true);
  f.pool.SetNodeFailed(3, true);  // two failures, m=2
  auto read = (*plog)->ReadRecord(*off);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(*read, payload);

  f.pool.SetNodeFailed(1, true);  // third failure exceeds parity
  EXPECT_FALSE((*plog)->ReadRecord(*off).ok());
}

TEST(PlogTest, FlushPadsToStripeBoundary) {
  PoolFixture f;
  f.pool.AddCluster(6, 1, 8 << 20);
  auto plog = Plog::Create(&f.pool, SmallPlogConfig(
      RedundancyConfig::ErasureCoding(4, 2)));
  ASSERT_TRUE(plog.ok());
  auto off1 = (*plog)->Append(ByteView("tiny"));
  ASSERT_TRUE(off1.ok());
  ASSERT_TRUE((*plog)->Flush().ok());
  // Frontier advanced to the 4 KiB stripe boundary.
  EXPECT_EQ((*plog)->size(), 4096u);
  auto off2 = (*plog)->Append(ByteView("after flush"));
  ASSERT_TRUE(off2.ok());
  EXPECT_EQ(*off2, 4096u);
  EXPECT_EQ(BytesToString(*(*plog)->ReadRecord(*off1)), "tiny");
  EXPECT_EQ(BytesToString(*(*plog)->ReadRecord(*off2)), "after flush");
}

TEST(PlogTest, CapacityEnforcedAndSealRejectsAppends) {
  PoolFixture f;
  f.pool.AddCluster(3, 1, 8 << 20);
  auto plog = Plog::Create(&f.pool, SmallPlogConfig(
      RedundancyConfig::Replication(3), /*capacity=*/1024));
  ASSERT_TRUE(plog.ok());
  Bytes big(2000, 'x');
  EXPECT_TRUE((*plog)->Append(ByteView(big)).status().IsResourceExhausted());
  ASSERT_TRUE((*plog)->Append(ByteView("fits")).ok());
  ASSERT_TRUE((*plog)->Seal().ok());
  EXPECT_TRUE((*plog)->sealed());
  EXPECT_TRUE((*plog)->Append(ByteView("nope")).status().IsInvalidArgument());
}

TEST(PlogTest, MigratePreservesOffsets) {
  sim::SimClock clock;
  StoragePool ssd("ssd", sim::MediaType::kNvmeSsd, &clock);
  StoragePool hdd("hdd", sim::MediaType::kSasHdd, &clock);
  ssd.AddCluster(3, 1, 8 << 20);
  hdd.AddCluster(3, 1, 64 << 20);

  for (auto redundancy : {RedundancyConfig::Replication(3),
                          RedundancyConfig::ErasureCoding(2, 1)}) {
    auto plog = Plog::Create(&ssd, SmallPlogConfig(redundancy));
    ASSERT_TRUE(plog.ok());
    std::vector<std::pair<uint64_t, std::string>> records;
    for (int i = 0; i < 10; ++i) {
      std::string payload = "record-" + std::to_string(i);
      auto off = (*plog)->Append(ByteView(payload));
      ASSERT_TRUE(off.ok());
      records.emplace_back(*off, payload);
    }
    ASSERT_TRUE((*plog)->Seal().ok());
    uint64_t ssd_allocated = ssd.AllocatedBytes();
    ASSERT_TRUE((*plog)->MigrateTo(&hdd).ok());
    EXPECT_LT(ssd.AllocatedBytes(), ssd_allocated);  // extents freed
    EXPECT_EQ((*plog)->pool(), &hdd);
    for (const auto& [off, payload] : records) {
      auto read = (*plog)->ReadRecord(off);
      ASSERT_TRUE(read.ok());
      EXPECT_EQ(BytesToString(*read), payload);
    }
    ASSERT_TRUE((*plog)->Free().ok());
  }
}

// Property: random appends/reads interleaved with random single-node
// failures and recoveries never corrupt data (within fault tolerance).
TEST(PlogProperty, RandomFaultInjectionNeverCorrupts) {
  for (auto redundancy : {RedundancyConfig::Replication(3),
                          RedundancyConfig::ErasureCoding(4, 2)}) {
    sim::SimClock clock;
    StoragePool pool("ssd", sim::MediaType::kNvmeSsd, &clock);
    pool.AddCluster(6, 1, 64 << 20);
    auto plog = Plog::Create(&pool, SmallPlogConfig(redundancy, 8 << 20));
    ASSERT_TRUE(plog.ok());
    Random rng(555);
    std::vector<std::pair<uint64_t, Bytes>> records;
    int failed_node = -1;
    for (int step = 0; step < 300; ++step) {
      switch (rng.Uniform(4)) {
        case 0: {  // append (only when all nodes healthy, like a writer
                   // waiting out degraded mode)
          if (failed_node >= 0) break;
          Bytes payload;
          size_t n = 1 + rng.Uniform(2000);
          for (size_t i = 0; i < n; ++i) {
            payload.push_back(static_cast<uint8_t>(rng.Uniform(256)));
          }
          auto offset = (*plog)->Append(ByteView(payload));
          ASSERT_TRUE(offset.ok()) << offset.status().ToString();
          records.emplace_back(*offset, std::move(payload));
          break;
        }
        case 1: {  // fail one node (at most one at a time; FT >= 1)
          if (failed_node < 0) {
            failed_node = static_cast<int>(rng.Uniform(6));
            pool.SetNodeFailed(failed_node, true);
          }
          break;
        }
        case 2: {  // recover
          if (failed_node >= 0) {
            pool.SetNodeFailed(failed_node, false);
            failed_node = -1;
          }
          break;
        }
        case 3: {  // read a random record; must always be intact
          if (records.empty()) break;
          const auto& [offset, payload] =
              records[rng.Uniform(records.size())];
          auto read = (*plog)->ReadRecord(offset);
          ASSERT_TRUE(read.ok()) << read.status().ToString();
          EXPECT_EQ(*read, payload);
          break;
        }
      }
    }
  }
}

// ---------------- PlogStore ----------------

TEST(PlogStoreTest, AppendReadAndRollover) {
  PoolFixture f;
  f.pool.AddCluster(3, 2, 16 << 20);
  PlogStoreConfig config;
  config.num_shards = 4;
  config.plog = SmallPlogConfig(RedundancyConfig::Replication(3),
                                /*capacity=*/4096);
  PlogStore store(&f.pool, config, &f.clock);

  std::vector<std::pair<PlogAddress, std::string>> records;
  for (int i = 0; i < 200; ++i) {
    std::string payload(200, static_cast<char>('a' + i % 26));
    auto addr = store.Append(i % 4, ByteView(payload));
    ASSERT_TRUE(addr.ok()) << addr.status().ToString();
    records.emplace_back(*addr, payload);
  }
  // 50 records/shard * 208B >> 4096B per plog: rollover must have happened.
  EXPECT_GT(store.TotalPlogs(), 4u);
  for (const auto& [addr, payload] : records) {
    auto read = store.Read(addr);
    ASSERT_TRUE(read.ok());
    EXPECT_EQ(BytesToString(*read), payload);
  }
}

TEST(PlogStoreTest, KeyRoutingIsDeterministicAndSpread) {
  PoolFixture f;
  f.pool.AddCluster(3, 1, 16 << 20);
  PlogStoreConfig config;
  config.num_shards = 16;
  config.plog = SmallPlogConfig(RedundancyConfig::Replication(3));
  PlogStore store(&f.pool, config, &f.clock);
  std::set<uint32_t> shards;
  for (int i = 0; i < 200; ++i) {
    std::string key = "topic/" + std::to_string(i);
    uint32_t s = store.ShardOf(ByteView(key));
    EXPECT_EQ(s, store.ShardOf(ByteView(key)));
    shards.insert(s);
  }
  EXPECT_GT(shards.size(), 12u);  // most of 16 shards hit
}

TEST(PlogStoreTest, OversizedRecordRejected) {
  PoolFixture f;
  f.pool.AddCluster(3, 1, 16 << 20);
  PlogStoreConfig config;
  config.num_shards = 2;
  config.plog = SmallPlogConfig(RedundancyConfig::Replication(3),
                                /*capacity=*/1024);
  PlogStore store(&f.pool, config, &f.clock);
  Bytes big(4096, 'x');
  EXPECT_TRUE(store.Append(0, ByteView(big)).status().IsResourceExhausted());
}

// Regression for the old single-mutex write path: a shard stalled inside
// device I/O (the io_delay_hook stands in for a slow device) used to hold
// the store-wide lock, blocking every other shard. With striped locking,
// only the stalled shard's stripe is held.
TEST(PlogStoreTest, StalledShardDoesNotBlockOtherStripes) {
  PoolFixture f;
  f.pool.AddCluster(3, 2, 16 << 20);
  PlogStoreConfig config;
  config.num_shards = 4;
  config.num_stripes = 4;  // shard i maps 1:1 to stripe i
  config.plog = SmallPlogConfig(RedundancyConfig::Replication(3));
  std::atomic<bool> parked{false};
  std::atomic<bool> release{false};
  config.io_delay_hook = [&](uint32_t shard) {
    if (shard != 0) return;
    parked.store(true, std::memory_order_release);
    while (!release.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
  };
  PlogStore store(&f.pool, config, &f.clock);

  std::thread slow([&] {
    auto addr = store.Append(0, ByteView(std::string(64, 'a')));
    EXPECT_TRUE(addr.ok()) << addr.status().ToString();
  });
  while (!parked.load(std::memory_order_acquire)) std::this_thread::yield();

  // `slow` is parked inside Append holding stripe 0. Shard 1 lives on
  // stripe 1, so this append must complete while stripe 0 is still held;
  // under the old global lock it would deadlock (the hook never releases
  // until we set `release`, which only happens after this append).
  auto addr = store.Append(1, ByteView(std::string(64, 'b')));
  ASSERT_TRUE(addr.ok()) << addr.status().ToString();
  EXPECT_FALSE(release.load(std::memory_order_acquire));
  auto read = store.Read(*addr);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(BytesToString(*read), std::string(64, 'b'));

  release.store(true, std::memory_order_release);
  slow.join();
}

TEST(PlogStoreTest, GarbageCollectionFreesDeadSealedPlogs) {
  PoolFixture f;
  f.pool.AddCluster(3, 1, 16 << 20);
  PlogStoreConfig config;
  config.num_shards = 1;
  config.plog = SmallPlogConfig(RedundancyConfig::Replication(3),
                                /*capacity=*/1024);
  PlogStore store(&f.pool, config, &f.clock);

  // Fill and roll the first plog.
  std::vector<PlogAddress> addresses;
  for (int i = 0; i < 8; ++i) {
    auto addr = store.Append(0, ByteView(std::string(200, 'x')));
    ASSERT_TRUE(addr.ok());
    addresses.push_back(*addr);
  }
  uint64_t allocated_before = f.pool.AllocatedBytes();
  // Kill all records of plog 0.
  for (const PlogAddress& addr : addresses) {
    if (addr.plog_index == 0) {
      ASSERT_TRUE(store.MarkGarbage(addr, 200).ok());
    }
  }
  EXPECT_LT(f.pool.AllocatedBytes(), allocated_before);
}

// ---------------- ObjectStore ----------------

struct ObjectStoreFixture {
  sim::SimClock clock;
  StoragePool pool{"ssd", sim::MediaType::kNvmeSsd, &clock};
  kv::KvStore index;
  std::unique_ptr<PlogStore> plogs;
  std::unique_ptr<ObjectStore> objects;

  explicit ObjectStoreFixture(uint64_t fragment_bytes = 8 << 20) {
    pool.AddCluster(3, 2, 32 << 20);
    PlogStoreConfig config;
    config.num_shards = 8;
    config.plog.capacity = 4 << 20;
    config.plog.stripe_unit = 1024;
    config.plog.redundancy = RedundancyConfig::Replication(3);
    plogs = std::make_unique<PlogStore>(&pool, config, &clock);
    objects = std::make_unique<ObjectStore>(plogs.get(), &index,
                                            fragment_bytes);
  }
};

TEST(ObjectStoreTest, WriteReadDelete) {
  ObjectStoreFixture f;
  Bytes data = ToBytes("parquet file contents here");
  ASSERT_TRUE(f.objects->Write("/table/data/part-0.lake", ByteView(data)).ok());
  EXPECT_TRUE(f.objects->Exists("/table/data/part-0.lake"));
  auto read = f.objects->Read("/table/data/part-0.lake");
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, data);
  EXPECT_EQ(*f.objects->Size("/table/data/part-0.lake"), data.size());

  ASSERT_TRUE(f.objects->Delete("/table/data/part-0.lake").ok());
  EXPECT_FALSE(f.objects->Exists("/table/data/part-0.lake"));
  EXPECT_TRUE(f.objects->Read("/table/data/part-0.lake").status().IsNotFound());
  EXPECT_TRUE(f.objects->Delete("/table/data/part-0.lake").IsNotFound());
}

TEST(ObjectStoreTest, OverwriteReplacesContents) {
  ObjectStoreFixture f;
  ASSERT_TRUE(f.objects->Write("/a", ByteView("v1")).ok());
  ASSERT_TRUE(f.objects->Write("/a", ByteView("version-two")).ok());
  EXPECT_EQ(BytesToString(*f.objects->Read("/a")), "version-two");
  EXPECT_EQ(f.objects->num_objects(), 1u);
}

TEST(ObjectStoreTest, LargeFileSplitsIntoFragments) {
  ObjectStoreFixture f(/*fragment_bytes=*/1024);
  Random rng(6);
  Bytes data;
  for (int i = 0; i < 10000; ++i) {
    data.push_back(static_cast<uint8_t>(rng.Uniform(256)));
  }
  ASSERT_TRUE(f.objects->Write("/big", ByteView(data)).ok());
  auto read = f.objects->Read("/big");
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, data);
}

TEST(ObjectStoreTest, EmptyObject) {
  ObjectStoreFixture f;
  ASSERT_TRUE(f.objects->Write("/empty", ByteView()).ok());
  auto read = f.objects->Read("/empty");
  ASSERT_TRUE(read.ok());
  EXPECT_TRUE(read->empty());
  EXPECT_EQ(*f.objects->Size("/empty"), 0u);
}

TEST(ObjectStoreTest, ListByPrefix) {
  ObjectStoreFixture f;
  for (std::string path : {"/t1/data/a", "/t1/data/b", "/t1/metadata/c",
                           "/t2/data/d"}) {
    ASSERT_TRUE(f.objects->Write(path, ByteView("x")).ok());
  }
  auto data_files = f.objects->List("/t1/data/");
  ASSERT_EQ(data_files.size(), 2u);
  EXPECT_EQ(data_files[0], "/t1/data/a");
  EXPECT_EQ(data_files[1], "/t1/data/b");
  EXPECT_EQ(f.objects->List("/t1/").size(), 3u);
  EXPECT_EQ(f.objects->List("/").size(), 4u);
  EXPECT_EQ(f.objects->num_objects(), 4u);
}

TEST(ObjectStoreTest, WormPrefixBlocksOverwriteAndDelete) {
  ObjectStoreFixture f;
  f.objects->SetWormPrefix("/archive/");
  ASSERT_TRUE(f.objects->Write("/archive/2022.log", ByteView("v1")).ok());
  // First write fine; overwrite and delete rejected.
  EXPECT_TRUE(f.objects->Write("/archive/2022.log", ByteView("v2"))
                  .IsInvalidArgument());
  EXPECT_TRUE(f.objects->Delete("/archive/2022.log").IsInvalidArgument());
  EXPECT_EQ(BytesToString(*f.objects->Read("/archive/2022.log")), "v1");
  // Outside the WORM prefix everything still works.
  ASSERT_TRUE(f.objects->Write("/scratch/x", ByteView("a")).ok());
  ASSERT_TRUE(f.objects->Write("/scratch/x", ByteView("b")).ok());
  ASSERT_TRUE(f.objects->Delete("/scratch/x").ok());
}

TEST(ObjectStoreTest, CloneSharesFragmentsUntilLastReference) {
  ObjectStoreFixture f;
  Bytes data(5000, 'c');
  ASSERT_TRUE(f.objects->Write("/orig", ByteView(data)).ok());
  uint64_t live_after_write = f.plogs->TotalLiveBytes();
  ASSERT_TRUE(f.objects->Clone("/orig", "/copy").ok());
  // Zero-copy: no new PLog data.
  EXPECT_EQ(f.plogs->TotalLiveBytes(), live_after_write);
  EXPECT_EQ(*f.objects->Read("/copy"), data);

  // Deleting the original keeps the clone readable (shared fragments).
  ASSERT_TRUE(f.objects->Delete("/orig").ok());
  EXPECT_EQ(*f.objects->Read("/copy"), data);
  EXPECT_EQ(f.plogs->TotalLiveBytes(), live_after_write);
  // Last reference gone: space reclaimed.
  ASSERT_TRUE(f.objects->Delete("/copy").ok());
  EXPECT_LT(f.plogs->TotalLiveBytes(), live_after_write);

  EXPECT_TRUE(f.objects->Clone("/missing", "/x").IsNotFound());
}

TEST(ObjectStoreTest, SnapshotPrefixClonesNamespace) {
  ObjectStoreFixture f;
  ASSERT_TRUE(f.objects->Write("/t/data/a", ByteView("1")).ok());
  ASSERT_TRUE(f.objects->Write("/t/data/b", ByteView("2")).ok());
  auto cloned = f.objects->SnapshotPrefix("/t/", "/snap-1/");
  ASSERT_TRUE(cloned.ok());
  EXPECT_EQ(*cloned, 2u);
  // The snapshot is independent of later changes.
  ASSERT_TRUE(f.objects->Write("/t/data/a", ByteView("1-modified")).ok());
  ASSERT_TRUE(f.objects->Delete("/t/data/b").ok());
  EXPECT_EQ(BytesToString(*f.objects->Read("/snap-1/data/a")), "1");
  EXPECT_EQ(BytesToString(*f.objects->Read("/snap-1/data/b")), "2");
}

// ---------------- Tiering ----------------

TEST(TieringTest, MigratesColdSealedPlogs) {
  sim::SimClock clock;
  StoragePool ssd("ssd", sim::MediaType::kNvmeSsd, &clock);
  StoragePool hdd("hdd", sim::MediaType::kSasHdd, &clock);
  ssd.AddCluster(3, 1, 16 << 20);
  hdd.AddCluster(3, 1, 64 << 20);

  PlogStoreConfig config;
  config.num_shards = 1;
  config.plog = PlogConfig{.capacity = 2048, .stripe_unit = 512,
                           .redundancy = RedundancyConfig::Replication(3)};
  PlogStore store(&ssd, config, &clock);
  std::vector<PlogAddress> addresses;
  for (int i = 0; i < 10; ++i) {
    auto addr = store.Append(0, ByteView(std::string(400, 'd')));
    ASSERT_TRUE(addr.ok());
    addresses.push_back(*addr);
  }
  ASSERT_GT(store.TotalPlogs(), 1u);

  TieringPolicy policy;
  policy.cold_after_ns = 100 * sim::kSecond;
  TieringService tiering(&store, &ssd, &hdd, &clock, policy);

  // Nothing is cold yet.
  auto stats = tiering.Run();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->migrated_plogs, 0u);

  clock.Advance(3600 * sim::kSecond);
  stats = tiering.Run();
  ASSERT_TRUE(stats.ok());
  EXPECT_GT(stats->migrated_plogs, 0u);
  EXPECT_GT(hdd.AllocatedBytes(), 0u);

  // Data still readable after migration, now from the HDD tier.
  for (const PlogAddress& addr : addresses) {
    auto read = store.Read(addr);
    ASSERT_TRUE(read.ok());
    EXPECT_EQ(read->size(), 400u);
  }
}

}  // namespace
}  // namespace streamlake::storage
