#include <gtest/gtest.h>

#include "common/random.h"
#include "common/threadpool.h"
#include "stream/stream_c_api.h"
#include "stream/stream_object.h"

namespace streamlake::stream {
namespace {

struct StreamFixture {
  sim::SimClock clock;
  storage::StoragePool pool{"ssd", sim::MediaType::kNvmeSsd, &clock};
  sim::DeviceModel pmem{sim::DeviceProfile::Pmem(), &clock};
  kv::KvStore index;
  std::unique_ptr<storage::PlogStore> plogs;
  // Declared before manager: in-flight batches must outlive no pool.
  std::unique_ptr<ThreadPool> io_pool;
  std::unique_ptr<StreamObjectManager> manager;

  explicit StreamFixture(bool with_pmem = false, int io_threads = 0,
                         uint64_t plog_capacity = 8 << 20) {
    pool.AddCluster(3, 2, 64 << 20);
    storage::PlogStoreConfig config;
    config.num_shards = 8;
    config.plog.capacity = plog_capacity;
    config.plog.stripe_unit = 4096;
    config.plog.redundancy = storage::RedundancyConfig::Replication(3);
    plogs = std::make_unique<storage::PlogStore>(&pool, config, &clock);
    if (io_threads > 0) {
      io_pool = std::make_unique<ThreadPool>(io_threads, "test.stream_io");
    }
    manager = std::make_unique<StreamObjectManager>(
        plogs.get(), &index, &clock, with_pmem ? &pmem : nullptr, 64,
        io_pool.get());
  }

  StreamObject* NewObject(StreamObjectOptions options = {}) {
    auto id = manager->CreateObject(options);
    EXPECT_TRUE(id.ok());
    return manager->GetObject(*id);
  }
};

StreamRecord MakeRecord(const std::string& key, const std::string& value,
                        uint64_t producer = 0, uint64_t seq = 0) {
  StreamRecord r;
  r.key = key;
  r.value = ToBytes(value);
  r.timestamp = 1656806400;
  r.producer_id = producer;
  r.producer_seq = seq;
  return r;
}

TEST(StreamRecordTest, SliceRoundTrip) {
  std::vector<StreamRecord> records;
  for (int i = 0; i < 10; ++i) {
    records.push_back(MakeRecord("k" + std::to_string(i),
                                 "value-" + std::to_string(i), 7, i + 1));
  }
  Bytes encoded;
  EncodeSlice(&encoded, records);
  auto decoded = DecodeSlice(ByteView(encoded));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, records);
}

TEST(StreamObjectTest, AppendReadOrdered) {
  StreamFixture f;
  StreamObject* object = f.NewObject();
  std::vector<StreamRecord> batch;
  for (int i = 0; i < 10; ++i) {
    batch.push_back(MakeRecord("k", "msg-" + std::to_string(i)));
  }
  auto offset = object->Append(batch);
  ASSERT_TRUE(offset.ok());
  EXPECT_EQ(*offset, 0u);
  EXPECT_EQ(object->frontier(), 10u);

  auto read = object->Read(0, 100);
  ASSERT_TRUE(read.ok());
  ASSERT_EQ(read->size(), 10u);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(BytesToString((*read)[i].value), "msg-" + std::to_string(i));
  }

  // Second append returns the next offset; strict order preserved.
  auto offset2 = object->Append({MakeRecord("k", "msg-10")});
  ASSERT_TRUE(offset2.ok());
  EXPECT_EQ(*offset2, 10u);
  auto tail = object->Read(10, 10);
  ASSERT_TRUE(tail.ok());
  ASSERT_EQ(tail->size(), 1u);
}

TEST(StreamObjectTest, ReadAtFrontierReturnsEmpty) {
  StreamFixture f;
  StreamObject* object = f.NewObject();
  auto read = object->Read(0, 10);
  ASSERT_TRUE(read.ok());
  EXPECT_TRUE(read->empty());
  EXPECT_TRUE(object->Read(1, 10).status().IsInvalidArgument());
}

TEST(StreamObjectTest, SlicesPersistAt256Records) {
  StreamFixture f;
  StreamObject* object = f.NewObject();
  std::vector<StreamRecord> batch;
  for (int i = 0; i < 600; ++i) {
    batch.push_back(MakeRecord("k", std::string(100, 'v')));
  }
  ASSERT_TRUE(object->Append(batch).ok());
  // 600 records -> two full slices persisted (512), 88 buffered.
  EXPECT_EQ(object->persisted(), 512u);
  EXPECT_EQ(object->frontier(), 600u);
  ASSERT_TRUE(object->Flush().ok());
  EXPECT_EQ(object->persisted(), 600u);

  // Everything readable, spanning persisted slices and former tail.
  auto read = object->Read(500, 100);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read->size(), 100u);
}

// ---------------- Flushed appends (group appends) ----------------

TEST(StreamObjectTest, AppendBatchPersistsWholeTailInParallel) {
  StreamFixture f(/*with_pmem=*/false, /*io_threads=*/4);
  StreamObjectOptions options;
  options.records_per_slice = 16;
  StreamObject* object = f.NewObject(options);

  std::vector<StreamRecord> batch;
  for (int i = 0; i < 100; ++i) {
    batch.push_back(MakeRecord("k", "msg-" + std::to_string(i)));
  }
  auto offset = object->Append(std::move(batch), /*flush=*/true);
  ASSERT_TRUE(offset.ok()) << offset.status().ToString();
  EXPECT_EQ(*offset, 0u);
  // Unlike Append, a group append persists the partial final slice too:
  // 6 full slices of 16 plus one of 4, nothing left buffered.
  EXPECT_EQ(object->frontier(), 100u);
  EXPECT_EQ(object->persisted(), 100u);

  auto read = object->Read(0, 200);
  ASSERT_TRUE(read.ok());
  ASSERT_EQ(read->size(), 100u);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(BytesToString((*read)[i].value), "msg-" + std::to_string(i));
  }

  // The next batch lands at the current frontier.
  auto next = object->Append({MakeRecord("k", "tail")}, /*flush=*/true);
  ASSERT_TRUE(next.ok());
  EXPECT_EQ(*next, 100u);
  EXPECT_EQ(object->persisted(), 101u);
}

TEST(StreamObjectTest, AppendBatchFlushesPreviouslyBufferedRecords) {
  // No I/O pool: the inline fallback path must behave identically.
  StreamFixture f;
  StreamObjectOptions options;
  options.records_per_slice = 16;
  StreamObject* object = f.NewObject(options);

  // Ten records buffer below the slice threshold...
  std::vector<StreamRecord> head;
  for (int i = 0; i < 10; ++i) {
    head.push_back(MakeRecord("k", "buf-" + std::to_string(i)));
  }
  ASSERT_TRUE(object->Append(std::move(head)).ok());
  EXPECT_EQ(object->persisted(), 0u);

  // ...and the group append sweeps them out with its own records.
  std::vector<StreamRecord> batch;
  for (int i = 0; i < 10; ++i) {
    batch.push_back(MakeRecord("k", "grp-" + std::to_string(i)));
  }
  auto offset = object->Append(std::move(batch), /*flush=*/true);
  ASSERT_TRUE(offset.ok());
  EXPECT_EQ(*offset, 10u);
  EXPECT_EQ(object->persisted(), 20u);
  EXPECT_EQ(object->frontier(), 20u);

  auto read = object->Read(8, 4);
  ASSERT_TRUE(read.ok());
  ASSERT_EQ(read->size(), 4u);
  EXPECT_EQ(BytesToString((*read)[1].value), "buf-9");
  EXPECT_EQ(BytesToString((*read)[2].value), "grp-0");
}

TEST(StreamObjectTest, AppendBatchDropsProducerDuplicates) {
  StreamFixture f(/*with_pmem=*/false, /*io_threads=*/2);
  StreamObject* object = f.NewObject();
  ASSERT_TRUE(object
                  ->Append({MakeRecord("k", "v1", 42, 1),
                            MakeRecord("k", "v2", 42, 2)},
                           /*flush=*/true)
                  .ok());
  // Retry overlaps the already-accepted tail of the previous batch.
  ASSERT_TRUE(object
                  ->Append({MakeRecord("k", "v2-dup", 42, 2),
                            MakeRecord("k", "v3", 42, 3)},
                           /*flush=*/true)
                  .ok());
  EXPECT_EQ(object->frontier(), 3u);
  auto read = object->Read(0, 10);
  ASSERT_TRUE(read.ok());
  ASSERT_EQ(read->size(), 3u);
  EXPECT_EQ(BytesToString((*read)[2].value), "v3");
}

TEST(StreamObjectTest, AppendBatchInterleavesWithAppendAndFlush) {
  StreamFixture f(/*with_pmem=*/false, /*io_threads=*/2);
  StreamObjectOptions options;
  options.records_per_slice = 16;
  StreamObject* object = f.NewObject(options);

  ASSERT_TRUE(object->Append({MakeRecord("k", "a0")}).ok());
  std::vector<StreamRecord> batch;
  for (int i = 0; i < 40; ++i) {
    batch.push_back(MakeRecord("k", "b" + std::to_string(i)));
  }
  ASSERT_TRUE(object->Append(std::move(batch), /*flush=*/true).ok());
  ASSERT_TRUE(object->Append({MakeRecord("k", "a1")}).ok());
  ASSERT_TRUE(object->Flush().ok());
  EXPECT_EQ(object->frontier(), 42u);
  EXPECT_EQ(object->persisted(), 42u);

  auto read = object->Read(0, 64);
  ASSERT_TRUE(read.ok());
  ASSERT_EQ(read->size(), 42u);
  EXPECT_EQ(BytesToString((*read)[0].value), "a0");
  EXPECT_EQ(BytesToString((*read)[1].value), "b0");
  EXPECT_EQ(BytesToString((*read)[41].value), "a1");
}

// Records of a slice whose persist fails stay buffered: readable at their
// offsets, and re-persisted (so the failure is reported again) by the next
// append, even one whose records are all producer duplicates.
TEST(StreamObjectTest, FailedSlicePersistKeepsRecordsBuffered) {
  StreamFixture f(/*with_pmem=*/false, /*io_threads=*/0,
                  /*plog_capacity=*/4 << 10);
  StreamObjectOptions options;
  options.records_per_slice = 4;
  StreamObject* object = f.NewObject(options);
  auto batch = [] {
    std::vector<StreamRecord> records;
    for (int i = 0; i < 4; ++i) {
      records.push_back(
          MakeRecord("k", std::string(2048, static_cast<char>('a' + i)), 7,
                     static_cast<uint64_t>(i) + 1));
    }
    return records;
  };
  // Four 2 KiB records make one slice larger than a 4 KiB PLog.
  auto first = object->Append(batch());
  EXPECT_TRUE(first.status().IsResourceExhausted())
      << first.status().ToString();
  EXPECT_EQ(object->frontier(), 4u);
  EXPECT_EQ(object->persisted(), 0u);

  // The producer's retry is deduplicated, but the buffered slice is
  // persisted again and fails again rather than reporting OK.
  auto retry = object->Append(batch());
  EXPECT_TRUE(retry.status().IsResourceExhausted())
      << retry.status().ToString();
  EXPECT_EQ(object->frontier(), 4u);
  EXPECT_EQ(object->persisted(), 0u);

  auto read = object->Read(0, 10);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  ASSERT_EQ(read->size(), 4u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(BytesToString((*read)[i].value),
              std::string(2048, static_cast<char>('a' + i)));
  }
  EXPECT_EQ(f.plogs->TotalLiveBytes(), 0u);
}

TEST(StreamObjectTest, FailedFlushKeepsBufferedTail) {
  StreamFixture f(/*with_pmem=*/false, /*io_threads=*/0,
                  /*plog_capacity=*/4 << 10);
  StreamObjectOptions options;
  options.records_per_slice = 4;
  StreamObject* object = f.NewObject(options);
  ASSERT_TRUE(object
                  ->Append({MakeRecord("k", std::string(3072, 'x'), 7, 1),
                            MakeRecord("k", std::string(3072, 'y'), 7, 2)})
                  .ok());
  EXPECT_EQ(object->persisted(), 0u);

  // The two-record tail slice does not fit a 4 KiB PLog.
  EXPECT_TRUE(object->Flush().IsResourceExhausted());
  EXPECT_TRUE(object->Flush().IsResourceExhausted());
  EXPECT_EQ(object->frontier(), 2u);
  EXPECT_EQ(object->persisted(), 0u);
  auto read = object->Read(0, 10);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  ASSERT_EQ(read->size(), 2u);
  EXPECT_EQ(BytesToString((*read)[0].value), std::string(3072, 'x'));
  EXPECT_EQ(BytesToString((*read)[1].value), std::string(3072, 'y'));
}

// Slices commit in order up to the first failed one; the PLog appends of
// later slices are rolled back, and all of their records stay buffered.
TEST(StreamObjectTest, FailedSliceCommitsPrefixAndRollsBackTheRest) {
  StreamFixture f(/*with_pmem=*/false, /*io_threads=*/2,
                  /*plog_capacity=*/4 << 10);
  StreamObjectOptions options;
  options.records_per_slice = 2;
  StreamObject* object = f.NewObject(options);
  std::vector<StreamRecord> batch = {
      MakeRecord("k", "s0-a"), MakeRecord("k", "s0-b"),
      MakeRecord("k", std::string(3072, 'x')),
      MakeRecord("k", std::string(3072, 'y')),
      MakeRecord("k", "s2-a"), MakeRecord("k", "s2-b")};
  Bytes first_slice;
  EncodeSlice(&first_slice, std::span<const StreamRecord>(batch).first(2));

  auto offset = object->Append(batch, /*flush=*/true);
  EXPECT_TRUE(offset.status().IsResourceExhausted())
      << offset.status().ToString();
  EXPECT_EQ(object->frontier(), 6u);
  EXPECT_EQ(object->persisted(), 2u);
  // Only the committed first slice is live; the third slice's append was
  // marked garbage.
  EXPECT_EQ(f.plogs->TotalLiveBytes(), first_slice.size());

  auto read = object->Read(0, 10);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  ASSERT_EQ(read->size(), 6u);
  for (size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ((*read)[i], batch[i]);
  }
}

TEST(StreamObjectTest, IoAggregationReducesStorageOps) {
  StreamFixture f_agg;
  StreamFixture f_direct;
  StreamObjectOptions agg;
  agg.io_aggregation = true;
  StreamObjectOptions direct;
  direct.io_aggregation = false;

  auto run = [](StreamFixture& f, StreamObjectOptions options) {
    StreamObject* object = f.NewObject(options);
    for (int i = 0; i < 256; ++i) {
      EXPECT_TRUE(object->Append({MakeRecord("k", std::string(100, 'x'))}).ok());
    }
    EXPECT_TRUE(object->Flush().ok());
    return f.pool.AggregateStats().write_ops;
  };
  uint64_t agg_ops = run(f_agg, agg);
  uint64_t direct_ops = run(f_direct, direct);
  // One aggregated slice write (x3 replicas) vs 256 per-record writes.
  EXPECT_LT(agg_ops * 50, direct_ops);

  // Without aggregation a flushed append also writes one record per slice.
  StreamFixture f_flushed;
  StreamObject* object = f_flushed.NewObject(direct);
  std::vector<StreamRecord> batch(256, MakeRecord("k", std::string(100, 'x')));
  ASSERT_TRUE(object->Append(std::move(batch), /*flush=*/true).ok());
  EXPECT_EQ(object->persisted(), 256u);
  EXPECT_EQ(f_flushed.pool.AggregateStats().write_ops, direct_ops);
}

TEST(StreamObjectTest, IdempotentProducerDropsDuplicates) {
  StreamFixture f;
  StreamObject* object = f.NewObject();
  ASSERT_TRUE(object->Append({MakeRecord("k", "v1", 42, 1)}).ok());
  ASSERT_TRUE(object->Append({MakeRecord("k", "v2", 42, 2)}).ok());
  // Network retry: same producer and sequence.
  ASSERT_TRUE(object->Append({MakeRecord("k", "v2-dup", 42, 2)}).ok());
  ASSERT_TRUE(object->Append({MakeRecord("k", "v1-dup", 42, 1)}).ok());
  EXPECT_EQ(object->frontier(), 2u);
  // A different producer with the same sequences is not a duplicate.
  ASSERT_TRUE(object->Append({MakeRecord("k", "other", 43, 1)}).ok());
  EXPECT_EQ(object->frontier(), 3u);
}

TEST(StreamObjectTest, QuotaEnforcedPerSimSecond) {
  StreamFixture f;
  StreamObjectOptions options;
  options.io_quota_records_per_sec = 100;
  StreamObject* object = f.NewObject(options);
  std::vector<StreamRecord> batch;
  for (int i = 0; i < 100; ++i) batch.push_back(MakeRecord("k", "v"));
  ASSERT_TRUE(object->Append(batch).ok());
  EXPECT_TRUE(object->Append({MakeRecord("k", "v")}).status()
                  .IsQuotaExceeded());
  // A simulated second later the bucket refills.
  f.clock.Advance(sim::kSecond);
  EXPECT_TRUE(object->Append({MakeRecord("k", "v")}).ok());
}

TEST(StreamObjectTest, ScmCacheServesRepeatedReads) {
  StreamFixture f(/*with_pmem=*/true);
  StreamObjectOptions options;
  options.use_scm_cache = true;
  StreamObject* object = f.NewObject(options);
  std::vector<StreamRecord> batch;
  for (int i = 0; i < 512; ++i) {
    batch.push_back(MakeRecord("k", std::string(200, 'c')));
  }
  ASSERT_TRUE(object->Append(batch).ok());

  // First read warms the cache (slices were cached at persist time too).
  ASSERT_TRUE(object->Read(0, 512).ok());
  uint64_t ssd_reads_before = f.pool.AggregateStats().read_ops;
  ASSERT_TRUE(object->Read(0, 512).ok());
  uint64_t ssd_reads_after = f.pool.AggregateStats().read_ops;
  EXPECT_EQ(ssd_reads_before, ssd_reads_after);  // served from SCM
  EXPECT_GT(f.manager->cache()->hits(), 0u);
}

TEST(ScmSliceCacheTest, HitSurvivesEvictionByAnotherObjectsPut) {
  // The cache is shared by every object of a manager: another object's
  // Put may evict a slice while a reader is still copying from it.
  ScmSliceCache cache(/*pmem=*/nullptr, /*capacity_slices=*/1);
  cache.Put(1, 0,
            std::make_shared<const std::vector<StreamRecord>>(
                std::vector<StreamRecord>{MakeRecord("a", "first")}));
  auto a = cache.Get(1, 0);
  ASSERT_NE(a, nullptr);
  cache.Put(2, 0,
            std::make_shared<const std::vector<StreamRecord>>(
                std::vector<StreamRecord>{MakeRecord("b", "second")}));
  EXPECT_EQ(cache.Get(1, 0), nullptr);  // evicted
  ASSERT_EQ(a->size(), 1u);
  EXPECT_EQ((*a)[0].key, "a");
  EXPECT_EQ(BytesToString((*a)[0].value), "first");
}

TEST(StreamObjectTest, FindOffsetByTimestamp) {
  StreamFixture f;
  StreamObjectOptions options;
  options.records_per_slice = 16;
  StreamObject* object = f.NewObject(options);
  // 100 records with timestamps 1000, 1010, 1020, ...
  std::vector<StreamRecord> batch;
  for (int i = 0; i < 100; ++i) {
    StreamRecord r = MakeRecord("k", "v" + std::to_string(i));
    r.timestamp = 1000 + i * 10;
    batch.push_back(std::move(r));
  }
  ASSERT_TRUE(object->Append(batch).ok());

  // Exact hit, between-records hit, before-everything, after-everything.
  EXPECT_EQ(*object->FindOffsetByTimestamp(1000), 0u);
  EXPECT_EQ(*object->FindOffsetByTimestamp(1500), 50u);
  EXPECT_EQ(*object->FindOffsetByTimestamp(1505), 51u);
  EXPECT_EQ(*object->FindOffsetByTimestamp(0), 0u);
  EXPECT_EQ(*object->FindOffsetByTimestamp(99999), 100u);  // frontier

  // Offsets in the buffered (unpersisted) tail resolve too.
  EXPECT_EQ(object->persisted(), 96u);  // 6 slices of 16
  EXPECT_EQ(*object->FindOffsetByTimestamp(1000 + 97 * 10), 97u);

  // The found offset is consumable.
  auto read = object->Read(*object->FindOffsetByTimestamp(1500), 1);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ((*read)[0].timestamp, 1500);
}

TEST(StreamObjectTest, DestroyMarksGarbageAndRejectsUse) {
  StreamFixture f;
  auto id = f.manager->CreateObject({});
  ASSERT_TRUE(id.ok());
  StreamObject* object = f.manager->GetObject(*id);
  std::vector<StreamRecord> batch;
  for (int i = 0; i < 300; ++i) batch.push_back(MakeRecord("k", "v"));
  ASSERT_TRUE(object->Append(batch).ok());
  ASSERT_TRUE(f.manager->DestroyObject(*id).ok());
  EXPECT_EQ(f.manager->GetObject(*id), nullptr);
  EXPECT_TRUE(f.manager->DestroyObject(*id).IsNotFound());
}

TEST(StreamObjectTest, SurvivesNodeFailure) {
  StreamFixture f;
  StreamObject* object = f.NewObject();
  std::vector<StreamRecord> batch;
  for (int i = 0; i < 256; ++i) {
    batch.push_back(MakeRecord("k", "payload-" + std::to_string(i)));
  }
  ASSERT_TRUE(object->Append(batch).ok());
  f.pool.SetNodeFailed(0, true);
  auto read = object->Read(0, 256);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read->size(), 256u);
}

// Property: random interleavings of appends and reads always return the
// exact record sequence.
TEST(StreamObjectProperty, ReadMatchesAppendedSequence) {
  StreamFixture f;
  Random rng(99);
  StreamObjectOptions options;
  options.records_per_slice = 16;  // force frequent slice boundaries
  StreamObject* object = f.NewObject(options);
  std::vector<std::string> expected;
  for (int round = 0; round < 50; ++round) {
    std::vector<StreamRecord> batch;
    size_t n = 1 + rng.Uniform(40);
    for (size_t i = 0; i < n; ++i) {
      std::string v = "r" + std::to_string(expected.size());
      expected.push_back(v);
      batch.push_back(MakeRecord(rng.NextString(4), v));
    }
    ASSERT_TRUE(object->Append(batch).ok());
    // Random read-back of an arbitrary window.
    uint64_t start = rng.Uniform(expected.size());
    size_t want = 1 + rng.Uniform(30);
    auto read = object->Read(start, want);
    ASSERT_TRUE(read.ok());
    size_t expect_count = std::min<size_t>(want, expected.size() - start);
    ASSERT_EQ(read->size(), expect_count);
    for (size_t i = 0; i < expect_count; ++i) {
      EXPECT_EQ(BytesToString((*read)[i].value), expected[start + i]);
    }
  }
}

// Parameterized sweep: strict ordering and exact read-back hold across
// aggregation modes, slice sizes, and redundancy schemes.
struct StreamParamCase {
  bool io_aggregation;
  size_t records_per_slice;
  bool erasure_coded;
};

// Names each case by its fields. Without it gtest prints the struct's raw
// bytes, padding included, so the test names changed from run to run.
void PrintTo(const StreamParamCase& c, std::ostream* os) {
  *os << (c.io_aggregation ? "aggregated" : "direct") << "_slice"
      << c.records_per_slice << (c.erasure_coded ? "_ec" : "_replicated");
}

class StreamObjectParam : public ::testing::TestWithParam<StreamParamCase> {};

TEST_P(StreamObjectParam, OrderingAndReadbackInvariant) {
  const StreamParamCase& param = GetParam();
  StreamFixture f;
  StreamObjectOptions options;
  options.io_aggregation = param.io_aggregation;
  options.records_per_slice = param.records_per_slice;
  options.redundancy = param.erasure_coded
                           ? storage::RedundancyConfig::ErasureCoding(2, 1)
                           : storage::RedundancyConfig::Replication(3);
  StreamObject* object = f.NewObject(options);
  Random rng(17);
  std::vector<std::string> expected;
  for (int round = 0; round < 12; ++round) {
    std::vector<StreamRecord> batch;
    size_t n = 1 + rng.Uniform(70);
    for (size_t i = 0; i < n; ++i) {
      std::string value = "m" + std::to_string(expected.size());
      expected.push_back(value);
      batch.push_back(MakeRecord("k", value));
    }
    auto offset = object->Append(std::move(batch));
    ASSERT_TRUE(offset.ok());
  }
  ASSERT_TRUE(object->Flush().ok());
  auto read = object->Read(0, expected.size() + 10);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  ASSERT_EQ(read->size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(BytesToString((*read)[i].value), expected[i]);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Modes, StreamObjectParam,
    ::testing::Values(StreamParamCase{true, 256, false},
                      StreamParamCase{true, 8, false},
                      StreamParamCase{false, 256, false},
                      StreamParamCase{true, 256, true},
                      StreamParamCase{true, 8, true},
                      StreamParamCase{false, 256, true}));

// ---------------- Fig. 3 C API ----------------

TEST(StreamCApiTest, FullLifecycle) {
  StreamFixture f;
  SetServerStreamManager(f.manager.get());

  CREATE_OPTIONS_S options;
  options.redundancy_mode = 0;
  options.replicas = 3;
  object_id_t id = 0;
  ASSERT_EQ(CreateServerStreamObject(&options, &id), 0);
  ASSERT_NE(id, 0u);

  IO_CONTENT_S io;
  io.records = {MakeRecord("k", "hello world", 1, 1),
                MakeRecord("k", "second", 1, 2)};
  uint64_t offset = 99;
  ASSERT_EQ(AppendServerStreamObject(&id, &io, &offset), 0);
  EXPECT_EQ(offset, 0u);

  READ_CTRL_S ctrl;
  ctrl.max_records = 10;
  IO_CONTENT_S out;
  ASSERT_EQ(ReadServerStreamObject(&id, 0, &ctrl, &out), 0);
  ASSERT_EQ(out.records.size(), 2u);
  EXPECT_EQ(BytesToString(out.records[0].value), "hello world");

  ASSERT_EQ(DestroyServerStreamObject(&id), 0);
  EXPECT_EQ(AppendServerStreamObject(&id, &io, &offset),
            -static_cast<int32_t>(StatusCode::kNotFound));
  SetServerStreamManager(nullptr);
}

TEST(StreamCApiTest, NullArgumentsRejected) {
  EXPECT_EQ(CreateServerStreamObject(nullptr, nullptr),
            -static_cast<int32_t>(StatusCode::kInvalidArgument));
  EXPECT_EQ(DestroyServerStreamObject(nullptr),
            -static_cast<int32_t>(StatusCode::kInvalidArgument));
}

}  // namespace
}  // namespace streamlake::stream
