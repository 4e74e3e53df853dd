#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "streaming/consumer.h"
#include "streaming/dispatcher.h"
#include "streaming/producer.h"
#include "streaming/topic_config.h"
#include "table/lakehouse.h"
#include "workload/dpi_log.h"

namespace streamlake {
namespace {

// The durable substrate survives a "crash": the PLog store, the KV index,
// and the service metadata KV. The data-service layer (stream object
// manager, dispatcher) restarts on top and recovers from them.
struct CrashFixture {
  sim::SimClock clock;
  storage::StoragePool pool{"ssd", sim::MediaType::kNvmeSsd, &clock};
  sim::NetworkModel bus{sim::NetworkProfile::Rdma(), &clock};
  kv::KvStore index;
  kv::KvStore meta;
  std::unique_ptr<storage::PlogStore> plogs;
  std::unique_ptr<stream::StreamObjectManager> objects;
  std::unique_ptr<streaming::StreamDispatcher> dispatcher;

  CrashFixture() {
    pool.AddCluster(3, 2, 256 << 20);
    storage::PlogStoreConfig config;
    config.num_shards = 8;
    config.plog.capacity = 16 << 20;
    config.plog.redundancy = storage::RedundancyConfig::Replication(3);
    plogs = std::make_unique<storage::PlogStore>(&pool, config, &clock);
    Boot();
  }

  void Boot() {
    objects = std::make_unique<stream::StreamObjectManager>(plogs.get(),
                                                            &index, &clock);
    dispatcher = std::make_unique<streaming::StreamDispatcher>(
        objects.get(), &meta, &bus, &clock, 3);
  }

  /// Kill the data service layer and restart it from durable state.
  void CrashAndRecover() {
    dispatcher.reset();
    objects.reset();
    Boot();
    auto recovered_objects = objects->RecoverAll();
    ASSERT_TRUE(recovered_objects.ok()) << recovered_objects.status().ToString();
    auto recovered_topics = dispatcher->Recover();
    ASSERT_TRUE(recovered_topics.ok()) << recovered_topics.status().ToString();
  }
};

TEST(RecoveryTest, StreamObjectSurvivesRestart) {
  CrashFixture f;
  stream::StreamObjectOptions options;
  options.records_per_slice = 16;
  auto id = f.objects->CreateObject(options);
  ASSERT_TRUE(id.ok());
  auto* object = f.objects->GetObject(*id);
  std::vector<stream::StreamRecord> batch;
  for (int i = 0; i < 100; ++i) {
    stream::StreamRecord record;
    record.key = "k";
    record.value = ToBytes("msg-" + std::to_string(i));
    batch.push_back(std::move(record));
  }
  ASSERT_TRUE(object->Append(batch).ok());
  ASSERT_TRUE(object->Flush().ok());
  uint64_t frontier_before = object->frontier();

  f.CrashAndRecover();

  auto* recovered = f.objects->GetObject(*id);
  ASSERT_NE(recovered, nullptr);
  EXPECT_EQ(recovered->frontier(), frontier_before);
  auto read = recovered->Read(0, 200);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  ASSERT_EQ(read->size(), 100u);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(BytesToString((*read)[i].value), "msg-" + std::to_string(i));
  }
  // Appends continue where the log left off.
  stream::StreamRecord more;
  more.key = "k";
  more.value = ToBytes("after-crash");
  auto offset = recovered->Append({more});
  ASSERT_TRUE(offset.ok());
  EXPECT_EQ(*offset, frontier_before);
}

TEST(RecoveryTest, UnflushedTailIsLostButRedeliverable) {
  CrashFixture f;
  auto id = f.objects->CreateObject({});
  ASSERT_TRUE(id.ok());
  auto* object = f.objects->GetObject(*id);
  std::vector<stream::StreamRecord> batch(10);
  for (int i = 0; i < 10; ++i) {
    batch[i].key = "k";
    batch[i].value = ToBytes("v");
    batch[i].producer_id = 7;
    batch[i].producer_seq = i + 1;
  }
  ASSERT_TRUE(object->Append(batch).ok());
  // Not flushed: the 10 records sit in the worker-side slice buffer.
  f.CrashAndRecover();
  auto* recovered = f.objects->GetObject(*id);
  EXPECT_EQ(recovered->frontier(), 0u);
  // Producer retry redelivers; records land exactly once.
  ASSERT_TRUE(recovered->Append(batch).ok());
  ASSERT_TRUE(recovered->Append(batch).ok());  // second retry: duplicates
  EXPECT_EQ(recovered->frontier(), 10u);
}

TEST(RecoveryTest, TrimmedObjectRecoversTrimPoint) {
  CrashFixture f;
  stream::StreamObjectOptions options;
  options.records_per_slice = 8;
  auto id = f.objects->CreateObject(options);
  ASSERT_TRUE(id.ok());
  auto* object = f.objects->GetObject(*id);
  std::vector<stream::StreamRecord> batch(32);
  for (auto& r : batch) {
    r.key = "k";
    r.value = ToBytes("v");
  }
  ASSERT_TRUE(object->Append(batch).ok());
  ASSERT_TRUE(object->TrimTo(16).ok());

  f.CrashAndRecover();
  auto* recovered = f.objects->GetObject(*id);
  EXPECT_EQ(recovered->frontier(), 32u);
  EXPECT_EQ(recovered->trimmed_until(), 16u);
  EXPECT_TRUE(recovered->Read(0, 1).status().IsNotFound());
  auto tail = recovered->Read(16, 100);
  ASSERT_TRUE(tail.ok());
  EXPECT_EQ(tail->size(), 16u);
}

TEST(RecoveryTest, TopicConfigRoundTrip) {
  streaming::TopicConfig config;
  config.stream_num = 7;
  config.quota = 1000000;
  config.scm_cache = true;
  config.convert_2_table.enabled = true;
  config.convert_2_table.table_schema = workload::DpiLogGenerator::Schema();
  config.convert_2_table.table_path = "dpi";
  config.convert_2_table.partition_spec =
      table::PartitionSpec::Identity("province");
  config.convert_2_table.split_offset = 12345;
  config.convert_2_table.split_time_sec = 60;
  config.convert_2_table.delete_msg = true;
  config.archive.enabled = true;
  config.archive.external_archive_url = "s3://backup";
  config.archive.archive_size_mb = 99;
  config.archive.row_2_col = false;

  Bytes encoded;
  config.EncodeTo(&encoded);
  auto decoded = streaming::TopicConfig::DecodeFrom(ByteView(encoded));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->stream_num, 7u);
  EXPECT_EQ(decoded->quota, 1000000u);
  EXPECT_TRUE(decoded->scm_cache);
  EXPECT_TRUE(decoded->convert_2_table.enabled);
  EXPECT_EQ(decoded->convert_2_table.table_path, "dpi");
  EXPECT_EQ(decoded->convert_2_table.table_schema,
            workload::DpiLogGenerator::Schema());
  EXPECT_EQ(decoded->convert_2_table.partition_spec.column, "province");
  EXPECT_EQ(decoded->convert_2_table.split_offset, 12345u);
  EXPECT_TRUE(decoded->convert_2_table.delete_msg);
  EXPECT_TRUE(decoded->archive.enabled);
  EXPECT_EQ(decoded->archive.external_archive_url, "s3://backup");
  EXPECT_EQ(decoded->archive.archive_size_mb, 99u);
  EXPECT_FALSE(decoded->archive.row_2_col);
}

TEST(RecoveryTest, DispatcherRestoresTopicsAndConsumersResume) {
  CrashFixture f;
  streaming::TopicConfig config;
  config.stream_num = 4;
  ASSERT_TRUE(f.dispatcher->CreateTopic("events", config).ok());
  streaming::Producer producer(f.dispatcher.get());
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(
        producer.Send("events", streaming::Message("k" + std::to_string(i),
                                                   "v" + std::to_string(i)))
            .ok());
  }
  // Flush every stream so the crash loses nothing.
  for (uint32_t s = 0; s < 4; ++s) {
    auto id = f.dispatcher->StreamObjectId("events", s);
    ASSERT_TRUE(f.objects->GetObject(*id)->Flush().ok());
  }
  // A consumer reads half and commits.
  streaming::Consumer consumer(f.dispatcher.get(), &f.meta, "g");
  ASSERT_TRUE(consumer.Subscribe("events").ok());
  auto first_half = consumer.Poll(100);
  ASSERT_TRUE(first_half.ok());
  EXPECT_EQ(first_half->size(), 100u);
  ASSERT_TRUE(consumer.CommitOffsets().ok());

  f.CrashAndRecover();

  EXPECT_TRUE(f.dispatcher->HasTopic("events"));
  EXPECT_EQ(*f.dispatcher->NumStreams("events"), 4u);
  // Producers and consumers pick up where they left off.
  streaming::Producer new_producer(f.dispatcher.get());
  ASSERT_TRUE(new_producer.Send("events", streaming::Message("k", "post")).ok());
  streaming::Consumer resumed(f.dispatcher.get(), &f.meta, "g");
  ASSERT_TRUE(resumed.Subscribe("events").ok());
  auto rest = resumed.Poll(1000);
  ASSERT_TRUE(rest.ok());
  EXPECT_EQ(rest->size(), 101u);  // remaining 100 + the post-crash message
}

TEST(RecoveryTest, LakehouseSurvivesRestartViaScmWalReplay) {
  // The metadata acceleration cache lives in the SCM-resident KV engine;
  // after a crash its WAL replays and the lakehouse resumes — even for
  // metadata the MetaFresher had not flushed to files yet.
  CrashFixture f;
  storage::ObjectStore objects(f.plogs.get(), &f.index);
  kv::KvStore cache_v1;
  table::MetadataStore meta_v1(&objects, &cache_v1,
                               table::MetadataMode::kAccelerated);
  sim::NetworkModel compute(sim::NetworkProfile::Rdma(), &f.clock);
  table::LakehouseService lakehouse_v1(&meta_v1, &objects, &f.clock, &compute);

  auto created = lakehouse_v1.CreateTable(
      "t",
      format::Schema{{"x", format::DataType::kInt64}},
      table::PartitionSpec::None());
  ASSERT_TRUE(created.ok());
  for (int i = 0; i < 5; ++i) {
    format::Row row;
    row.fields = {format::Value(static_cast<int64_t>(i))};
    ASSERT_TRUE((*created)->Insert({row}).ok());
  }
  EXPECT_GT(meta_v1.pending_flushes(), 0u);  // MetaFresher hasn't run

  // Crash: the cache process dies; its WAL (on SCM) survives.
  Bytes wal = cache_v1.WalContents();
  kv::KvStore cache_v2;
  auto replayed = cache_v2.Recover(ByteView(wal));
  ASSERT_TRUE(replayed.ok());
  EXPECT_GT(*replayed, 0u);

  table::MetadataStore meta_v2(&objects, &cache_v2,
                               table::MetadataMode::kAccelerated);
  table::LakehouseService lakehouse_v2(&meta_v2, &objects, &f.clock, &compute);
  auto table = lakehouse_v2.GetTable("t");
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  query::QuerySpec spec;
  spec.aggregates = {query::AggregateSpec::CountStar()};
  auto count = (*table)->Select(spec);
  ASSERT_TRUE(count.ok()) << count.status().ToString();
  EXPECT_EQ(std::get<int64_t>(count->rows[0].fields[0]), 5);

  // The restarted lakehouse keeps committing.
  format::Row row;
  row.fields = {format::Value(int64_t{99})};
  ASSERT_TRUE((*table)->Insert({row}).ok());
  count = (*table)->Select(spec);
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(std::get<int64_t>(count->rows[0].fields[0]), 6);
}

// Every crash point of a topic's records. One dispatcher call on topic `b`
// runs next to a whole topic `a`; each byte prefix of the metadata WAL the
// call wrote is replayed into a fresh KV store, and the services restart on
// it. Recover must succeed every time, with `a` whole and `b` either absent
// or holding all the streams of one of `b_counts`.
enum class TopicOp { kCreate, kAddStreams, kDelete };

void ExpectEveryCrashPointRecovers(TopicOp op,
                                   std::vector<uint32_t> b_counts) {
  CrashFixture f;
  streaming::TopicConfig config;
  config.stream_num = 3;
  ASSERT_TRUE(f.dispatcher->CreateTopic("a", config).ok());
  if (op != TopicOp::kCreate) {
    ASSERT_TRUE(f.dispatcher->CreateTopic("b", config).ok());
  }
  const size_t call_start = f.meta.WalContents().size();
  const Bytes index_before = f.index.WalContents();
  Status s = op == TopicOp::kCreate ? f.dispatcher->CreateTopic("b", config)
             : op == TopicOp::kAddStreams ? f.dispatcher->AddStreams("b", 2)
                                          : f.dispatcher->DeleteTopic("b");
  ASSERT_TRUE(s.ok()) << s.ToString();
  const Bytes wal = f.meta.WalContents();
  const Bytes index_after = f.index.WalContents();
  ASSERT_GT(wal.size(), call_start);

  size_t failures = 0;
  std::string first_failure;
  for (size_t len = call_start; len <= wal.size(); ++len) {
    kv::KvStore meta;
    ASSERT_TRUE(meta.Recover(ByteView(wal.data(), len)).ok());
    // The index a crash at this point leaves: stream objects exist before
    // any key names them, and DeleteTopic destroys none while `b`'s config
    // key is still there.
    const bool b_config = meta.Contains("topic/b/config");
    kv::KvStore index;
    ASSERT_TRUE(index
                    .Recover(ByteView(op == TopicOp::kDelete && b_config
                                          ? index_before
                                          : index_after))
                    .ok());
    stream::StreamObjectManager objects(f.plogs.get(), &index, &f.clock,
                                        nullptr, 0);
    ASSERT_TRUE(objects.RecoverAll().ok());
    streaming::StreamDispatcher dispatcher(&objects, &meta, &f.bus, &f.clock,
                                           3);
    auto recovered = dispatcher.Recover();
    if (!recovered.ok()) {
      if (failures++ == 0) {
        first_failure = "prefix " + std::to_string(len - call_start) + ": " +
                        recovered.status().ToString();
      }
      continue;
    }
    auto a_streams = dispatcher.NumStreams("a");
    ASSERT_TRUE(a_streams.ok());
    EXPECT_EQ(*a_streams, 3u);
    if (dispatcher.HasTopic("b")) {
      auto b_streams = dispatcher.NumStreams("b");
      ASSERT_TRUE(b_streams.ok());
      EXPECT_NE(std::find(b_counts.begin(), b_counts.end(), *b_streams),
                b_counts.end())
          << "prefix " << len - call_start << ": b has " << *b_streams
          << " streams";
      for (uint32_t i = 0; i < *b_streams; ++i) {
        EXPECT_TRUE(dispatcher.RouteFetch("b", i).ok());
      }
    }
  }
  EXPECT_EQ(failures, 0u) << "of " << wal.size() - call_start + 1
                          << " prefixes; first: " << first_failure;
}

TEST(RecoveryTest, EveryCreateTopicCrashPointRecovers) {
  ExpectEveryCrashPointRecovers(TopicOp::kCreate, {3});
}

TEST(RecoveryTest, EveryAddStreamsCrashPointRecovers) {
  ExpectEveryCrashPointRecovers(TopicOp::kAddStreams, {3, 5});
}

TEST(RecoveryTest, EveryDeleteTopicCrashPointRecovers) {
  ExpectEveryCrashPointRecovers(TopicOp::kDelete, {3});
}

// Every crash point of a consumer-offset commit. A consumer group commits,
// reads more and commits again; each byte prefix of the metadata WAL the
// second commit wrote is replayed into a fresh KV store. A consumer of the
// group that subscribes there must resume at every position of one commit,
// never at a mix of both.
TEST(RecoveryTest, EveryCommitOffsetsCrashPointResumesAtOneCommit) {
  CrashFixture f;
  constexpr uint32_t kStreams = 3;
  streaming::TopicConfig config;
  config.stream_num = kStreams;
  ASSERT_TRUE(f.dispatcher->CreateTopic("events", config).ok());
  streaming::Producer producer(f.dispatcher.get());
  for (int i = 0; i < 300; ++i) {
    ASSERT_TRUE(
        producer.Send("events", streaming::Message("k" + std::to_string(i),
                                                   "v" + std::to_string(i)))
            .ok());
  }
  for (uint32_t s = 0; s < kStreams; ++s) {
    auto id = f.dispatcher->StreamObjectId("events", s);
    ASSERT_TRUE(f.objects->GetObject(*id)->Flush().ok());
  }
  // Where a consumer subscribed on `meta` resumes, per stream: the stream's
  // length minus the messages it still reads.
  std::vector<uint64_t> lengths(kStreams, 0);
  auto resume_positions = [&](streaming::StreamDispatcher* dispatcher,
                              kv::KvStore* meta) {
    std::vector<uint64_t> positions = lengths;
    streaming::Consumer consumer(dispatcher, meta, "g");
    EXPECT_TRUE(consumer.Subscribe("events").ok());
    auto rest = consumer.Poll(1000);
    EXPECT_TRUE(rest.ok()) << rest.status().ToString();
    if (rest.ok()) {
      for (const auto& m : *rest) --positions[m.stream_index];
    }
    return positions;
  };
  {
    streaming::Consumer all(f.dispatcher.get(), &f.meta, "all");
    ASSERT_TRUE(all.Subscribe("events").ok());
    auto messages = all.Poll(1000);
    ASSERT_TRUE(messages.ok());
    ASSERT_EQ(messages->size(), 300u);
    for (const auto& m : *messages) ++lengths[m.stream_index];
  }

  streaming::Consumer consumer(f.dispatcher.get(), &f.meta, "g");
  ASSERT_TRUE(consumer.Subscribe("events").ok());
  ASSERT_TRUE(consumer.Poll(50).ok());
  ASSERT_TRUE(consumer.CommitOffsets().ok());
  const std::vector<uint64_t> first =
      resume_positions(f.dispatcher.get(), &f.meta);
  const size_t call_start = f.meta.WalContents().size();
  ASSERT_TRUE(consumer.Poll(120).ok());
  ASSERT_TRUE(consumer.CommitOffsets().ok());
  const std::vector<uint64_t> second =
      resume_positions(f.dispatcher.get(), &f.meta);
  const Bytes wal = f.meta.WalContents();
  const Bytes index_wal = f.index.WalContents();
  ASSERT_GT(wal.size(), call_start);
  // A mix is only visible if the commits differ on two streams or more.
  size_t differing = 0;
  for (uint32_t s = 0; s < kStreams; ++s) differing += first[s] != second[s];
  ASSERT_GE(differing, 2u);

  size_t at_first = 0;
  for (size_t len = call_start; len <= wal.size(); ++len) {
    kv::KvStore meta;
    ASSERT_TRUE(meta.Recover(ByteView(wal.data(), len)).ok());
    kv::KvStore index;
    ASSERT_TRUE(index.Recover(ByteView(index_wal)).ok());
    stream::StreamObjectManager objects(f.plogs.get(), &index, &f.clock,
                                        nullptr, 0);
    ASSERT_TRUE(objects.RecoverAll().ok());
    streaming::StreamDispatcher dispatcher(&objects, &meta, &f.bus, &f.clock,
                                           3);
    ASSERT_TRUE(dispatcher.Recover().ok());
    const std::vector<uint64_t> resumed = resume_positions(&dispatcher, &meta);
    EXPECT_TRUE(resumed == first || resumed == second)
        << "prefix " << len - call_start << " resumes at a mix of commits";
    at_first += resumed == first;
  }
  // Every torn prefix resumes at the first commit; only the whole record
  // reaches the second.
  EXPECT_EQ(at_first, wal.size() - call_start);
}

TEST(RecoveryTest, RecoverRequiresEmptyServices) {
  CrashFixture f;
  streaming::TopicConfig config;
  config.stream_num = 1;
  ASSERT_TRUE(f.dispatcher->CreateTopic("t", config).ok());
  EXPECT_TRUE(f.objects->RecoverAll().status().IsInvalidArgument());
  EXPECT_TRUE(f.dispatcher->Recover().status().IsInvalidArgument());
}

}  // namespace
}  // namespace streamlake
