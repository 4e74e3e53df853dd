#include <gtest/gtest.h>

#include "convert/converter.h"
#include "streaming/consumer.h"
#include "streaming/producer.h"
#include "workload/dpi_log.h"

namespace streamlake::convert {
namespace {

struct ConvertFixture {
  sim::SimClock clock;
  storage::StoragePool pool{"ssd", sim::MediaType::kNvmeSsd, &clock};
  sim::NetworkModel bus{sim::NetworkProfile::Rdma(), &clock};
  sim::NetworkModel compute_link{sim::NetworkProfile::Rdma(), &clock};
  kv::KvStore index;
  kv::KvStore meta;
  kv::KvStore meta_cache;
  std::unique_ptr<storage::PlogStore> plogs;
  std::unique_ptr<stream::StreamObjectManager> objects;
  std::unique_ptr<streaming::StreamDispatcher> dispatcher;
  std::unique_ptr<storage::ObjectStore> object_store;
  std::unique_ptr<table::MetadataStore> metadata;
  std::unique_ptr<table::LakehouseService> lakehouse;
  std::unique_ptr<ConversionService> converter;

  ConvertFixture() {
    pool.AddCluster(3, 2, 512 << 20);
    storage::PlogStoreConfig config;
    config.num_shards = 16;
    config.plog.capacity = 32 << 20;
    config.plog.stripe_unit = 4096;
    config.plog.redundancy = storage::RedundancyConfig::Replication(3);
    plogs = std::make_unique<storage::PlogStore>(&pool, config, &clock);
    objects = std::make_unique<stream::StreamObjectManager>(plogs.get(),
                                                            &index, &clock);
    dispatcher = std::make_unique<streaming::StreamDispatcher>(
        objects.get(), &meta, &bus, &clock, 3);
    object_store = std::make_unique<storage::ObjectStore>(plogs.get(), &index);
    metadata = std::make_unique<table::MetadataStore>(
        object_store.get(), &meta_cache, table::MetadataMode::kAccelerated);
    lakehouse = std::make_unique<table::LakehouseService>(
        metadata.get(), object_store.get(), &clock, &compute_link);
    converter = std::make_unique<ConversionService>(
        dispatcher.get(), objects.get(), lakehouse.get(), &meta, &clock);
  }

  streaming::TopicConfig DpiTopicConfig(uint64_t split_offset,
                                        uint64_t split_time_sec,
                                        bool delete_msg = false) {
    streaming::TopicConfig config;
    config.stream_num = 2;
    config.convert_2_table.enabled = true;
    config.convert_2_table.table_schema = workload::DpiLogGenerator::Schema();
    config.convert_2_table.table_path = "dpi_logs";
    config.convert_2_table.partition_spec =
        table::PartitionSpec::Identity("province");
    config.convert_2_table.split_offset = split_offset;
    config.convert_2_table.split_time_sec = split_time_sec;
    config.convert_2_table.delete_msg = delete_msg;
    return config;
  }

  void Publish(const std::string& topic, int n) {
    workload::DpiLogGenerator gen;
    streaming::Producer producer(dispatcher.get());
    for (int i = 0; i < n; ++i) {
      ASSERT_TRUE(producer.Send(topic, gen.NextMessage()).ok());
    }
  }
};

TEST(ConvertTest, CountTriggerConvertsToTable) {
  ConvertFixture f;
  ASSERT_TRUE(f.dispatcher->CreateTopic(
      "t", f.DpiTopicConfig(/*split_offset=*/100, /*split_time=*/999999)).ok());
  f.Publish("t", 50);

  // Below the count threshold and within the time window: no conversion.
  auto stats = f.converter->Run("t");
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_FALSE(stats->triggered);

  f.Publish("t", 60);  // now 110 unconverted
  stats = f.converter->Run("t");
  ASSERT_TRUE(stats.ok());
  EXPECT_TRUE(stats->triggered);
  EXPECT_EQ(stats->converted_records, 110u);
  EXPECT_EQ(stats->parse_errors, 0u);

  auto table = f.lakehouse->GetTable("dpi_logs");
  ASSERT_TRUE(table.ok());
  query::QuerySpec spec;
  spec.aggregates = {query::AggregateSpec::CountStar()};
  auto count = (*table)->Select(spec);
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(std::get<int64_t>(count->rows[0].fields[0]), 110);
}

TEST(ConvertTest, TimeTriggerFires) {
  ConvertFixture f;
  ASSERT_TRUE(f.dispatcher->CreateTopic(
      "t", f.DpiTopicConfig(/*split_offset=*/1000000, /*split_time=*/3600)).ok());
  f.Publish("t", 10);
  auto stats = f.converter->Run("t");
  ASSERT_TRUE(stats.ok());
  EXPECT_FALSE(stats->triggered);  // fresh topic, below both triggers

  f.clock.Advance(3601 * sim::kSecond);
  stats = f.converter->Run("t");
  ASSERT_TRUE(stats.ok());
  EXPECT_TRUE(stats->triggered);
  EXPECT_EQ(stats->converted_records, 10u);
}

TEST(ConvertTest, IncrementalConversionsDoNotDuplicate) {
  ConvertFixture f;
  ASSERT_TRUE(f.dispatcher->CreateTopic(
      "t", f.DpiTopicConfig(1, 999999)).ok());
  f.Publish("t", 30);
  ASSERT_TRUE(f.converter->Run("t").ok());
  f.Publish("t", 20);
  auto stats = f.converter->Run("t");
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->converted_records, 20u);  // only the new tail

  auto table = f.lakehouse->GetTable("dpi_logs");
  ASSERT_TRUE(table.ok());
  query::QuerySpec spec;
  spec.aggregates = {query::AggregateSpec::CountStar()};
  auto count = (*table)->Select(spec);
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(std::get<int64_t>(count->rows[0].fields[0]), 50);
}

TEST(ConvertTest, DeleteMsgTrimsStreamCopy) {
  ConvertFixture f;
  ASSERT_TRUE(f.dispatcher->CreateTopic(
      "t", f.DpiTopicConfig(1, 999999, /*delete_msg=*/true)).ok());
  f.Publish("t", 40);
  auto stats = f.converter->Run("t");
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->converted_records, 40u);
  EXPECT_EQ(stats->trimmed_records, 40u);

  // Stream copy is gone: reading from 0 fails, frontier preserved.
  for (uint32_t s = 0; s < 2; ++s) {
    auto id = f.dispatcher->StreamObjectId("t", s);
    ASSERT_TRUE(id.ok());
    stream::StreamObject* object = f.objects->GetObject(*id);
    if (object->frontier() == 0) continue;
    EXPECT_TRUE(object->Read(0, 1).status().IsNotFound());
    EXPECT_EQ(object->trimmed_until(), object->frontier());
  }
  // Table copy remains queryable.
  auto table = f.lakehouse->GetTable("dpi_logs");
  ASSERT_TRUE(table.ok());
  query::QuerySpec spec;
  spec.aggregates = {query::AggregateSpec::CountStar()};
  auto count = (*table)->Select(spec);
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(std::get<int64_t>(count->rows[0].fields[0]), 40);
}

TEST(ConvertTest, PlaybackTableToStream) {
  ConvertFixture f;
  ASSERT_TRUE(f.dispatcher->CreateTopic(
      "source", f.DpiTopicConfig(1, 999999)).ok());
  f.Publish("source", 25);
  ASSERT_TRUE(f.converter->Run("source").ok());

  streaming::TopicConfig replay_config;
  replay_config.stream_num = 2;
  ASSERT_TRUE(f.dispatcher->CreateTopic("replay", replay_config).ok());
  auto produced = f.converter->PlaybackToStream("dpi_logs", "replay");
  ASSERT_TRUE(produced.ok()) << produced.status().ToString();
  EXPECT_EQ(*produced, 25u);

  streaming::Consumer consumer(f.dispatcher.get(), &f.meta, "g");
  ASSERT_TRUE(consumer.Subscribe("replay").ok());
  auto polled = consumer.Poll(1000);
  ASSERT_TRUE(polled.ok());
  EXPECT_EQ(polled->size(), 25u);
  // Messages decode back into schema rows.
  auto row = format::DecodeRow(workload::DpiLogGenerator::Schema(),
                               ByteView((*polled)[0].message.value));
  EXPECT_TRUE(row.ok());
}

// A message encodes no NULL, so playback of a table holding one is refused
// before any message is produced, naming the column.
TEST(ConvertTest, PlaybackRefusesNullCells) {
  ConvertFixture f;
  const format::Schema schema{{"id", format::DataType::kInt64},
                              {"name", format::DataType::kString}};
  auto table = f.lakehouse->CreateTable("people", schema,
                                        table::PartitionSpec::None());
  ASSERT_TRUE(table.ok());
  std::vector<format::Row> rows(3);
  rows[0].fields = {int64_t{1}, std::string("a")};
  rows[1].fields = {int64_t{2}, format::Value(std::monostate{})};
  rows[2].fields = {int64_t{3}, std::string("c")};
  ASSERT_TRUE((*table)->Insert(rows).ok());

  streaming::TopicConfig replay_config;
  replay_config.stream_num = 2;
  ASSERT_TRUE(f.dispatcher->CreateTopic("replay", replay_config).ok());
  auto produced = f.converter->PlaybackToStream("people", "replay");
  ASSERT_FALSE(produced.ok());
  EXPECT_TRUE(produced.status().IsInvalidArgument());
  EXPECT_NE(produced.status().message().find("column name"),
            std::string::npos)
      << produced.status().ToString();

  streaming::Consumer consumer(f.dispatcher.get(), &f.meta, "g");
  ASSERT_TRUE(consumer.Subscribe("replay").ok());
  auto polled = consumer.Poll(1000);
  ASSERT_TRUE(polled.ok());
  EXPECT_TRUE(polled->empty());
}

TEST(ConvertTest, MalformedMessagesCountedNotFatal) {
  ConvertFixture f;
  ASSERT_TRUE(f.dispatcher->CreateTopic("t", f.DpiTopicConfig(1, 999999)).ok());
  f.Publish("t", 5);
  // A rogue producer writes junk that doesn't decode as the table schema.
  streaming::Producer rogue(f.dispatcher.get());
  ASSERT_TRUE(rogue.Send("t", streaming::Message("k", "not-a-row")).ok());
  ASSERT_TRUE(rogue.Send("t", streaming::Message("k", "\x01\x02")).ok());

  auto stats = f.converter->Run("t");
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->converted_records, 5u);
  EXPECT_EQ(stats->parse_errors, 2u);

  auto table = f.lakehouse->GetTable("dpi_logs");
  ASSERT_TRUE(table.ok());
  query::QuerySpec spec;
  spec.aggregates = {query::AggregateSpec::CountStar()};
  auto count = (*table)->Select(spec);
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(std::get<int64_t>(count->rows[0].fields[0]), 5);
}

TEST(ConvertTest, DisabledTopicOnlyConvertsWhenForced) {
  ConvertFixture f;
  streaming::TopicConfig config = f.DpiTopicConfig(1, 1);
  config.convert_2_table.enabled = false;
  ASSERT_TRUE(f.dispatcher->CreateTopic("t", config).ok());
  f.Publish("t", 5);
  auto stats = f.converter->Run("t");
  ASSERT_TRUE(stats.ok());
  EXPECT_FALSE(stats->triggered);
  auto forced = f.converter->Run("t", /*force=*/true);
  ASSERT_TRUE(forced.ok());
  EXPECT_EQ(forced->converted_records, 5u);
}

}  // namespace
}  // namespace streamlake::convert
