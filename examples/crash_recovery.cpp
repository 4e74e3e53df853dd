// Fault tolerance of the data service layer: the durable substrate (the
// PLog store, the fault-tolerant KV store holding the PLog index and the
// dispatcher's topology, consumer offsets) survives a crash of the stream
// object manager and the dispatcher, which restart and recover from it.
// First the KV store itself: latest-value reads, prefix scans, and a
// rebuild from its write-ahead log.
//
// Run: ./build/examples/crash_recovery

#include <cstdio>
#include <memory>
#include <string>

#include "storage/plog_store.h"
#include "streaming/consumer.h"
#include "streaming/dispatcher.h"
#include "streaming/producer.h"

using namespace streamlake;

int main() {
  // --- The KV store: latest values, prefix scans, WAL recovery ---
  kv::KvStore catalog;
  SL_CHECK_OK(catalog.Put("table/orders", "v1"));
  SL_CHECK_OK(catalog.Put("table/orders", "v2"));
  SL_CHECK_OK(catalog.Put("table/users", "v1"));
  SL_CHECK_OK(catalog.Put("view/daily", "v1"));
  SL_CHECK_OK(catalog.Delete("view/daily"));
  std::printf("KV: @%llu 'table/orders' reads '%s', 'view/daily' reads %s, "
              "prefix 'table/' holds %zu keys\n",
              static_cast<unsigned long long>(catalog.LatestSequence()),
              catalog.Get("table/orders")->c_str(),
              catalog.Get("view/daily").status().ToString().c_str(),
              catalog.Scan("table/").size());
  kv::KvStore replayed;
  auto batches = replayed.Recover(ByteView(catalog.WalContents()));
  SL_CHECK_OK(batches.status());
  std::printf("KV: WAL replay applied %zu batches -> %zu live keys, "
              "'table/orders' reads '%s'\n\n",
              *batches, replayed.LiveKeyCount(),
              replayed.Get("table/orders")->c_str());

  // --- The durable substrate ---
  sim::SimClock clock;
  storage::StoragePool pool("ssd", sim::MediaType::kNvmeSsd, &clock);
  pool.AddCluster(3, 2, 256 << 20);
  sim::NetworkModel bus(sim::NetworkProfile::Rdma(), &clock);
  kv::KvStore index;  // PLog record index (Fig. 4)
  kv::KvStore meta;   // dispatcher topology and consumer offsets
  storage::PlogStoreConfig config;
  config.num_shards = 8;
  config.plog.capacity = 16 << 20;
  config.plog.redundancy = storage::RedundancyConfig::Replication(3);
  storage::PlogStore plogs(&pool, config, &clock);

  // --- The data service layer, before the crash ---
  auto objects =
      std::make_unique<stream::StreamObjectManager>(&plogs, &index, &clock);
  auto dispatcher = std::make_unique<streaming::StreamDispatcher>(
      objects.get(), &meta, &bus, &clock, 3);
  streaming::TopicConfig topic;
  topic.stream_num = 4;
  SL_CHECK_OK(dispatcher->CreateTopic("events", topic));
  streaming::Producer producer(dispatcher.get());
  for (int i = 0; i < 200; ++i) {
    SL_CHECK_OK(producer
                    .Send("events", streaming::Message("k" + std::to_string(i),
                                                       "v" + std::to_string(i)))
                    .status());
  }
  for (uint32_t s = 0; s < topic.stream_num; ++s) {
    SL_CHECK_OK(objects->GetObject(*dispatcher->StreamObjectId("events", s))
                    ->Flush());
  }
  streaming::Consumer consumer(dispatcher.get(), &meta, "billing");
  SL_CHECK_OK(consumer.Subscribe("events"));
  const size_t read_before = consumer.Poll(120)->size();
  SL_CHECK_OK(consumer.CommitOffsets());
  std::printf("before the crash: 200 messages produced, 'billing' read and "
              "committed %zu\n",
              read_before);

  // --- Crash: the manager and the dispatcher die; storage survives ---
  dispatcher.reset();
  objects.reset();
  objects =
      std::make_unique<stream::StreamObjectManager>(&plogs, &index, &clock);
  dispatcher = std::make_unique<streaming::StreamDispatcher>(
      objects.get(), &meta, &bus, &clock, 3);
  auto recovered_objects = objects->RecoverAll();
  SL_CHECK_OK(recovered_objects.status());
  auto recovered_topics = dispatcher->Recover();
  SL_CHECK_OK(recovered_topics.status());
  std::printf("after restart: %zu stream objects and %zu topic recovered "
              "from the KV store\n",
              *recovered_objects, *recovered_topics);

  streaming::Consumer resumed(dispatcher.get(), &meta, "billing");
  SL_CHECK_OK(resumed.Subscribe("events"));
  const size_t rest = resumed.Poll(1000)->size();
  std::printf("'billing' resumes at its committed offsets: %zu remaining "
              "messages\n",
              rest);
  return read_before + rest == 200 ? 0 : 1;
}
