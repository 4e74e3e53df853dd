// Streaming ETL with enterprise features: exactly-once transactional
// produce (2PC) and idempotent retries, consumer-group offsets and replay
// by event time, elastic scaling of stream workers and partitions without
// data migration, worker failover, an OpenMessaging-style benchmark run,
// columnar archiving, and SSD->HDD tiering.
//
// Run: ./build/examples/streaming_etl

#include <cstdio>

#include "core/streamlake.h"
#include "workload/dpi_log.h"
#include "workload/openmessaging.h"

using namespace streamlake;

int main() {
  core::StreamLakeOptions options;
  options.tiering_policy.cold_after_ns = 60 * sim::kSecond;
  options.plog.plog.capacity = 4 << 20;
  core::StreamLake lake(options);

  streaming::TopicConfig config;
  config.stream_num = 4;
  config.archive.enabled = true;
  config.archive.archive_size_mb = 0;  // archive eagerly for the demo
  config.archive.row_2_col = true;
  if (!lake.dispatcher().CreateTopic("payments", config).ok()) return 1;

  // --- Exactly-once produce: all-or-nothing batches via 2PC ---
  auto txns = lake.NewTransactionManager();
  workload::DpiLogGenerator gen;
  int committed = 0, aborted = 0;
  for (int batch = 0; batch < 20; ++batch) {
    auto txn = txns.Begin();
    if (!txn.ok()) return 1;
    for (int i = 0; i < 100; ++i) {
      SL_CHECK_OK(txns.Send(*txn, "payments", gen.NextMessage()));
    }
    if (batch % 5 == 4) {
      SL_CHECK_OK(txns.Abort(*txn));  // e.g. an upstream validation failed
      ++aborted;
    } else {
      if (!txns.Commit(*txn).ok()) return 1;
      ++committed;
    }
  }
  std::printf("transactions: %d committed, %d aborted\n", committed, aborted);

  auto consumer = lake.NewConsumer("etl");
  if (!consumer.Subscribe("payments").ok()) return 1;
  auto polled = consumer.Poll(100000);
  std::printf("consumer sees %zu messages (only committed batches: %d)\n",
              polled->size(), committed * 100);

  // --- Idempotent retry: a re-send after a timeout is dropped ---
  auto producer = lake.NewProducer();
  SL_CHECK_OK(producer.Send("payments", gen.NextMessage()).status());
  SL_CHECK_OK(producer.ResendLast().status());
  auto after_retry = consumer.Poll(100000);
  std::printf("one send + one retry: consumer sees %zu new message\n",
              after_retry->size());

  // --- Consumer groups: committed offsets outlive the consumer ---
  SL_CHECK_OK(consumer.CommitOffsets());
  auto restarted = lake.NewConsumer("etl");
  if (!restarted.Subscribe("payments").ok()) return 1;
  std::printf("a restarted 'etl' consumer resumes at the commit: %zu new "
              "messages\n",
              restarted.Poll(100000)->size());

  // --- Replay by event time (offsetsForTimes + seek) ---
  const int64_t midpoint = (*polled)[polled->size() / 2].message.timestamp;
  auto audit = lake.NewConsumer("audit");
  if (!audit.Subscribe("payments").ok()) return 1;
  SL_CHECK_OK(audit.SeekToTimestamp("payments", midpoint));
  std::printf("audit consumer seeks to event time %lld: replays %zu "
              "messages\n",
              static_cast<long long>(midpoint), audit.Poll(100000)->size());

  // --- Elastic scaling: metadata-only, measured on the simulated clock ---
  uint64_t before_ns = lake.clock().NowNanos();
  SL_CHECK_OK(lake.dispatcher().ResizeWorkers(12));
  SL_CHECK_OK(lake.dispatcher().AddStreams("payments", 60));
  uint64_t scale_ns = lake.clock().NowNanos() - before_ns;
  std::printf("scaled 4->64 partitions, 3->12 workers in %.3f simulated ms "
              "(no data migration)\n", scale_ns / 1e6);

  // --- Failover: worker 0 stops heartbeating, its streams move ---
  lake.clock().Advance(30 * sim::kSecond);
  for (uint32_t w = 1; w < lake.dispatcher().num_workers(); ++w) {
    lake.dispatcher().Heartbeat(w);
  }
  auto sweep = lake.dispatcher().SweepDeadWorkers(10 * sim::kSecond);
  SL_CHECK_OK(sweep.status());
  std::printf("health sweep: %u dead worker, %u streams reassigned; worker 0 "
              "now serves %zu\n",
              sweep->dead_workers, sweep->streams_reassigned,
              lake.dispatcher().worker(0)->num_streams());

  // --- OpenMessaging-style paced run on its own topic ---
  kv::KvStore omb_offsets;
  workload::OmbDriver omb(&lake.dispatcher(), &omb_offsets, &lake.clock());
  workload::OmbConfig omb_config;
  omb_config.partitions = 8;
  omb_config.total_messages = 5000;
  auto omb_result = omb.Run(omb_config);
  SL_CHECK_OK(omb_result.status());
  std::printf("OMB: %llu msgs at %.0f msg/s, end-to-end p50 %.0f us, p99 "
              "%.0f us (simulated)\n",
              static_cast<unsigned long long>(omb_result->messages_consumed),
              omb_result->produce_throughput, omb_result->end_to_end_p50_us,
              omb_result->end_to_end_p99_us);
  SL_CHECK_OK(lake.dispatcher().DeleteTopic(omb_config.topic));
  std::printf("deleted topic '%s': exists=%d\n", omb_config.topic.c_str(),
              lake.dispatcher().HasTopic(omb_config.topic));

  // --- Columnar archive ---
  auto archived = lake.archive().Run("payments", /*force=*/true);
  if (!archived.ok()) return 1;
  std::printf("archived %llu records: %.1f KB raw -> %.1f KB columnar "
              "(%.1fx smaller)\n",
              static_cast<unsigned long long>(archived->archived_records),
              archived->source_bytes / 1024.0,
              archived->archived_bytes / 1024.0,
              static_cast<double>(archived->source_bytes) /
                  archived->archived_bytes);

  // --- Tiering: cold PLogs sink to the HDD pool ---
  lake.clock().Advance(3600 * sim::kSecond);
  if (!lake.RunBackgroundWork().ok()) return 1;
  std::printf("after tiering: ssd=%.1f MB, hdd=%.1f MB allocated\n",
              lake.ssd_pool().AllocatedBytes() / 1048576.0,
              lake.hdd_pool().AllocatedBytes() / 1048576.0);

  std::printf("\n--- cluster report ---\n%s",
              lake.Report().ToString().c_str());
  return 0;
}
