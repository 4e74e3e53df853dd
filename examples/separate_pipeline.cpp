// The architecture StreamLake replaces (Fig. 1(a), the Table I baseline): a
// Kafka-style message store for stream processing and an HDFS-style file
// system for the lake, joined by an ETL job. Messages are produced, read
// back by offset and copied into lake files; both systems keep a full copy,
// each replicated three times, until retention deletes the topic.
//
// Run: ./build/examples/separate_pipeline

#include <cstdio>
#include <string>

#include "baselines/mini_hdfs.h"
#include "baselines/mini_kafka.h"
#include "workload/dpi_log.h"

using namespace streamlake;

int main() {
  sim::SimClock clock;
  storage::StoragePool pool("pool", sim::MediaType::kNvmeSsd, &clock);
  pool.AddCluster(3, 4, 1ULL << 30);
  baselines::MiniKafka kafka(&pool);
  baselines::MiniHdfs hdfs(&pool);

  // --- Collect: DPI messages into a 3-partition topic ---
  const uint32_t partitions = 3;
  SL_CHECK_OK(kafka.CreateTopic("collect", partitions));
  workload::DpiLogGenerator gen;
  for (int i = 0; i < 3000; ++i) {
    SL_CHECK_OK(kafka.Produce("collect", gen.NextMessage()).status());
  }
  SL_CHECK_OK(kafka.Flush());  // page-cache writeback (fsync)

  // --- ETL: each partition, read by offset, becomes one lake file ---
  for (uint32_t p = 0; p < partitions; ++p) {
    auto end = kafka.EndOffset("collect", p);
    SL_CHECK_OK(end.status());
    Bytes file;
    for (uint64_t offset = 0; offset < *end;) {
      auto batch = kafka.Fetch("collect", p, offset, 256);
      SL_CHECK_OK(batch.status());
      if (batch->empty()) return 1;
      for (const streaming::Message& msg : *batch) {
        AppendBytes(&file, ByteView(msg.value));
      }
      offset += batch->size();
    }
    SL_CHECK_OK(hdfs.WriteFile("/lake/collect/part-" + std::to_string(p),
                               ByteView(file)));
    std::printf("partition %u: %llu messages -> /lake/collect/part-%u\n", p,
                static_cast<unsigned long long>(*end), p);
  }
  for (const std::string& path : hdfs.List("/lake/collect/")) {
    std::printf("  %s: %llu bytes\n", path.c_str(),
                static_cast<unsigned long long>(*hdfs.FileSize(path)));
  }

  // --- Storage: two full copies, each three times over ---
  std::printf("kafka: %.1f KB logical, %.1f KB physical\n",
              kafka.TotalLogicalBytes() / 1024.0,
              kafka.TotalPhysicalBytes() / 1024.0);
  std::printf("hdfs:  %.1f KB logical, %.1f KB physical\n",
              hdfs.TotalLogicalBytes() / 1024.0,
              hdfs.TotalPhysicalBytes() / 1024.0);

  // --- Retention: the topic expires; a staging file is cleaned up ---
  SL_CHECK_OK(hdfs.WriteFile("/lake/_staging", ByteView("tmp")));
  SL_CHECK_OK(hdfs.DeleteFile("/lake/_staging"));
  SL_CHECK_OK(kafka.DeleteTopic("collect"));
  std::printf("after retention: kafka holds %llu bytes; staging file "
              "exists=%d\n",
              static_cast<unsigned long long>(kafka.TotalPhysicalBytes()),
              hdfs.Exists("/lake/_staging"));
  return 0;
}
