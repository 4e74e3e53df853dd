// Quickstart: bring up a StreamLake cluster, publish log messages, convert
// the stream to a table object, and run the paper's DAU query (Fig. 13)
// with computation pushdown.
//
// Build & run:  cmake -B build -G Ninja && cmake --build build
//               ./build/examples/quickstart

#include <cstdio>

#include "core/streamlake.h"
#include "workload/dpi_log.h"

using namespace streamlake;

int main() {
  // 1. A 3-node StreamLake cluster (simulated OceanStor substrate).
  core::StreamLake lake;

  // 2. Declare a topic whose messages auto-convert to a table object
  //    (the convert_2_table block of Fig. 8).
  streaming::TopicConfig config;
  config.stream_num = 3;
  config.convert_2_table.enabled = true;
  config.convert_2_table.table_schema = workload::DpiLogGenerator::Schema();
  config.convert_2_table.table_path = "dpi_logs";
  config.convert_2_table.partition_spec =
      table::PartitionSpec::Identity("province");
  config.convert_2_table.split_offset = 1000;
  config.convert_2_table.delete_msg = true;  // keep ONE copy of the data
  if (!lake.dispatcher().CreateTopic("topic_streamlake_test", config).ok()) {
    std::fprintf(stderr, "failed to create topic\n");
    return 1;
  }

  // 3. Produce messages (Fig. 7's producer API).
  workload::DpiLogGenerator gen;
  auto producer = lake.NewProducer();
  for (int i = 0; i < 5000; ++i) {
    auto offset = producer.Send("topic_streamlake_test", gen.NextMessage());
    if (!offset.ok()) {
      std::fprintf(stderr, "send failed: %s\n",
                   offset.status().ToString().c_str());
      return 1;
    }
  }
  std::printf("produced 5000 messages\n");

  // 4. The background conversion service turns the stream into a table.
  auto converted = lake.converter().Run("topic_streamlake_test");
  if (!converted.ok()) {
    std::fprintf(stderr, "conversion failed: %s\n",
                 converted.status().ToString().c_str());
    return 1;
  }
  std::printf("converted %llu records into table '%s' (stream copy trimmed)\n",
              static_cast<unsigned long long>(converted->converted_records),
              converted->table_name.c_str());

  // 5. Query it with the Fig. 13 SQL, pushed down into storage.
  table::SelectMetrics metrics;
  auto result = lake.Query(
      "SELECT COUNT(*) AS DAU "
      "FROM dpi_logs "
      "WHERE url = 'http://streamlake_fin_app.com' "
      "GROUP BY province "
      "ORDER BY DAU DESC",
      &metrics);
  if (!result.ok()) {
    std::fprintf(stderr, "query failed: %s\n",
                 result.status().ToString().c_str());
    return 1;
  }
  std::printf("\n%-16s %s\n", "province", "DAU");
  for (const format::Row& row : result->rows) {
    std::printf("%-16s %lld\n",
                std::get<std::string>(row.fields[0]).c_str(),
                static_cast<long long>(std::get<int64_t>(row.fields[1])));
  }
  std::printf(
      "\nfiles scanned=%llu skipped=%llu | bytes to compute=%llu "
      "(pushdown) | simulated query time=%.2f ms\n",
      static_cast<unsigned long long>(metrics.files_scanned),
      static_cast<unsigned long long>(metrics.files_skipped),
      static_cast<unsigned long long>(metrics.bytes_to_compute),
      metrics.elapsed_ns / 1e6);
  return 0;
}
