// Reproduces Table I: StreamLake vs HDFS + Kafka over the Fig. 12 ETL
// pipeline, sweeping the input size. The paper runs 10M..1B packets of
// 1.2 KB on a 3-node cluster; we scale the packet counts down 1000x and
// compare the same three rows:
//   * storage usage after the pipeline (GB -> MB here),
//   * message processing throughput (messages/second),
//   * batch processing time (simulated seconds).
//
// Run: ./build/bench/bench_table1 [scale_divisor] [--json_out=PATH]
//
// --json_out reports the rows that repeat exactly from run to run — both
// storage rows and both batch-time rows (simulated seconds) — as
// "p<packets>.<row>"; the wall-clock msg/s rows are printed only.

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "baselines/mini_hdfs.h"
#include "bench_report.h"
#include "baselines/mini_kafka.h"
#include "core/streamlake.h"
#include "format/row_codec.h"
#include "workload/dpi_log.h"

using namespace streamlake;

namespace {

struct Row {
  uint64_t packets;
  double s_storage_mb, hk_storage_mb;
  double s_msgs_per_sec, k_msgs_per_sec;
  double s_batch_sec, h_batch_sec;
};

// One ETL job's logical work: parse + tag rows (normalization/labeling).
void TouchRows(std::vector<format::Row>* rows) {
  for (format::Row& row : *rows) {
    int64_t& bytes = std::get<int64_t>(row.fields[4]);
    bytes = bytes < 64 ? 64 : bytes;  // "validated accuracy and quality"
  }
}

Row RunOnePoint(uint64_t packets) {
  Row out{};
  out.packets = packets;
  const format::Schema schema = workload::DpiLogGenerator::Schema();

  // ---------------- StreamLake ----------------
  {
    core::StreamLakeOptions options;
    options.ssd_capacity_per_disk = 16ULL << 30;
    // Production deployments protect data with erasure coding (the TCO
    // lever of Section I); EC(4,1) tolerates one node loss like the paper.
    options.plog.plog.redundancy = storage::RedundancyConfig::ErasureCoding(4, 1);
    core::StreamLake lake(options);

    streaming::TopicConfig config;
    config.stream_num = 3;
    config.convert_2_table.enabled = true;
    config.convert_2_table.table_schema = schema;
    config.convert_2_table.table_path = "dpi";
    config.convert_2_table.partition_spec =
        table::PartitionSpec::Identity("province");
    config.convert_2_table.split_offset = 1;
    config.convert_2_table.delete_msg = true;  // one copy for both modes
    SL_CHECK_OK(lake.dispatcher().CreateTopic("collect", config));

    // Message streaming: measure real-time produce throughput.
    workload::DpiLogGenerator gen;
    auto producer = lake.NewProducer();
    auto wall_start = std::chrono::steady_clock::now();
    for (uint64_t i = 0; i < packets; ++i) {
      auto status = producer.Send("collect", gen.NextMessage());
      if (!status.ok()) {
        std::fprintf(stderr, "streamlake produce: %s\n",
                     status.status().ToString().c_str());
        std::exit(1);
      }
    }
    double wall_sec = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - wall_start)
                          .count();
    out.s_msgs_per_sec = packets / wall_sec;

    // Batch: conversion (normalize+label run on the single copy via
    // time-travel re-reads instead of fresh copies) + the DAU query.
    double batch_start = lake.clock().NowSeconds();
    auto converted = lake.converter().Run("collect");
    if (!converted.ok()) {
      std::fprintf(stderr, "convert: %s\n",
                   converted.status().ToString().c_str());
      std::exit(1);
    }
    auto table = lake.lakehouse().GetTable("dpi");
    // Normalization + labeling as lakehouse updates (only changed rows
    // are written).
    SL_CHECK_OK((*table)->Update(
        query::Conjunction{query::Predicate::Lt("bytes",
                                                format::Value(int64_t{80}))},
        "bytes", format::Value(int64_t{80})));
    query::QuerySpec dau;
    dau.where.Add(query::Predicate::Eq(
        "url",
        format::Value(std::string(workload::DpiLogGenerator::FinAppUrl()))));
    dau.group_by = {"province"};
    dau.aggregates = {query::AggregateSpec::CountStar("DAU")};
    auto result = (*table)->Select(dau);
    if (!result.ok()) {
      std::fprintf(stderr, "select: %s\n", result.status().ToString().c_str());
      std::exit(1);
    }
    SL_CHECK_OK(lake.RunBackgroundWork());
    out.s_batch_sec = lake.clock().NowSeconds() - batch_start;
    out.s_storage_mb = lake.plogs().TotalLivePhysicalBytes() / 1048576.0;
  }

  // ---------------- HDFS + Kafka ----------------
  {
    sim::SimClock clock;
    storage::StoragePool pool("pool", sim::MediaType::kNvmeSsd, &clock);
    pool.AddCluster(3, 4, 64ULL << 30);
    baselines::MiniKafka kafka(&pool);
    baselines::MiniHdfs hdfs(&pool);
    SL_CHECK_OK(kafka.CreateTopic("collect", 3));

    workload::DpiLogGenerator gen;
    std::vector<format::Row> rows;
    rows.reserve(packets);
    auto wall_start = std::chrono::steady_clock::now();
    for (uint64_t i = 0; i < packets; ++i) {
      streaming::Message msg = gen.NextMessage();
      auto status = kafka.Produce("collect", msg);
      if (!status.ok()) {
        std::fprintf(stderr, "kafka produce: %s\n",
                     status.status().ToString().c_str());
        std::exit(1);
      }
      rows.push_back(*format::DecodeRow(schema, ByteView(msg.value)));
    }
    double wall_sec = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - wall_start)
                          .count();
    out.k_msgs_per_sec = packets / wall_sec;

    // Batch: "a new copy of all data is written to HDFS and Kafka after
    // each job" — collection output, normalization output, labeling
    // output, then the query reads the final copy fully.
    double batch_start = clock.NowSeconds();
    for (int stage = 0; stage < 3; ++stage) {
      TouchRows(&rows);
      Bytes blob;
      for (const format::Row& row : rows) {
        format::EncodeRow(schema, row, &blob);
      }
      SL_CHECK_OK(hdfs.WriteFile("/etl/stage-" + std::to_string(stage), ByteView(blob)));
    }
    auto final_copy = hdfs.ReadFile("/etl/stage-2");
    if (!final_copy.ok()) std::exit(1);
    Decoder dec{ByteView(*final_copy)};
    std::map<std::string, int64_t> dau;
    while (dec.Remaining() > 0) {
      auto row = format::DecodeRow(schema, &dec);
      if (!row.ok()) break;
      if (std::get<std::string>(row->fields[0]) ==
          workload::DpiLogGenerator::FinAppUrl()) {
        dau[std::get<std::string>(row->fields[2])]++;
      }
    }
    out.h_batch_sec = clock.NowSeconds() - batch_start;
    out.hk_storage_mb =
        (kafka.TotalPhysicalBytes() + hdfs.TotalPhysicalBytes()) / 1048576.0;
  }
  return out;
}

// The scale divisor: decimal digits only, greater than 0 (the sweep
// divides by it).
bool ParseDivisor(const char* arg, uint64_t* divisor) {
  if (*arg == '\0') return false;
  for (const char* p = arg; *p != '\0'; ++p) {
    if (*p < '0' || *p > '9') return false;
  }
  errno = 0;
  *divisor = std::strtoull(arg, nullptr, 10);
  return errno == 0 && *divisor > 0;
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchReport report("table1", &argc, argv);
  // Default sweep: the paper's packet counts divided by 2000 (sized so
  // the simulated cluster's page store fits in laptop RAM).
  uint64_t divisor = 2000;
  if (argc > 2 || (argc == 2 && !ParseDivisor(argv[1], &divisor))) {
    std::fprintf(stderr, "usage: bench_table1 [scale_divisor > 0]\n");
    return 2;
  }
  std::vector<uint64_t> sweep = {10'000'000 / divisor, 50'000'000 / divisor,
                                 100'000'000 / divisor, 500'000'000 / divisor,
                                 1'000'000'000 / divisor};
  std::printf("Table I (packets scaled 1/%llu; storage in MB, batch time in "
              "simulated seconds)\n\n",
              static_cast<unsigned long long>(divisor));
  std::printf("%-28s", "#-Data Packet");
  std::vector<Row> results;
  for (uint64_t packets : sweep) {
    std::printf(" %12llu", static_cast<unsigned long long>(packets));
    results.push_back(RunOnePoint(packets));
  }
  std::printf("\n");
  auto print_row = [&](const char* label, auto getter, const char* fmt) {
    std::printf("%-28s", label);
    for (const Row& r : results) std::printf(fmt, getter(r));
    std::printf("\n");
  };
  print_row("Storage  StreamLake (MB)", [](const Row& r) { return r.s_storage_mb; }, " %12.1f");
  print_row("Usage    HDFS+Kafka (MB)", [](const Row& r) { return r.hk_storage_mb; }, " %12.1f");
  print_row("         Ratio (HK/S)", [](const Row& r) { return r.hk_storage_mb / r.s_storage_mb; }, " %12.2f");
  print_row("Batch    StreamLake (s)", [](const Row& r) { return r.s_batch_sec; }, " %12.2f");
  print_row("Process  HDFS (s)", [](const Row& r) { return r.h_batch_sec; }, " %12.2f");
  print_row("         Ratio (H/S)", [](const Row& r) { return r.h_batch_sec / r.s_batch_sec; }, " %12.2f");
  // Real time of this process: it differs run to run, so it stays below
  // the deterministic rows above and out of the JSON.
  std::printf("\nwall clock, informational\n");
  print_row("Message  StreamLake (msg/s)", [](const Row& r) { return r.s_msgs_per_sec; }, " %12.0f");
  print_row("Process  Kafka (msg/s)", [](const Row& r) { return r.k_msgs_per_sec; }, " %12.0f");
  print_row("         Ratio (K/S)", [](const Row& r) { return r.k_msgs_per_sec / r.s_msgs_per_sec; }, " %12.2f");
  for (const Row& r : results) {
    const std::string point = "p" + std::to_string(r.packets) + ".";
    report.Add(point + "streamlake_storage_mb", r.s_storage_mb);
    report.Add(point + "hdfs_kafka_storage_mb", r.hk_storage_mb);
    report.Add(point + "streamlake_batch_s", r.s_batch_sec);
    report.Add(point + "hdfs_batch_s", r.h_batch_sec);
  }
  return report.WriteIfRequested() ? 0 : 1;
}
