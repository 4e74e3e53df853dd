#include <gtest/gtest.h>

#include "core/streamlake.h"
#include "format/row_codec.h"
#include "oracle/oracle.h"
#include "workload/dpi_log.h"
#include "workload/openmessaging.h"
#include "workload/tpch.h"

namespace streamlake::workload {
namespace {

TEST(DpiLogTest, RowsMatchSchemaAndAreDeterministic) {
  DpiLogGenerator a, b;
  format::Schema schema = DpiLogGenerator::Schema();
  for (int i = 0; i < 100; ++i) {
    format::Row row = a.NextRow();
    EXPECT_TRUE(schema.ValidateRow(row).ok());
    EXPECT_EQ(row, b.NextRow());
  }
}

TEST(DpiLogTest, PacketSizeNearTarget) {
  DpiLogOptions options;
  options.packet_bytes = 1200;
  DpiLogGenerator gen(options);
  format::Schema schema = DpiLogGenerator::Schema();
  size_t total = 0;
  constexpr int kSamples = 200;
  for (int i = 0; i < kSamples; ++i) {
    Bytes encoded;
    format::EncodeRow(schema, gen.NextRow(), &encoded);
    total += encoded.size();
  }
  double avg = static_cast<double>(total) / kSamples;
  EXPECT_NEAR(avg, 1200.0, 120.0);  // within 10% of the paper's 1.2 KB
}

TEST(DpiLogTest, TimeAdvancesMonotonically) {
  DpiLogGenerator gen;
  int64_t prev = 0;
  for (int i = 0; i < 1000; ++i) {
    int64_t t = std::get<int64_t>(gen.NextRow().fields[1]);
    EXPECT_GE(t, prev);
    prev = t;
  }
  EXPECT_GT(prev, gen.options().start_time);
}

TEST(DpiLogTest, UrlPopularityIsSkewed) {
  DpiLogGenerator gen;
  int fin_app = 0;
  constexpr int kSamples = 5000;
  for (int i = 0; i < kSamples; ++i) {
    if (std::get<std::string>(gen.NextRow().fields[0]) ==
        DpiLogGenerator::FinAppUrl()) {
      ++fin_app;
    }
  }
  // Rank-0 URL under Zipf must be far above uniform (1/200).
  EXPECT_GT(fin_app, kSamples / 100);
}

TEST(DpiLogTest, MessagesDecodeAsRows) {
  DpiLogGenerator gen;
  streaming::Message msg = gen.NextMessage();
  auto row = format::DecodeRow(DpiLogGenerator::Schema(),
                               ByteView(msg.value));
  ASSERT_TRUE(row.ok());
  EXPECT_EQ(std::get<std::string>(row->fields[2]), msg.key);
}

TEST(TpchTest, LineitemMatchesSchemaAndDomains) {
  TpchLineitemGenerator gen;
  format::Schema schema = TpchLineitemGenerator::Schema();
  for (int i = 0; i < 500; ++i) {
    format::Row row = gen.NextRow();
    ASSERT_TRUE(schema.ValidateRow(row).ok());
    int64_t quantity = std::get<int64_t>(row.fields[2]);
    EXPECT_GE(quantity, 1);
    EXPECT_LE(quantity, 50);
    double discount = std::get<double>(row.fields[4]);
    EXPECT_GE(discount, 0.0);
    EXPECT_LE(discount, 0.10001);
    int64_t ship = std::get<int64_t>(row.fields[5]);
    EXPECT_GE(ship, TpchLineitemGenerator::kShipDateMin);
    EXPECT_LT(ship, TpchLineitemGenerator::kShipDateMax);
    int64_t receipt = std::get<int64_t>(row.fields[6]);
    EXPECT_GT(receipt, ship);
  }
}

TEST(TpchTest, ScaleFactorControlsRowCount) {
  TpchOptions options;
  options.scale_factor = 2;
  options.rows_per_sf = 1000;
  TpchLineitemGenerator gen(options);
  EXPECT_EQ(gen.total_rows(), 2000u);
  EXPECT_EQ(gen.GenerateAll().size(), 2000u);
}

TEST(TpchTest, QueryWorkloadIsSelective) {
  TpchOptions options;
  options.rows_per_sf = 5000;
  TpchLineitemGenerator gen(options);
  std::vector<format::Row> rows = gen.GenerateAll();
  format::Schema schema = TpchLineitemGenerator::Schema();

  TpchQueryGenerator queries(3);
  int nonempty = 0;
  int selective = 0;
  constexpr int kQueries = 50;
  for (int q = 0; q < kQueries; ++q) {
    query::QuerySpec spec = queries.NextQuery();
    size_t matched = 0;
    for (const format::Row& row : rows) {
      if (oracle::Matches(spec.where, schema, row)) ++matched;
    }
    if (matched > 0) ++nonempty;
    if (matched < rows.size() / 2) ++selective;
  }
  EXPECT_GT(nonempty, kQueries / 3);   // not degenerate
  EXPECT_GT(selective, kQueries / 2);  // predicates actually filter
}

TEST(OmbDriverTest, PacedRunMeasuresThroughputAndLatency) {
  core::StreamLake lake;
  kv::KvStore offsets;
  OmbDriver driver(&lake.dispatcher(), &offsets, &lake.clock());
  OmbConfig config;
  config.partitions = 4;
  config.total_messages = 5000;
  config.target_rate = 50000;
  auto result = driver.Run(config);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->messages_produced, 5000u);
  EXPECT_EQ(result->messages_consumed, 5000u);
  // Pacing dominates: achieved throughput ~= offered rate.
  EXPECT_NEAR(result->produce_throughput, 50000, 50000 * 0.2);
  EXPECT_GT(result->end_to_end_p50_us, 0);
  EXPECT_GE(result->end_to_end_p99_us, result->end_to_end_p50_us);
  EXPECT_GE(result->end_to_end_max_us, result->end_to_end_p99_us);
}

TEST(OmbDriverTest, HigherRateDoesNotLoseMessages) {
  core::StreamLake lake;
  kv::KvStore offsets;
  OmbDriver driver(&lake.dispatcher(), &offsets, &lake.clock());
  OmbConfig config;
  config.partitions = 8;
  config.total_messages = 8000;
  config.target_rate = 2e6;  // far past single-pipeline capacity
  auto result = driver.Run(config);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->messages_consumed, 8000u);
  // Saturated: achieved throughput below offered.
  EXPECT_LT(result->produce_throughput, 2e6);
}

}  // namespace
}  // namespace streamlake::workload
