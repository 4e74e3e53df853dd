// Late-materialization columnar scan: decode cost of a selective
// 2-of-16-column query vs decoding everything.
//
// The table is 16 columns wide: a dictionary-encoded `tag`, an int64 `ts`,
// and 14 wide string payload columns the query never touches. Row groups
// alternate their tag content — even groups hold {"t-1","t-5"}, odd groups
// hold {"t-3"} — so the probe literal "t-3" sits inside every group's
// [min, max] (stats cannot prune) but is absent from every even group's
// dictionary: the scan must discover that in code space, without decoding
// a single payload column.
//
// All metrics are deterministic (fixed data, serial scan, simulated
// clock), so the CI baseline gates them at zero tolerance:
//   * bytes_decoded / columns_decoded / rows_materialized /
//     dict_code_prunes of the selective query,
//   * decode_ratio = selective bytes_decoded / decode-all bytes_decoded
//     (the late-materialization headline: must stay well under 0.2),
//   * warm_bytes_read == 0 and warm_bytes_decoded == 0 (a repeat query
//     through the per-column block cache touches neither storage nor the
//     decoder), and
//   * identical == 1 (cached and uncached runs agree byte-for-byte), and
//   * for SELECT tag, COUNT(*), SUM(ts) WHERE ts >= 1000 GROUP BY tag,
//     aggregate_identical == 1 (the batch aggregate, folded from decoded
//     chunks through the selection vector, equals query::Execute over the
//     decoded rows) and aggregate_rows_materialized == 0 (no row is
//     built for it).

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_report.h"
#include "query/executor.h"
#include "table/block_cache.h"
#include "table/lakehouse.h"

using namespace streamlake;

namespace {

constexpr size_t kPayloadColumns = 14;
constexpr size_t kRows = 4096;
constexpr size_t kRowsPerGroup = 128;

format::Schema WideSchema() {
  std::vector<format::Field> fields = {{"tag", format::DataType::kString},
                                       {"ts", format::DataType::kInt64}};
  for (size_t c = 0; c < kPayloadColumns; ++c) {
    fields.push_back({"p" + std::to_string(c), format::DataType::kString});
  }
  return format::Schema{fields};
}

struct Fixture {
  sim::SimClock clock;
  storage::StoragePool pool{"ssd", sim::MediaType::kNvmeSsd, &clock};
  sim::NetworkModel compute_link{sim::NetworkProfile::Rdma(), &clock};
  kv::KvStore object_index;
  kv::KvStore meta_cache;
  std::unique_ptr<table::DecodedBlockCache> cache;
  std::unique_ptr<storage::PlogStore> plogs;
  std::unique_ptr<storage::ObjectStore> objects;
  std::unique_ptr<table::MetadataStore> meta;
  std::unique_ptr<table::LakehouseService> lakehouse;
  table::Table* table = nullptr;

  explicit Fixture(uint64_t cache_bytes) {
    pool.AddCluster(3, 2, 512 << 20);
    storage::PlogStoreConfig config;
    config.num_shards = 16;
    config.plog.capacity = 64 << 20;
    config.plog.stripe_unit = 4096;
    config.plog.redundancy = storage::RedundancyConfig::Replication(3);
    plogs = std::make_unique<storage::PlogStore>(&pool, config, &clock);
    objects = std::make_unique<storage::ObjectStore>(plogs.get(),
                                                     &object_index);
    meta = std::make_unique<table::MetadataStore>(
        objects.get(), &meta_cache, table::MetadataMode::kAccelerated);
    if (cache_bytes > 0) {
      cache = std::make_unique<table::DecodedBlockCache>(cache_bytes);
    }
    table::TableOptions options;
    options.max_rows_per_file = 512;  // 8 files x 4 row groups
    options.file_options.rows_per_group = kRowsPerGroup;
    lakehouse = std::make_unique<table::LakehouseService>(
        meta.get(), objects.get(), &clock, &compute_link, options,
        /*scan_pool=*/nullptr, cache.get());
    auto created = lakehouse->CreateTable("wide", WideSchema(),
                                          table::PartitionSpec::None());
    SL_CHECK_OK(created.status());
    table = *created;

    std::vector<format::Row> rows;
    rows.reserve(kRows);
    for (size_t i = 0; i < kRows; ++i) {
      bool even_group = (i / kRowsPerGroup) % 2 == 0;
      format::Row row;
      row.fields.reserve(2 + kPayloadColumns);
      // Even groups: 2-entry dictionary {t-1, t-5}; odd groups: {t-3}.
      row.fields.push_back(format::Value(
          even_group ? (i % 2 ? std::string("t-1") : std::string("t-5"))
                     : std::string("t-3")));
      row.fields.push_back(format::Value(static_cast<int64_t>(i)));
      for (size_t c = 0; c < kPayloadColumns; ++c) {
        // Wide, high-NDV payload: plain-encoded, expensive to decode.
        row.fields.push_back(format::Value("payload-" + std::to_string(c) +
                                           "-" + std::to_string(i) +
                                           std::string(24, 'x')));
      }
      rows.push_back(std::move(row));
    }
    SL_CHECK_OK(table->Insert(rows));
  }
};

query::QuerySpec SelectiveSpec() {
  query::QuerySpec spec;  // 2 of 16 columns: tag (predicate) + ts (output)
  spec.where.Add(
      query::Predicate::Eq("tag", format::Value(std::string("t-3"))));
  spec.projection = {"ts"};
  spec.order_by = "ts";
  return spec;
}

query::QuerySpec GroupBySpec() {
  query::QuerySpec spec;
  spec.where.Add(query::Predicate::Ge("ts", format::Value(int64_t{1000})));
  spec.group_by = {"tag"};
  spec.aggregates = {query::AggregateSpec::CountStar("c"),
                     query::AggregateSpec::Sum("ts", "s")};
  return spec;
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchReport report("columnar_scan", &argc, argv);
  std::printf("Late-materialization scan: %zu rows x %zu columns, "
              "SELECT ts WHERE tag = 't-3' (2 columns touched)\n\n",
              kRows, 2 + kPayloadColumns);

  // Uncached fixture: the decode-all baseline, then the selective scan.
  Fixture plain(/*cache_bytes=*/0);
  table::SelectMetrics all_m, sel_m;
  query::QuerySpec star;  // SELECT *: decodes every chunk
  auto all = plain.table->Select(star, {}, &all_m);
  SL_CHECK_OK(all.status());
  auto sel = plain.table->Select(SelectiveSpec(), {}, &sel_m);
  SL_CHECK_OK(sel.status());

  double ratio = all_m.bytes_decoded > 0
                     ? static_cast<double>(sel_m.bytes_decoded) /
                           static_cast<double>(all_m.bytes_decoded)
                     : 1.0;
  std::printf("%-24s | %12s | %12s\n", "", "decode-all", "selective");
  std::printf("%-24s | %12llu | %12llu\n", "bytes_decoded",
              static_cast<unsigned long long>(all_m.bytes_decoded),
              static_cast<unsigned long long>(sel_m.bytes_decoded));
  std::printf("%-24s | %12llu | %12llu\n", "columns_decoded",
              static_cast<unsigned long long>(all_m.columns_decoded),
              static_cast<unsigned long long>(sel_m.columns_decoded));
  std::printf("%-24s | %12llu | %12llu\n", "rows_materialized",
              static_cast<unsigned long long>(all_m.rows_materialized),
              static_cast<unsigned long long>(sel_m.rows_materialized));
  std::printf("%-24s | %12s | %12llu\n", "dict_code_prunes", "-",
              static_cast<unsigned long long>(sel_m.dict_code_prunes));
  std::printf("\ndecode_ratio = %.4f (late materialization target: < 0.2)\n",
              ratio);

  // Cached fixture: cold populates the per-column cache, warm must touch
  // neither storage nor the decoder, and results stay byte-identical.
  Fixture cached(/*cache_bytes=*/64ULL << 20);
  table::SelectMetrics cold_m, warm_m;
  auto cold = cached.table->Select(SelectiveSpec(), {}, &cold_m);
  SL_CHECK_OK(cold.status());
  auto warm = cached.table->Select(SelectiveSpec(), {}, &warm_m);
  SL_CHECK_OK(warm.status());
  bool identical = cold->rows == sel->rows && warm->rows == sel->rows &&
                   cold->column_names == sel->column_names;
  std::printf("warm repeat: bytes_read=%llu bytes_decoded=%llu "
              "identical=%d\n",
              static_cast<unsigned long long>(warm_m.data_bytes_read),
              static_cast<unsigned long long>(warm_m.bytes_decoded),
              identical);

  // GROUP BY over the same fixture: the batch aggregate against the row
  // executor over the decoded rows of the SELECT * above.
  table::SelectMetrics agg_m;
  auto agg = plain.table->Select(GroupBySpec(), {}, &agg_m);
  SL_CHECK_OK(agg.status());
  auto oracle = query::Execute(WideSchema(), all->rows, GroupBySpec());
  SL_CHECK_OK(oracle.status());
  bool agg_identical = agg->rows == oracle->rows &&
                       agg->column_names == oracle->column_names;
  std::printf("group by tag: groups=%zu rows_materialized=%llu "
              "identical=%d\n",
              agg->rows.size(),
              static_cast<unsigned long long>(agg_m.rows_materialized),
              agg_identical);

  report.Add("bytes_decoded", static_cast<double>(sel_m.bytes_decoded));
  report.Add("columns_decoded", static_cast<double>(sel_m.columns_decoded));
  report.Add("rows_materialized",
             static_cast<double>(sel_m.rows_materialized));
  report.Add("dict_code_prunes", static_cast<double>(sel_m.dict_code_prunes));
  report.Add("decode_all_bytes", static_cast<double>(all_m.bytes_decoded));
  report.Add("decode_ratio", ratio);
  report.Add("warm_bytes_read", static_cast<double>(warm_m.data_bytes_read));
  report.Add("warm_bytes_decoded", static_cast<double>(warm_m.bytes_decoded));
  report.Add("identical", identical ? 1.0 : 0.0);
  report.Add("aggregate_identical", agg_identical ? 1.0 : 0.0);
  report.Add("aggregate_rows_materialized",
             static_cast<double>(agg_m.rows_materialized));
  return report.WriteIfRequested() ? 0 : 1;
}
