// Ablation: copy-on-write vs merge-on-read deletes (Section VI-A motivates
// auto-compaction with the "low query performance on merge-on-read
// tables" that accumulation of deltas causes).
//
// Sweeps the number of DELETE statements applied to a fixed table and
// reports, for both delete modes:
//   * total simulated delete time (MOR wins: no file rewrites),
//   * query time after the deletes (COW wins: no masking work),
//   * query time after compaction (MOR recovers: deletes applied
//     physically) — the LakeBrain story in one table.
//
// Every figure is simulated time, so --json_out=PATH (bench_report.h)
// reports deterministic values; CI gates the delete-side ones.

#include <cstdio>
#include <string>
#include <vector>

#include "bench_report.h"
#include "core/streamlake.h"
#include "workload/tpch.h"

using namespace streamlake;

namespace {

struct ModeResult {
  double delete_time_ms = 0;
  double query_after_deletes_ms = 0;
  double query_after_compaction_ms = 0;
  int64_t final_count = 0;
};

ModeResult Run(table::DeleteMode mode, int num_deletes) {
  core::StreamLakeOptions lake_options;
  lake_options.ssd_capacity_per_disk = 8ULL << 30;
  lake_options.table_options.delete_mode = mode;
  // Ingestion-sized files so compaction has small files to merge.
  lake_options.table_options.max_rows_per_file = 8192;
  core::StreamLake lake(lake_options);
  auto created = lake.lakehouse().CreateTable(
      "lineitem", workload::TpchLineitemGenerator::Schema(),
      table::PartitionSpec::None());
  if (!created.ok()) std::exit(1);
  table::Table* table = *created;

  workload::TpchOptions gen_options;
  gen_options.rows_per_sf = 40000;
  workload::TpchLineitemGenerator gen(gen_options);
  if (!table->Insert(gen.GenerateAll()).ok()) std::exit(1);

  // Deletes carve disjoint quantity slivers (each ~2% of rows).
  uint64_t t0 = lake.clock().NowNanos();
  for (int d = 0; d < num_deletes; ++d) {
    query::Conjunction where{
        query::Predicate::Eq("l_quantity",
                             format::Value(static_cast<int64_t>(1 + d)))};
    auto deleted = table->Delete(where);
    if (!deleted.ok()) std::exit(1);
  }
  ModeResult result;
  result.delete_time_ms = (lake.clock().NowNanos() - t0) / 1e6;

  query::QuerySpec count;
  count.aggregates = {query::AggregateSpec::CountStar()};
  auto run_query = [&]() {
    table::SelectMetrics metrics;
    auto r = table->Select(count, {}, &metrics);
    if (!r.ok()) std::exit(1);
    result.final_count = std::get<int64_t>(r->rows[0].fields[0]);
    return metrics.elapsed_ns / 1e6;
  };
  result.query_after_deletes_ms = run_query();

  if (!table->CompactPartition("").ok()) std::exit(1);
  result.query_after_compaction_ms = run_query();
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchReport report("ablation_mor", &argc, argv);
  std::printf("Ablation: copy-on-write vs merge-on-read deletes "
              "(40k-row lineitem)\n\n");
  std::printf("%9s | %12s %12s %15s | %12s %12s %15s | %10s\n", "#deletes",
              "COW del ms", "COW qry ms", "COW qry+compact", "MOR del ms",
              "MOR qry ms", "MOR qry+compact", "rows agree");
  for (int deletes : {1, 4, 16, 40}) {
    ModeResult cow = Run(table::DeleteMode::kCopyOnWrite, deletes);
    ModeResult mor = Run(table::DeleteMode::kMergeOnRead, deletes);
    std::printf("%9d | %12.1f %12.2f %15.2f | %12.1f %12.2f %15.2f | %10s\n",
                deletes, cow.delete_time_ms, cow.query_after_deletes_ms,
                cow.query_after_compaction_ms, mor.delete_time_ms,
                mor.query_after_deletes_ms, mor.query_after_compaction_ms,
                cow.final_count == mor.final_count ? "yes" : "NO");
    const std::string d = "d" + std::to_string(deletes) + ".";
    report.Add(d + "cow_delete_ms", cow.delete_time_ms);
    report.Add(d + "cow_query_ms", cow.query_after_deletes_ms);
    report.Add(d + "cow_query_compacted_ms", cow.query_after_compaction_ms);
    report.Add(d + "mor_delete_ms", mor.delete_time_ms);
    report.Add(d + "mor_query_ms", mor.query_after_deletes_ms);
    report.Add(d + "mor_query_compacted_ms", mor.query_after_compaction_ms);
    report.Add(d + "rows_agree", cow.final_count == mor.final_count ? 1 : 0);
  }
  return report.WriteIfRequested() ? 0 : 1;
}
