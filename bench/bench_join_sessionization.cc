// Join sessionization: DPI logs joined with a user dimension through the
// plan-tree query path, over a stalled-I/O store with 1/2/4/8 query
// threads.
//
// The query is the paper's Fig. 13 shape extended with a dimension join:
//   SELECT u.tier, COUNT(*) AS sessions, SUM(l.bytes) AS bytes
//   FROM logs l JOIN users u ON l.user_id = u.user_id
//   WHERE l.start_time BETWEEN ... GROUP BY u.tier ORDER BY u.tier
// Both the probe scan (logs) and the build scan (users) fan out over the
// shared scan pool, so the per-file device dwells overlap and aggregate
// throughput scales with the thread count even on one core (the threads
// sleep, not compute, in parallel).
//
// Gated metrics: `speedup_8t` is a wall-clock ratio (8-thread / 1-thread
// aggregate throughput) — dimensionless and machine-stable, the
// documented exception to the no-wall-clock-gates rule, with a loose 50%
// tolerance. `rows_scanned` / `rows_matched` / `build_rows` /
// `probe_rows` are deterministic completeness checks (exact), and
// `join_identical` (== 1) asserts a parallel run's full result set is
// byte-identical to a serial, cache-less run's.

#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "bench_report.h"
#include "common/metrics.h"
#include "common/threadpool.h"
#include "query/sql_parser.h"
#include "table/block_cache.h"
#include "table/lakehouse.h"

using namespace streamlake;

namespace {

constexpr int kQueriesPerThread = 8;
constexpr int kProvinces = 4;
constexpr int kRowsPerProvince = 1024;  // 4 files of 256 rows each
constexpr int kUsers = 64;
constexpr auto kReadDwell = std::chrono::microseconds(200);

constexpr const char* kSessionizationSql =
    "SELECT u.tier, COUNT(*) AS sessions, SUM(l.bytes) AS bytes "
    "FROM logs l JOIN users u ON l.user_id = u.user_id "
    "WHERE l.start_time BETWEEN 1100 AND 1800 "
    "GROUP BY u.tier ORDER BY u.tier";

format::Schema LogsSchema() {
  return format::Schema{{"url", format::DataType::kString},
                        {"start_time", format::DataType::kInt64},
                        {"province", format::DataType::kString},
                        {"user_id", format::DataType::kInt64},
                        {"bytes", format::DataType::kInt64}};
}

format::Schema UsersSchema() {
  return format::Schema{{"user_id", format::DataType::kInt64},
                        {"name", format::DataType::kString},
                        {"tier", format::DataType::kString}};
}

// A lakehouse with the fact and dimension tables over a PLog store whose
// reads stall, a scan pool of `scan_threads` workers (0 = serial) and an
// optional block cache.
struct JoinFixture {
  sim::SimClock clock;
  storage::StoragePool pool{"ssd", sim::MediaType::kNvmeSsd, &clock};
  sim::NetworkModel compute_link{sim::NetworkProfile::Rdma(), &clock};
  kv::KvStore object_index;
  kv::KvStore meta_cache;
  std::unique_ptr<ThreadPool> scan_pool;
  std::unique_ptr<table::DecodedBlockCache> cache;
  std::unique_ptr<storage::PlogStore> plogs;
  std::unique_ptr<storage::ObjectStore> objects;
  std::unique_ptr<table::MetadataStore> meta;
  std::unique_ptr<table::LakehouseService> lakehouse;

  JoinFixture(int scan_threads, uint64_t cache_bytes) {
    pool.AddCluster(3, 2, 512 << 20);
    storage::PlogStoreConfig config;
    config.num_shards = 64;
    config.num_stripes = 64;
    config.plog.capacity = 32 << 20;
    config.plog.stripe_unit = 4096;
    config.plog.redundancy = storage::RedundancyConfig::Replication(3);
    config.io_read_delay_hook = [](uint32_t) {
      std::this_thread::sleep_for(kReadDwell);
    };
    if (scan_threads > 0) {
      scan_pool = std::make_unique<ThreadPool>(scan_threads, "bench.scan");
    }
    if (cache_bytes > 0) {
      cache = std::make_unique<table::DecodedBlockCache>(cache_bytes);
    }
    plogs = std::make_unique<storage::PlogStore>(&pool, config, &clock);
    objects = std::make_unique<storage::ObjectStore>(plogs.get(),
                                                     &object_index);
    meta = std::make_unique<table::MetadataStore>(
        objects.get(), &meta_cache, table::MetadataMode::kAccelerated);
    table::TableOptions options;
    options.max_rows_per_file = 256;
    options.file_options.rows_per_group = 128;
    lakehouse = std::make_unique<table::LakehouseService>(
        meta.get(), objects.get(), &clock, &compute_link, options,
        scan_pool.get(), cache.get());

    auto logs = lakehouse->CreateTable(
        "logs", LogsSchema(), table::PartitionSpec::Identity("province"));
    SL_CHECK_OK(logs.status());
    std::vector<format::Row> rows;
    rows.reserve(kProvinces * kRowsPerProvince);
    for (int p = 0; p < kProvinces; ++p) {
      for (int i = 0; i < kRowsPerProvince; ++i) {
        format::Row row;
        row.fields = {format::Value("http://site/" + std::to_string(i % 7)),
                      format::Value(int64_t{1000} + i),
                      format::Value("prov-" + std::to_string(p)),
                      format::Value(int64_t{i % kUsers}),
                      format::Value(int64_t{64} + i % 100)};
        rows.push_back(std::move(row));
      }
    }
    SL_CHECK_OK((*logs)->Insert(rows));

    auto users = lakehouse->CreateTable("users", UsersSchema(),
                                        table::PartitionSpec::None());
    SL_CHECK_OK(users.status());
    rows.clear();
    for (int u = 0; u < kUsers; ++u) {
      format::Row row;
      row.fields = {format::Value(int64_t{u}),
                    format::Value("user-" + std::to_string(u)),
                    format::Value(u % 3 == 0   ? std::string("gold")
                                  : u % 3 == 1 ? std::string("silver")
                                               : std::string("bronze"))};
      rows.push_back(std::move(row));
    }
    SL_CHECK_OK((*users)->Insert(rows));
  }

  query::QueryResult Run(const query::SqlStatement& statement) {
    auto result = lakehouse->Query(statement);
    SL_CHECK_OK(result.status());
    return *result;
  }
};

// Aggregate join queries/sec with `threads` query threads over a fixture
// whose scan pool has `threads` workers and no cache (every query
// re-scans both sides).
double RunOnePoint(int threads, const query::SqlStatement& statement,
                   std::atomic<uint64_t>* rows_scanned) {
  JoinFixture f(threads, /*cache_bytes=*/0);
  auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> queriers;
  queriers.reserve(threads);
  for (int t = 0; t < threads; ++t) {
    queriers.emplace_back([&f, &statement, rows_scanned] {
      for (int q = 0; q < kQueriesPerThread; ++q) {
        query::QueryResult result = f.Run(statement);
        rows_scanned->fetch_add(result.rows_scanned,
                                std::memory_order_relaxed);
      }
    });
  }
  for (auto& t : queriers) t.join();
  double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return threads * kQueriesPerThread / seconds;
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchReport report("join_sessionization", &argc, argv);
  auto parsed = query::ParseSql(kSessionizationSql);
  SL_CHECK_OK(parsed.status());

  std::printf("Join sessionization: logs (%d rows, %d files) JOIN users "
              "(%d rows), %d queries/thread, %lldus device dwell/read\n\n",
              kProvinces * kRowsPerProvince,
              kProvinces * kRowsPerProvince / 256, kUsers, kQueriesPerThread,
              static_cast<long long>(kReadDwell.count()));
  // Real time of this process differs run to run: measured first, printed
  // last, below the deterministic rows.
  std::atomic<uint64_t> rows_scanned_total{0};
  std::vector<std::pair<int, double>> throughput;
  for (int threads : {1, 2, 4, 8}) {
    double tput = RunOnePoint(threads, *parsed, &rows_scanned_total);
    throughput.emplace_back(threads, tput);
    report.Add("t" + std::to_string(threads) + ".queries_per_sec", tput);
  }
  const double base = throughput.front().second;
  report.Add("speedup_8t", throughput.back().second / base);

  // Determinism section: a parallel, cached run must return the same
  // bytes as a serial, cache-less run — twice (cold + warm).
  JoinFixture serial(/*scan_threads=*/0, /*cache_bytes=*/0);
  JoinFixture parallel(/*scan_threads=*/8, /*cache_bytes=*/64ULL << 20);
  Counter* build_rows =
      MetricsRegistry::Global().GetCounter("query.join.build_rows");
  Counter* probe_rows =
      MetricsRegistry::Global().GetCounter("query.join.probe_rows");
  uint64_t build_before = build_rows->Value();
  uint64_t probe_before = probe_rows->Value();
  query::QueryResult expect = serial.Run(*parsed);
  uint64_t one_build = build_rows->Value() - build_before;
  uint64_t one_probe = probe_rows->Value() - probe_before;
  bool identical = true;
  for (int round = 0; round < 2; ++round) {
    query::QueryResult got = parallel.Run(*parsed);
    identical = identical && got.rows == expect.rows &&
                got.column_names == expect.column_names &&
                got.rows_scanned == expect.rows_scanned &&
                got.rows_matched == expect.rows_matched;
  }
  std::printf("per query: %llu rows scanned, %llu matched, "
              "%llu build rows, %llu probe rows, identical=%d\n",
              static_cast<unsigned long long>(expect.rows_scanned),
              static_cast<unsigned long long>(expect.rows_matched),
              static_cast<unsigned long long>(one_build),
              static_cast<unsigned long long>(one_probe), identical);
  report.Add("join_identical", identical ? 1.0 : 0.0);
  report.Add("rows_scanned", static_cast<double>(expect.rows_scanned));
  report.Add("rows_matched", static_cast<double>(expect.rows_matched));
  report.Add("build_rows", static_cast<double>(one_build));
  report.Add("probe_rows", static_cast<double>(one_probe));

  std::printf("\nwall clock, informational\n");
  std::printf("%8s | %16s | %8s\n", "threads", "queries/sec", "speedup");
  for (const auto& [threads, tput] : throughput) {
    std::printf("%8d | %16.1f | %7.2fx\n", threads, tput, tput / base);
  }
  return report.WriteIfRequested() ? 0 : 1;
}
