#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <functional>
#include <iterator>
#include <limits>
#include <map>
#include <set>
#include <thread>
#include <tuple>

#include "common/hash.h"
#include "common/metrics.h"
#include "common/random.h"
#include "format/lakefile.h"
#include "oracle/oracle.h"
#include "table/lakehouse.h"

namespace streamlake::table {
namespace {

format::Schema DpiSchema() {
  return format::Schema{{"url", format::DataType::kString},
                        {"start_time", format::DataType::kInt64},
                        {"province", format::DataType::kString},
                        {"bytes", format::DataType::kInt64}};
}

format::Row DpiRow(const std::string& url, int64_t t,
                   const std::string& province, int64_t bytes = 100) {
  format::Row row;
  row.fields = {format::Value(url), format::Value(t), format::Value(province),
                format::Value(bytes)};
  return row;
}

struct LakehouseFixture {
  sim::SimClock clock;
  storage::StoragePool pool{"ssd", sim::MediaType::kNvmeSsd, &clock};
  sim::NetworkModel compute_link{sim::NetworkProfile::Rdma(), &clock};
  kv::KvStore object_index;
  kv::KvStore meta_cache;
  std::unique_ptr<storage::PlogStore> plogs;
  std::unique_ptr<storage::ObjectStore> objects;
  std::unique_ptr<MetadataStore> meta;
  std::unique_ptr<LakehouseService> lakehouse;

  explicit LakehouseFixture(MetadataMode mode = MetadataMode::kAccelerated) {
    pool.AddCluster(3, 2, 512 << 20);
    storage::PlogStoreConfig config;
    config.num_shards = 16;
    config.plog.capacity = 32 << 20;
    config.plog.stripe_unit = 4096;
    config.plog.redundancy = storage::RedundancyConfig::Replication(3);
    plogs = std::make_unique<storage::PlogStore>(&pool, config, &clock);
    objects = std::make_unique<storage::ObjectStore>(plogs.get(),
                                                     &object_index);
    meta = std::make_unique<MetadataStore>(objects.get(), &meta_cache, mode);
    lakehouse = std::make_unique<LakehouseService>(meta.get(), objects.get(),
                                                   &clock, &compute_link);
  }

  Table* CreateDpiTable(const std::string& name = "dpi",
                        PartitionSpec spec = PartitionSpec::Identity(
                            "province")) {
    auto table = lakehouse->CreateTable(name, DpiSchema(), spec);
    EXPECT_TRUE(table.ok()) << table.status().ToString();
    return *table;
  }
};

class TableModeTest : public ::testing::TestWithParam<MetadataMode> {};

TEST_P(TableModeTest, CreateInsertSelect) {
  LakehouseFixture f(GetParam());
  Table* table = f.CreateDpiTable();
  std::vector<format::Row> rows;
  for (int i = 0; i < 100; ++i) {
    rows.push_back(DpiRow("http://a", 1000 + i, i % 2 ? "beijing" : "hubei"));
  }
  ASSERT_TRUE(table->Insert(rows).ok());

  query::QuerySpec spec;
  spec.group_by = {"province"};
  spec.aggregates = {query::AggregateSpec::CountStar()};
  auto result = table->Select(spec);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->rows.size(), 2u);
  EXPECT_EQ(std::get<int64_t>(result->rows[0].fields[1]), 50);
  EXPECT_EQ(std::get<int64_t>(result->rows[1].fields[1]), 50);
}

TEST_P(TableModeTest, DeleteAndUpdate) {
  LakehouseFixture f(GetParam());
  Table* table = f.CreateDpiTable();
  std::vector<format::Row> rows;
  for (int i = 0; i < 60; ++i) {
    rows.push_back(DpiRow("http://a", i, i % 3 == 0 ? "beijing" : "hubei"));
  }
  ASSERT_TRUE(table->Insert(rows).ok());

  // Metadata-only delete: predicate fully covers the 'beijing' partition.
  auto deleted = table->Delete(query::Conjunction{query::Predicate::Eq(
      "province", format::Value(std::string("beijing")))});
  ASSERT_TRUE(deleted.ok()) << deleted.status().ToString();
  EXPECT_EQ(*deleted, 20u);

  // Rewrite delete: predicate on a non-partition column.
  deleted = table->Delete(query::Conjunction{
      query::Predicate::Lt("start_time", format::Value(int64_t{10}))});
  ASSERT_TRUE(deleted.ok());
  EXPECT_GT(*deleted, 0u);

  // Update survivors.
  // Remaining rows with start_time >= 50: i in {50,52,53,55,56,58,59}.
  auto updated = table->Update(
      query::Conjunction{query::Predicate::Ge("start_time",
                                              format::Value(int64_t{50}))},
      "url", format::Value(std::string("http://updated")));
  ASSERT_TRUE(updated.ok());
  EXPECT_EQ(*updated, 7u);

  query::QuerySpec verify;
  verify.where.Add(query::Predicate::Eq(
      "url", format::Value(std::string("http://updated"))));
  verify.aggregates = {query::AggregateSpec::CountStar()};
  auto count = table->Select(verify);
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(std::get<int64_t>(count->rows[0].fields[0]), 7);
}

INSTANTIATE_TEST_SUITE_P(Modes, TableModeTest,
                         ::testing::Values(MetadataMode::kFileBased,
                                           MetadataMode::kAccelerated));

TEST(TableTest, CreateTableValidation) {
  LakehouseFixture f;
  EXPECT_TRUE(f.lakehouse->CreateTable("t", format::Schema{},
                                       PartitionSpec::None())
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(f.lakehouse->CreateTable("t", DpiSchema(),
                                       PartitionSpec::Identity("missing"))
                  .status()
                  .IsInvalidArgument());
  ASSERT_TRUE(f.lakehouse->CreateTable("t", DpiSchema(),
                                       PartitionSpec::None()).ok());
  EXPECT_TRUE(f.lakehouse->CreateTable("t", DpiSchema(),
                                       PartitionSpec::None())
                  .status()
                  .IsAlreadyExists());
  EXPECT_TRUE(f.lakehouse->GetTable("nope").status().IsNotFound());
}

TEST(TableTest, InsertValidatesSchema) {
  LakehouseFixture f;
  Table* table = f.CreateDpiTable();
  format::Row bad;
  bad.fields = {format::Value(std::string("u"))};
  EXPECT_TRUE(table->Insert({bad}).IsInvalidArgument());
}

TEST(TableTest, SnapshotIsolationForConcurrentReader) {
  LakehouseFixture f;
  Table* table = f.CreateDpiTable();
  ASSERT_TRUE(table->Insert({DpiRow("u", 1, "beijing")}).ok());
  auto info = table->Info();
  ASSERT_TRUE(info.ok());
  uint64_t snap1 = info->current_snapshot_id;

  ASSERT_TRUE(table->Insert({DpiRow("u", 2, "beijing")}).ok());

  // Reader pinned at snap1 sees exactly one row regardless of the insert.
  query::QuerySpec spec;
  spec.aggregates = {query::AggregateSpec::CountStar()};
  SelectOptions at_snap1;
  at_snap1.snapshot_id = snap1;
  auto old_view = table->Select(spec, at_snap1);
  ASSERT_TRUE(old_view.ok());
  EXPECT_EQ(std::get<int64_t>(old_view->rows[0].fields[0]), 1);
  auto head_view = table->Select(spec);
  ASSERT_TRUE(head_view.ok());
  EXPECT_EQ(std::get<int64_t>(head_view->rows[0].fields[0]), 2);
}

TEST(TableTest, TimeTravelByTimestamp) {
  LakehouseFixture f;
  Table* table = f.CreateDpiTable();
  ASSERT_TRUE(table->Insert({DpiRow("u", 1, "beijing")}).ok());
  int64_t t1 = static_cast<int64_t>(f.clock.NowSeconds());
  f.clock.Advance(100 * sim::kSecond);
  ASSERT_TRUE(table->Insert({DpiRow("u", 2, "beijing")}).ok());

  query::QuerySpec spec;
  spec.aggregates = {query::AggregateSpec::CountStar()};
  SelectOptions travel;
  travel.as_of_timestamp = t1;
  auto past = table->Select(spec, travel);
  ASSERT_TRUE(past.ok()) << past.status().ToString();
  EXPECT_EQ(std::get<int64_t>(past->rows[0].fields[0]), 1);

  SelectOptions too_early;
  too_early.as_of_timestamp = 0;
  f.clock.Advance(sim::kSecond);
  // Before the first snapshot: NotFound (clock started at 0, first commit
  // has timestamp 0 -> as_of 0 finds it; use -2... adjust: query a table
  // created later).
  Table* empty = f.CreateDpiTable("later");
  SelectOptions head;
  auto none = empty->Select(spec, head);
  ASSERT_TRUE(none.ok());
  EXPECT_EQ(std::get<int64_t>(none->rows[0].fields[0]), 0);
}

TEST(TableTest, PartitionPruningSkipsFiles) {
  LakehouseFixture f;
  Table* table = f.CreateDpiTable();
  std::vector<format::Row> rows;
  for (int i = 0; i < 300; ++i) {
    std::string province = "p" + std::to_string(i % 3);
    rows.push_back(DpiRow("u", i, province));
  }
  ASSERT_TRUE(table->Insert(rows).ok());  // three partitions, one file each

  query::QuerySpec spec;
  spec.where.Add(query::Predicate::Eq("province",
                                      format::Value(std::string("p1"))));
  spec.aggregates = {query::AggregateSpec::CountStar()};
  SelectMetrics metrics;
  auto result = table->Select(spec, {}, &metrics);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(std::get<int64_t>(result->rows[0].fields[0]), 100);
  EXPECT_EQ(metrics.files_scanned, 1u);
  EXPECT_EQ(metrics.files_skipped, 2u);
  EXPECT_GT(metrics.data_bytes_skipped, 0u);
}

TEST(TableTest, FileStatsPruneNonPartitionColumns) {
  LakehouseFixture f;
  TableOptions options;
  options.max_rows_per_file = 100;
  auto created = f.lakehouse->CreateTable("t", DpiSchema(),
                                          PartitionSpec::None(), &options);
  ASSERT_TRUE(created.ok());
  Table* table = *created;
  // Ten files with disjoint time ranges.
  for (int file = 0; file < 10; ++file) {
    std::vector<format::Row> rows;
    for (int i = 0; i < 100; ++i) {
      rows.push_back(DpiRow("u", file * 1000 + i, "bj"));
    }
    ASSERT_TRUE(table->Insert(rows).ok());
  }
  query::QuerySpec spec;
  spec.where.Add(query::Predicate::Ge("start_time",
                                      format::Value(int64_t{5000})));
  spec.where.Add(query::Predicate::Lt("start_time",
                                      format::Value(int64_t{6000})));
  spec.aggregates = {query::AggregateSpec::CountStar()};
  SelectMetrics metrics;
  auto result = table->Select(spec, {}, &metrics);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(std::get<int64_t>(result->rows[0].fields[0]), 100);
  EXPECT_EQ(metrics.files_scanned, 1u);
  EXPECT_EQ(metrics.files_skipped, 9u);
}

TEST(TableTest, PushdownReducesComputeTraffic) {
  LakehouseFixture f;
  Table* table = f.CreateDpiTable();
  std::vector<format::Row> rows;
  for (int i = 0; i < 2000; ++i) {
    rows.push_back(DpiRow("http://" + std::to_string(i), i, "beijing"));
  }
  ASSERT_TRUE(table->Insert(rows).ok());

  query::QuerySpec spec;
  spec.where.Add(query::Predicate::Lt("start_time", format::Value(int64_t{10})));
  spec.aggregates = {query::AggregateSpec::CountStar()};

  SelectMetrics with_pd, without_pd;
  SelectOptions pd_on;
  pd_on.pushdown = true;
  SelectOptions pd_off;
  pd_off.pushdown = false;
  ASSERT_TRUE(table->Select(spec, pd_on, &with_pd).ok());
  ASSERT_TRUE(table->Select(spec, pd_off, &without_pd).ok());
  EXPECT_LT(with_pd.bytes_to_compute * 10, without_pd.bytes_to_compute);
}

TEST(TableTest, MemoryBudgetOomWithoutAcceleration) {
  // Many small commits -> large metadata footprint. File-based mode holds
  // it all in compute memory and OOMs under a small budget (Fig. 15b);
  // accelerated mode streams and survives.
  for (MetadataMode mode :
       {MetadataMode::kFileBased, MetadataMode::kAccelerated}) {
    LakehouseFixture f(mode);
    Table* table = f.CreateDpiTable("t");
    for (int i = 0; i < 200; ++i) {
      ASSERT_TRUE(table->Insert({DpiRow("u", i, "p" + std::to_string(i))}).ok());
    }
    query::QuerySpec spec;
    spec.aggregates = {query::AggregateSpec::CountStar()};
    SelectOptions tight;
    tight.memory_budget_bytes = 4096;
    auto result = table->Select(spec, tight);
    if (mode == MetadataMode::kFileBased) {
      EXPECT_TRUE(result.status().IsOutOfMemory());
    } else {
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      EXPECT_EQ(std::get<int64_t>(result->rows[0].fields[0]), 200);
    }
  }
}

TEST(TableTest, SelectAggregatesSkipNullInputs) {
  // The batch aggregate of Table::Select follows the same NULL rules as
  // the row executor: COUNT(x) and AVG(x) see the non-NULL inputs only,
  // and MIN of a column with no non-NULL input is NULL.
  LakehouseFixture f;
  const format::Schema schema{{"g", format::DataType::kString},
                              {"x", format::DataType::kInt64},
                              {"s", format::DataType::kString}};
  auto table = f.lakehouse->CreateTable("nulls", schema, PartitionSpec::None());
  ASSERT_TRUE(table.ok());
  const format::Value null{std::monostate{}};
  std::vector<format::Row> rows = {
      {{format::Value(std::string("a")), format::Value(int64_t{10}), null}},
      {{format::Value(std::string("a")), null, null}}};
  ASSERT_TRUE((*table)->Insert(rows).ok());
  query::QuerySpec spec;
  spec.group_by = {"g"};
  spec.aggregates = {{query::AggregateSpec::Func::kCount, "x", "cx"},
                     query::AggregateSpec::Avg("x", "ax"),
                     query::AggregateSpec::Min("s", "mins")};
  auto result = (*table)->Select(spec);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->rows.size(), 1u);
  EXPECT_EQ(std::get<int64_t>(result->rows[0].fields[1]), 1);
  EXPECT_DOUBLE_EQ(std::get<double>(result->rows[0].fields[2]), 10.0);
  EXPECT_TRUE(format::IsNull(result->rows[0].fields[3]));
}

TEST(TableTest, NullInt64PartitionKeyIsReadable) {
  // An identity partition on an int64 column writes a NULL key as the
  // partition "NULL"; reading it must neither abort nor prune it wrongly.
  LakehouseFixture f;
  const format::Schema schema{{"k", format::DataType::kInt64},
                              {"v", format::DataType::kInt64}};
  auto table =
      f.lakehouse->CreateTable("t", schema, PartitionSpec::Identity("k"));
  ASSERT_TRUE(table.ok());
  std::vector<format::Row> rows = {
      {{format::Value(int64_t{1}), format::Value(int64_t{10})}},
      {{format::Value(std::monostate{}), format::Value(int64_t{20})}}};
  ASSERT_TRUE((*table)->Insert(rows).ok());
  query::QuerySpec spec;
  spec.aggregates = {query::AggregateSpec::CountStar("n")};
  auto all = (*table)->Select(spec);
  ASSERT_TRUE(all.ok()) << all.status().ToString();
  EXPECT_EQ(std::get<int64_t>(all->rows[0].fields[0]), 2);
  spec.where.Add(query::Predicate{"k", query::CompareOp::kIsNull, {}, {}});
  auto nulls = (*table)->Select(spec);
  ASSERT_TRUE(nulls.ok()) << nulls.status().ToString();
  EXPECT_EQ(std::get<int64_t>(nulls->rows[0].fields[0]), 1);
  auto deleted = (*table)->Delete({query::Predicate::Eq("k", int64_t{1})});
  ASSERT_TRUE(deleted.ok()) << deleted.status().ToString();
  EXPECT_EQ(*deleted, 1u);
}

TEST(TableTest, DeletingTheStringNullKeepsNullKeyRows) {
  // 'NULL' and a NULL key share the identity partition "NULL": a delete of
  // k = 'NULL' must not drop the partition by metadata alone.
  for (DeleteMode mode : {DeleteMode::kCopyOnWrite, DeleteMode::kMergeOnRead}) {
    LakehouseFixture f;
    TableOptions options;
    options.delete_mode = mode;
    const format::Schema schema{{"k", format::DataType::kString},
                                {"v", format::DataType::kInt64}};
    auto table = f.lakehouse->CreateTable(
        "t", schema, PartitionSpec::Identity("k"), &options);
    ASSERT_TRUE(table.ok());
    std::vector<format::Row> rows = {
        {{format::Value(std::string("NULL")), format::Value(int64_t{1})}},
        {{format::Value(std::monostate{}), format::Value(int64_t{2})}}};
    ASSERT_TRUE((*table)->Insert(rows).ok());
    auto deleted = (*table)->Delete(
        {query::Predicate::Eq("k", format::Value(std::string("NULL")))});
    ASSERT_TRUE(deleted.ok()) << deleted.status().ToString();
    EXPECT_EQ(*deleted, 1u);
    query::QuerySpec spec;
    spec.projection = {"v"};
    auto left = (*table)->Select(spec);
    ASSERT_TRUE(left.ok()) << left.status().ToString();
    ASSERT_EQ(left->rows.size(), 1u);
    EXPECT_EQ(std::get<int64_t>(left->rows[0].fields[0]), 2);
  }
}

TEST(TableTest, DayPartitionAtInt64MaxIsNotPrunedByAnOverflowedRange) {
  // day(INT64_MAX)'s upper bound (day + 1) * 86400 - 1 overflows int64; the
  // partition then gives no range, and the file is never pruned by it.
  LakehouseFixture f;
  const format::Schema schema{{"ts", format::DataType::kInt64}};
  auto table = f.lakehouse->CreateTable("t", schema, PartitionSpec::Day("ts"));
  ASSERT_TRUE(table.ok());
  const int64_t max = std::numeric_limits<int64_t>::max();
  ASSERT_TRUE((*table)->Insert({{{format::Value(max)}}}).ok());
  query::QuerySpec spec;
  spec.where.Add(query::Predicate::Ge("ts", format::Value(int64_t{0})));
  auto result = (*table)->Select(spec);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->rows.size(), 1u);
  EXPECT_EQ(std::get<int64_t>(result->rows[0].fields[0]), max);
}

TEST(TableTest, MetadataMemoryIsTheStoredCommitBytes) {
  // A scan's metadata working set (Fig. 15b) is the stored size of the
  // head snapshot's commits: their sum for the file-based catalog, the
  // largest for the accelerated one. It is taken from the bytes read and
  // must equal the size of each commit's encoding.
  for (MetadataMode mode :
       {MetadataMode::kFileBased, MetadataMode::kAccelerated}) {
    LakehouseFixture f(mode);
    TableOptions options;
    options.delete_mode = DeleteMode::kMergeOnRead;
    options.target_file_bytes = 1 << 20;
    auto created = f.lakehouse->CreateTable(
        "t", DpiSchema(), PartitionSpec::Identity("province"), &options);
    ASSERT_TRUE(created.ok());
    Table* table = *created;
    auto expect_memory = [&](const std::string& step) {
      auto info = table->Info();
      ASSERT_TRUE(info.ok());
      auto snap = f.meta->GetSnapshot(info->path, info->current_snapshot_id);
      ASSERT_TRUE(snap.ok());
      uint64_t want = 0;
      for (uint64_t seq : snap->commit_seqs) {
        auto stored = f.meta->ReadCommit(info->path, seq);
        ASSERT_TRUE(stored.ok());
        auto commit = CommitFile::DecodeFrom(ByteView(*stored));
        ASSERT_TRUE(commit.ok());
        Bytes encoded;
        commit->EncodeTo(&encoded);
        want = mode == MetadataMode::kFileBased
                   ? want + encoded.size()
                   : std::max<uint64_t>(want, encoded.size());
      }
      query::QuerySpec spec;
      spec.aggregates = {query::AggregateSpec::CountStar()};
      SelectMetrics m;
      ASSERT_TRUE(table->Select(spec, {}, &m).ok());
      EXPECT_EQ(m.peak_memory_bytes, want) << step;
      EXPECT_GT(want, 0u) << step;
    };
    for (int i = 0; i < 6; ++i) {
      ASSERT_TRUE(table
                      ->Insert({DpiRow("u" + std::to_string(i), i, "bj"),
                                DpiRow("v", 100 + i, "sh")})
                      .ok());
    }
    expect_memory("inserts");
    ASSERT_TRUE(
        table->Delete({query::Predicate::Eq("start_time", int64_t{3})}).ok());
    expect_memory("merge-on-read delete");
    ASSERT_TRUE(table->CompactPartition("bj").ok());
    expect_memory("compaction");
    ASSERT_TRUE(table->RewriteManifest().ok());
    expect_memory("rewrite manifest");
  }
}

TEST(TableTest, AccelerationReducesSmallMetadataIos) {
  // Fig. 15(a): without acceleration every commit is a small file read.
  auto run = [](MetadataMode mode) {
    LakehouseFixture f(mode);
    Table* table = f.CreateDpiTable("t");
    for (int i = 0; i < 50; ++i) {
      EXPECT_TRUE(table->Insert({DpiRow("u", i, "beijing")}).ok());
    }
    if (mode == MetadataMode::kAccelerated) {
      EXPECT_TRUE(f.lakehouse->FlushMetadata().ok());
    }
    query::QuerySpec spec;
    spec.aggregates = {query::AggregateSpec::CountStar()};
    SelectMetrics metrics;
    EXPECT_TRUE(table->Select(spec, {}, &metrics).ok());
    return metrics.metadata.small_ios;
  };
  EXPECT_GT(run(MetadataMode::kFileBased), 50u);
  EXPECT_EQ(run(MetadataMode::kAccelerated), 0u);
}

TEST(TableTest, MetaFresherFlushesCacheToFiles) {
  LakehouseFixture f(MetadataMode::kAccelerated);
  Table* table = f.CreateDpiTable();
  ASSERT_TRUE(table->Insert({DpiRow("u", 1, "beijing")}).ok());
  EXPECT_GT(f.meta->pending_flushes(), 0u);
  auto info = table->Info();
  ASSERT_TRUE(info.ok());
  // Nothing persisted yet.
  EXPECT_TRUE(f.objects->List(info->path + "/metadata/commit-").empty());
  auto flushed = f.lakehouse->FlushMetadata();
  ASSERT_TRUE(flushed.ok());
  EXPECT_GT(*flushed, 0u);
  EXPECT_EQ(f.meta->pending_flushes(), 0u);
  EXPECT_FALSE(f.objects->List(info->path + "/metadata/commit-").empty());
}

TEST(TableTest, CompactionMergesSmallFiles) {
  LakehouseFixture f;
  TableOptions options;
  options.target_file_bytes = 1 << 20;
  auto created = f.lakehouse->CreateTable("t", DpiSchema(),
                                          PartitionSpec::Identity("province"),
                                          &options);
  ASSERT_TRUE(created.ok());
  Table* table = *created;
  // 20 tiny ingestion batches -> 20 small files in one partition.
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(table->Insert({DpiRow("u", i, "beijing"),
                               DpiRow("u", i + 1000, "beijing")}).ok());
  }
  auto files = table->LiveFiles();
  ASSERT_TRUE(files.ok());
  EXPECT_EQ(files->size(), 20u);

  auto result = table->CompactPartition("beijing");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->files_before, 20u);
  EXPECT_EQ(result->files_after, 1u);

  files = table->LiveFiles();
  ASSERT_TRUE(files.ok());
  EXPECT_EQ(files->size(), 1u);
  // All rows intact.
  query::QuerySpec spec;
  spec.aggregates = {query::AggregateSpec::CountStar()};
  auto count = table->Select(spec);
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(std::get<int64_t>(count->rows[0].fields[0]), 40);
}

TEST(TableTest, CompactionConflictsWithConcurrentIngestion) {
  LakehouseFixture f;
  Table* table = f.CreateDpiTable();
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(table->Insert({DpiRow("u", i, "beijing")}).ok());
  }
  auto info = table->Info();
  ASSERT_TRUE(info.ok());
  uint64_t planned_base = info->current_snapshot_id;

  // Ingestion lands in the same partition after the compaction planned.
  ASSERT_TRUE(table->Insert({DpiRow("u", 99, "beijing")}).ok());
  auto result = table->CompactPartition("beijing", planned_base);
  EXPECT_TRUE(result.status().IsConflict());

  // A different partition's ingestion does NOT conflict.
  info = table->Info();
  planned_base = info->current_snapshot_id;
  ASSERT_TRUE(table->Insert({DpiRow("u", 1, "hubei")}).ok());
  auto ok_result = table->CompactPartition("beijing", planned_base);
  EXPECT_TRUE(ok_result.ok()) << ok_result.status().ToString();
}

TEST(TableTest, DropSoftRestoreAndHard) {
  LakehouseFixture f;
  Table* table = f.CreateDpiTable();
  ASSERT_TRUE(table->Insert({DpiRow("u", 1, "beijing")}).ok());
  auto info = table->Info();
  ASSERT_TRUE(info.ok());
  std::string path = info->path;

  ASSERT_TRUE(f.lakehouse->DropTableSoft("dpi").ok());
  EXPECT_TRUE(f.lakehouse->GetTable("dpi").status().IsNotFound());
  // Data retained for restoration.
  EXPECT_FALSE(f.objects->List(path + "/data/").empty());

  auto restored = f.lakehouse->RestoreTable("dpi");
  ASSERT_TRUE(restored.ok());
  query::QuerySpec spec;
  spec.aggregates = {query::AggregateSpec::CountStar()};
  auto count = (*restored)->Select(spec);
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(std::get<int64_t>(count->rows[0].fields[0]), 1);

  ASSERT_TRUE(f.lakehouse->DropTableHard("dpi").ok());
  EXPECT_TRUE(f.lakehouse->GetTable("dpi").status().IsNotFound());
  EXPECT_TRUE(f.objects->List(path + "/").empty());
  EXPECT_TRUE(f.lakehouse->RestoreTable("dpi").status().IsNotFound());
}

struct MorFixture : LakehouseFixture {
  Table* table = nullptr;
  MorFixture() {
    TableOptions options;
    options.delete_mode = DeleteMode::kMergeOnRead;
    options.target_file_bytes = 1 << 20;
    auto created = lakehouse->CreateTable(
        "mor", DpiSchema(), PartitionSpec::Identity("province"), &options);
    EXPECT_TRUE(created.ok());
    table = *created;
  }

  int64_t Count() {
    query::QuerySpec spec;
    spec.aggregates = {query::AggregateSpec::CountStar()};
    auto result = table->Select(spec);
    return result.ok() ? std::get<int64_t>(result->rows[0].fields[0]) : -1;
  }
};

TEST(MergeOnReadTest, DeleteMasksRowsWithoutRewritingFiles) {
  MorFixture f;
  std::vector<format::Row> rows;
  for (int i = 0; i < 100; ++i) rows.push_back(DpiRow("u", i, "beijing"));
  ASSERT_TRUE(f.table->Insert(rows).ok());
  auto files_before = f.table->LiveFiles();
  ASSERT_TRUE(files_before.ok());

  auto deleted = f.table->Delete(query::Conjunction{
      query::Predicate::Lt("start_time", format::Value(int64_t{30}))});
  ASSERT_TRUE(deleted.ok()) << deleted.status().ToString();
  EXPECT_EQ(*deleted, 30u);
  EXPECT_EQ(f.Count(), 70);

  // The point of merge-on-read: the data files did NOT change.
  auto files_after = f.table->LiveFiles();
  ASSERT_TRUE(files_after.ok());
  ASSERT_EQ(files_after->size(), files_before->size());
  for (size_t i = 0; i < files_after->size(); ++i) {
    EXPECT_EQ((*files_after)[i].path, (*files_before)[i].path);
  }
}

TEST(MergeOnReadTest, RestoredTableKeepsItsOptions) {
  MorFixture f;
  std::vector<format::Row> rows;
  for (int i = 0; i < 100; ++i) rows.push_back(DpiRow("u", i, "beijing"));
  ASSERT_TRUE(f.table->Insert(rows).ok());
  ASSERT_TRUE(f.lakehouse->DropTableSoft("mor").ok());
  auto restored = f.lakehouse->RestoreTable("mor");
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  auto files_before = (*restored)->LiveFiles();
  ASSERT_TRUE(files_before.ok());

  auto deleted = (*restored)->Delete(query::Conjunction{
      query::Predicate::Lt("start_time", format::Value(int64_t{30}))});
  ASSERT_TRUE(deleted.ok()) << deleted.status().ToString();
  EXPECT_EQ(*deleted, 30u);
  // Still merge-on-read after the restore: no data file was rewritten.
  auto files_after = (*restored)->LiveFiles();
  ASSERT_TRUE(files_after.ok());
  ASSERT_EQ(files_after->size(), files_before->size());
  for (size_t i = 0; i < files_after->size(); ++i) {
    EXPECT_EQ((*files_after)[i].path, (*files_before)[i].path);
  }
}

TEST(MergeOnReadTest, LaterInsertsAreNotMaskedByEarlierDeletes) {
  MorFixture f;
  ASSERT_TRUE(f.table->Insert({DpiRow("u", 5, "beijing")}).ok());
  auto deleted = f.table->Delete(query::Conjunction{
      query::Predicate::Eq("start_time", format::Value(int64_t{5}))});
  ASSERT_TRUE(deleted.ok());
  EXPECT_EQ(*deleted, 1u);
  EXPECT_EQ(f.Count(), 0);
  // Re-insert the same logical row AFTER the delete: it must be visible.
  ASSERT_TRUE(f.table->Insert({DpiRow("u", 5, "beijing")}).ok());
  EXPECT_EQ(f.Count(), 1);
}

TEST(MergeOnReadTest, StackedDeletesAndAccurateCounts) {
  MorFixture f;
  std::vector<format::Row> rows;
  for (int i = 0; i < 50; ++i) rows.push_back(DpiRow("u", i, "hubei"));
  ASSERT_TRUE(f.table->Insert(rows).ok());
  ASSERT_TRUE(f.table
                  ->Delete(query::Conjunction{query::Predicate::Lt(
                      "start_time", format::Value(int64_t{20}))})
                  .ok());
  // Overlapping second delete must count only newly-masked rows.
  auto second = f.table->Delete(query::Conjunction{
      query::Predicate::Lt("start_time", format::Value(int64_t{30}))});
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(*second, 10u);
  EXPECT_EQ(f.Count(), 20);
}

TEST(MergeOnReadTest, CompactionAppliesDeletesPhysically) {
  MorFixture f;
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(f.table->Insert({DpiRow("u", i, "beijing")}).ok());
  }
  ASSERT_TRUE(f.table
                  ->Delete(query::Conjunction{query::Predicate::Lt(
                      "start_time", format::Value(int64_t{4}))})
                  .ok());
  EXPECT_EQ(f.Count(), 6);

  auto result = f.table->CompactPartition("beijing");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->files_before, 10u);
  EXPECT_EQ(f.Count(), 6);  // still 6 after physical apply

  // The compacted file's rows are NOT re-masked by the old predicate
  // even though they match it... verify by checking row count directly.
  auto files = f.table->LiveFiles();
  ASSERT_TRUE(files.ok());
  uint64_t physical_rows = 0;
  for (const auto& file : *files) physical_rows += file.record_count;
  EXPECT_EQ(physical_rows, 6u);  // masked rows physically gone
}

TEST(MergeOnReadTest, UpdateDoesNotResurrectMaskedRows) {
  MorFixture f;
  std::vector<format::Row> rows;
  for (int i = 0; i < 10; ++i) rows.push_back(DpiRow("u", i, "beijing"));
  ASSERT_TRUE(f.table->Insert(rows).ok());
  ASSERT_TRUE(f.table
                  ->Delete(query::Conjunction{query::Predicate::Lt(
                      "start_time", format::Value(int64_t{5}))})
                  .ok());
  // Update rewrites files; the masked rows must stay gone.
  auto updated = f.table->Update(
      query::Conjunction{query::Predicate::Ge("start_time",
                                              format::Value(int64_t{0}))},
      "url", format::Value(std::string("http://new")));
  ASSERT_TRUE(updated.ok());
  EXPECT_EQ(*updated, 5u);  // only the 5 visible rows
  EXPECT_EQ(f.Count(), 5);
}

TEST(MergeOnReadTest, TimeTravelSeesPreDeleteState) {
  MorFixture f;
  ASSERT_TRUE(f.table->Insert({DpiRow("u", 1, "beijing")}).ok());
  auto info = f.table->Info();
  uint64_t pre_delete = info->current_snapshot_id;
  ASSERT_TRUE(f.table
                  ->Delete(query::Conjunction{query::Predicate::Eq(
                      "start_time", format::Value(int64_t{1}))})
                  .ok());
  EXPECT_EQ(f.Count(), 0);
  query::QuerySpec spec;
  spec.aggregates = {query::AggregateSpec::CountStar()};
  SelectOptions pinned;
  pinned.snapshot_id = pre_delete;
  auto old_view = f.table->Select(spec, pinned);
  ASSERT_TRUE(old_view.ok());
  EXPECT_EQ(std::get<int64_t>(old_view->rows[0].fields[0]), 1);
}

TEST(MergeOnReadTest, ManifestRewriteKeepsMasking) {
  MorFixture f;
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(f.table->Insert({DpiRow("u", i, "beijing")}).ok());
  }
  ASSERT_TRUE(f.table
                  ->Delete(query::Conjunction{query::Predicate::Lt(
                      "start_time", format::Value(int64_t{8}))})
                  .ok());
  EXPECT_EQ(f.Count(), 12);
  auto squashed = f.table->RewriteManifest();
  ASSERT_TRUE(squashed.ok());
  EXPECT_GT(*squashed, 1u);
  EXPECT_EQ(f.Count(), 12);  // masking survives the squash
}

// A rewrite planned on a snapshot before a merge-on-read delete would copy
// the rows the delete masks into files newer than it, unmasking them.
TEST(MergeOnReadTest, RewritePlannedBeforeADeleteConflicts) {
  MorFixture f;
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(f.table->Insert({DpiRow("u", i, "beijing")}).ok());
  }
  ASSERT_TRUE(f.table->Insert({DpiRow("u", 5, "hubei")}).ok());
  uint64_t planned = f.table->Info()->current_snapshot_id;
  ASSERT_TRUE(f.table
                  ->Delete(query::Conjunction{query::Predicate::Eq(
                      "start_time", format::Value(int64_t{1}))})
                  .ok());
  EXPECT_EQ(f.Count(), 4);
  auto result = f.table->CompactPartition("beijing", planned);
  EXPECT_TRUE(result.status().IsConflict()) << result.status().ToString();
  EXPECT_EQ(f.Count(), 4);

  // A delete no beijing file can match does not block the compaction.
  planned = f.table->Info()->current_snapshot_id;
  auto deleted = f.table->Delete(query::Conjunction{
      query::Predicate::Eq("province", format::Value(std::string("hubei"))),
      query::Predicate::Eq("start_time", format::Value(int64_t{5}))});
  ASSERT_TRUE(deleted.ok());
  EXPECT_EQ(*deleted, 1u);
  auto compacted = f.table->CompactPartition("beijing", planned);
  ASSERT_TRUE(compacted.ok()) << compacted.status().ToString();
  EXPECT_EQ(compacted->files_after, 1u);
  EXPECT_EQ(f.Count(), 3);
}

// A delete drops a whole partition by metadata only when every value of
// the partition's range satisfies it. For a day or month partition, `!=`
// and IN hold for some of its rows only, so those go through the row path
// (rewrite or mask) and the rows they spare stay.
class PartitionDropTest : public ::testing::TestWithParam<DeleteMode> {
 protected:
  struct Case {
    std::string what;
    std::function<query::Conjunction(int64_t base, int64_t width)> where;
    std::vector<int64_t> kept;  // offsets from the bucket start that stay
  };

  /// A `spec` table holding `ts = base + {0, 100, 200}`, for `base` the
  /// start of a bucket `width` seconds wide.
  Table* Create(LakehouseFixture* f, const PartitionSpec& spec,
                int64_t base) {
    TableOptions options;
    options.delete_mode = GetParam();
    const format::Schema schema{{"ts", format::DataType::kInt64},
                                {"v", format::DataType::kInt64}};
    auto table = f->lakehouse->CreateTable("t", schema, spec, &options);
    EXPECT_TRUE(table.ok()) << table.status().ToString();
    std::vector<format::Row> rows;
    for (int64_t offset : {0, 100, 200}) {
      rows.push_back({{format::Value(base + offset), format::Value(offset)}});
    }
    EXPECT_TRUE((*table)->Insert(rows).ok());
    return *table;
  }

  /// The `v` (offset) of every row left, ascending.
  static std::vector<int64_t> Kept(Table* table) {
    query::QuerySpec spec;
    spec.projection = {"v"};
    auto rows = table->Select(spec);
    EXPECT_TRUE(rows.ok()) << rows.status().ToString();
    std::vector<int64_t> kept;
    for (const format::Row& row : rows->rows) {
      kept.push_back(std::get<int64_t>(row.fields[0]));
    }
    std::sort(kept.begin(), kept.end());
    return kept;
  }
};

TEST_P(PartitionDropTest, DayAndMonthDropOnlyTheRowsThatMatch) {
  using query::Predicate;
  const std::vector<Case> cases = {
      {"!= a middle value",
       [](int64_t base, int64_t) {
         return query::Conjunction{Predicate::Ne("ts", base + 100)};
       },
       {100}},
      {"IN the bucket's two ends",
       [](int64_t base, int64_t width) {
         return query::Conjunction{Predicate::In(
             "ts", {format::Value(base), format::Value(base + width - 1)})};
       },
       {100, 200}},
      {"!= outside the rows but inside the bucket",
       [](int64_t base, int64_t) {
         return query::Conjunction{Predicate::Ne("ts", base + 50)};
       },
       {}},
      {"the whole bucket",
       [](int64_t base, int64_t width) {
         return query::Conjunction{Predicate::Ge("ts", base),
                                   Predicate::Le("ts", base + width - 1)};
       },
       {}}};
  for (const bool month : {false, true}) {
    const int64_t width = month ? 30 * 86400 : 86400;
    const int64_t base = 700 * width;
    const PartitionSpec spec =
        month ? PartitionSpec::Month("ts") : PartitionSpec::Day("ts");
    for (const Case& c : cases) {
      const std::string what = (month ? "month, " : "day, ") + c.what;
      LakehouseFixture f;
      Table* table = Create(&f, spec, base);
      auto deleted = table->Delete(c.where(base, width));
      ASSERT_TRUE(deleted.ok()) << what << ": " << deleted.status().ToString();
      EXPECT_EQ(*deleted, 3 - c.kept.size()) << what;
      EXPECT_EQ(Kept(table), c.kept) << what;
    }
    // SQL DELETE runs the same Table::Delete.
    LakehouseFixture f;
    Table* table = Create(&f, spec, base);
    auto deleted = f.lakehouse->Query(*query::ParseSql(
        "DELETE FROM t WHERE ts != " + std::to_string(base + 100)));
    ASSERT_TRUE(deleted.ok()) << deleted.status().ToString();
    EXPECT_EQ(std::get<int64_t>(deleted->rows.at(0).fields.at(0)), 2);
    EXPECT_EQ(Kept(table), std::vector<int64_t>{100});
  }
}

TEST_P(PartitionDropTest, IdentityPartitionStillDropsByMetadata) {
  // An identity partition's range is [v, v]: `!= w` holds for every row,
  // so the file leaves the live set whole, as the whole-bucket delete's
  // does. Merge-on-read shows it: the row path would keep the file live
  // and mask its rows.
  const struct {
    PartitionSpec spec;
    query::Conjunction where;
  } drops[] = {
      {PartitionSpec::Identity("v"),
       {query::Predicate::Ne("v", int64_t{7})}},
      {PartitionSpec::Day("ts"),
       {query::Predicate::Ge("ts", int64_t{700 * 86400}),
        query::Predicate::Lt("ts", int64_t{701 * 86400})}}};
  for (const auto& drop : drops) {
    LakehouseFixture f;
    TableOptions options;
    options.delete_mode = GetParam();
    const format::Schema schema{{"ts", format::DataType::kInt64},
                                {"v", format::DataType::kInt64}};
    auto table = f.lakehouse->CreateTable("t", schema, drop.spec, &options);
    ASSERT_TRUE(table.ok());
    ASSERT_TRUE((*table)
                    ->Insert({{{format::Value(int64_t{700 * 86400}),
                                format::Value(int64_t{5})}},
                              {{format::Value(int64_t{700 * 86400 + 9}),
                                format::Value(int64_t{5})}}})
                    .ok());
    auto deleted = (*table)->Delete(drop.where);
    ASSERT_TRUE(deleted.ok()) << deleted.status().ToString();
    EXPECT_EQ(*deleted, 2u) << drop.where.ToString();
    auto live = (*table)->LiveFiles();
    ASSERT_TRUE(live.ok());
    EXPECT_EQ(live->size(), 0u) << drop.where.ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(
    DeleteModes, PartitionDropTest,
    ::testing::Values(DeleteMode::kCopyOnWrite, DeleteMode::kMergeOnRead),
    [](const ::testing::TestParamInfo<DeleteMode>& info) {
      return std::string(info.param == DeleteMode::kCopyOnWrite
                             ? "CopyOnWrite"
                             : "MergeOnRead");
    });

TEST(TableTest, RewriteManifestSquashesCommitChain) {
  LakehouseFixture f;
  Table* table = f.CreateDpiTable();
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(table->Insert({DpiRow("u", i, "beijing")}).ok());
  }
  auto info = table->Info();
  ASSERT_TRUE(info.ok());
  uint64_t pre_squash_snapshot = info->current_snapshot_id;

  MetadataCounters start = MetadataCounters::Capture();
  ASSERT_TRUE(table->LiveFiles().ok());
  MetadataCounters before = MetadataCounters::Capture() - start;
  EXPECT_GT(before.reads, 30u);  // replays every commit

  auto squashed = table->RewriteManifest();
  ASSERT_TRUE(squashed.ok()) << squashed.status().ToString();
  EXPECT_EQ(*squashed, 30u);

  start = MetadataCounters::Capture();
  auto files = table->LiveFiles();
  MetadataCounters after = MetadataCounters::Capture() - start;
  ASSERT_TRUE(files.ok());
  EXPECT_LT(after.reads, 5u);  // one snapshot + one consolidated commit
  EXPECT_EQ(files->size(), 30u);

  // Contents identical; time travel to the pre-squash snapshot still works.
  query::QuerySpec spec;
  spec.aggregates = {query::AggregateSpec::CountStar()};
  auto count = table->Select(spec);
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(std::get<int64_t>(count->rows[0].fields[0]), 30);
  SelectOptions pinned;
  pinned.snapshot_id = pre_squash_snapshot;
  auto old_count = table->Select(spec, pinned);
  ASSERT_TRUE(old_count.ok());
  EXPECT_EQ(std::get<int64_t>(old_count->rows[0].fields[0]), 30);

  // Idempotent: a single-commit manifest has nothing to squash.
  auto again = table->RewriteManifest();
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*again, 0u);
}

TEST(TableTest, ExpireSnapshotsBoundsTimeTravel) {
  LakehouseFixture f;
  Table* table = f.CreateDpiTable();
  ASSERT_TRUE(table->Insert({DpiRow("u", 1, "beijing")}).ok());
  f.clock.Advance(100 * sim::kSecond);
  ASSERT_TRUE(table->Insert({DpiRow("u", 2, "beijing")}).ok());
  f.clock.Advance(100 * sim::kSecond);
  ASSERT_TRUE(table->Insert({DpiRow("u", 3, "beijing")}).ok());

  auto info = table->Info();
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->snapshot_log.size(), 3u);

  ASSERT_TRUE(table->ExpireSnapshots(50).ok());
  info = table->Info();
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->snapshot_log.size(), 2u);

  // Head still works.
  query::QuerySpec spec;
  spec.aggregates = {query::AggregateSpec::CountStar()};
  auto count = table->Select(spec);
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(std::get<int64_t>(count->rows[0].fields[0]), 3);

  // Travel to the expired snapshot is gone.
  SelectOptions travel;
  travel.as_of_timestamp = 50;
  EXPECT_FALSE(table->Select(spec, travel).ok());

  // A stale pinned snapshot id fails cleanly, not silently.
  SelectOptions stale;
  stale.snapshot_id = 1;
  EXPECT_FALSE(table->Select(spec, stale).ok());
}

// GC keeps what the retained snapshots reference, so one it cannot read
// must fail the expiry instead of losing its files.
TEST(TableTest, ExpireSnapshotsFailsOnAnUnreadableRetainedSnapshot) {
  LakehouseFixture f;
  Table* table = f.CreateDpiTable();
  ASSERT_TRUE(table->Insert({DpiRow("u", 1, "beijing")}).ok());
  f.clock.Advance(100 * sim::kSecond);
  ASSERT_TRUE(table->Insert({DpiRow("u", 2, "beijing")}).ok());
  auto info = table->Info();
  ASSERT_TRUE(info.ok());
  const uint64_t unreadable = info->current_snapshot_id;
  auto files = table->LiveFiles();
  ASSERT_TRUE(files.ok());
  ASSERT_EQ(files->size(), 2u);
  f.clock.Advance(100 * sim::kSecond);
  ASSERT_TRUE(table->CompactPartition("beijing").ok());
  ASSERT_TRUE(f.meta->DeleteSnapshot(info->path, unreadable).ok());

  EXPECT_FALSE(table->ExpireSnapshots(50).ok());
  for (const DataFileMeta& file : *files) {
    EXPECT_TRUE(f.objects->Exists(file.path)) << file.path;
  }
  info = table->Info();
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->snapshot_log.size(), 3u);
}

// Every commit failure leaves no trace: with the catalog entry made
// immutable, PutTableInfo fails after PutCommit and PutSnapshot succeeded,
// and the operation must retract both records and delete any data file it
// wrote.
struct FailedCommitCase {
  const char* name;
  DeleteMode delete_mode;
  std::function<Status(Table*)> run;
};

void PrintTo(const FailedCommitCase& c, std::ostream* os) { *os << c.name; }

class FailedCommitTest : public ::testing::TestWithParam<FailedCommitCase> {};

TEST_P(FailedCommitTest, LeavesNoTrace) {
  LakehouseFixture f(MetadataMode::kFileBased);
  TableOptions options;
  options.delete_mode = GetParam().delete_mode;
  auto created = f.lakehouse->CreateTable(
      "dpi", DpiSchema(), PartitionSpec::Identity("province"), &options);
  ASSERT_TRUE(created.ok());
  Table* table = *created;
  // Two small files in one partition, two commits in the head's chain.
  ASSERT_TRUE(table->Insert({DpiRow("u", 1, "beijing")}).ok());
  ASSERT_TRUE(table->Insert({DpiRow("u", 2, "beijing")}).ok());
  auto before = table->Info();
  ASSERT_TRUE(before.ok());
  const auto metadata = f.objects->List(before->path + "/metadata/");
  const auto data = f.objects->List(before->path + "/data/");

  f.objects->SetWormPrefix("/catalog/");
  EXPECT_FALSE(GetParam().run(table).ok());

  auto after = table->Info();
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->current_snapshot_id, before->current_snapshot_id);
  EXPECT_EQ(f.objects->List(before->path + "/metadata/"), metadata);
  EXPECT_EQ(f.objects->List(before->path + "/data/"), data);
}

const query::Conjunction kFirstRow{
    query::Predicate::Eq("start_time", format::Value(int64_t{1}))};

INSTANTIATE_TEST_SUITE_P(
    Operations, FailedCommitTest,
    ::testing::Values(
        FailedCommitCase{"Insert", DeleteMode::kCopyOnWrite,
                         [](Table* t) {
                           return t->Insert({DpiRow("u", 3, "beijing")});
                         }},
        FailedCommitCase{"Update", DeleteMode::kCopyOnWrite,
                         [](Table* t) {
                           return t
                               ->Update(kFirstRow, "url",
                                        format::Value(std::string("v")))
                               .status();
                         }},
        FailedCommitCase{"CowDelete", DeleteMode::kCopyOnWrite,
                         [](Table* t) {
                           return t->Delete(kFirstRow).status();
                         }},
        FailedCommitCase{"MorDelete", DeleteMode::kMergeOnRead,
                         [](Table* t) {
                           return t->Delete(kFirstRow).status();
                         }},
        FailedCommitCase{"CompactPartition", DeleteMode::kCopyOnWrite,
                         [](Table* t) {
                           return t->CompactPartition("beijing").status();
                         }},
        FailedCommitCase{"RewriteManifest", DeleteMode::kCopyOnWrite,
                         [](Table* t) {
                           return t->RewriteManifest().status();
                         }}),
    [](const ::testing::TestParamInfo<FailedCommitCase>& info) {
      return std::string(info.param.name);
    });

// Property: every historical snapshot keeps returning exactly the count
// it had when it was the head, no matter what happens afterwards.
TEST(TableProperty, TimeTravelIsImmutableHistory) {
  LakehouseFixture f;
  Table* table = f.CreateDpiTable();
  Random rng(2026);
  int64_t live_rows = 0;
  std::vector<std::pair<uint64_t, int64_t>> history;  // snapshot -> count
  for (int round = 0; round < 25; ++round) {
    switch (rng.Uniform(3)) {
      case 0: {  // insert
        std::vector<format::Row> rows;
        size_t n = 1 + rng.Uniform(20);
        for (size_t i = 0; i < n; ++i) {
          rows.push_back(DpiRow("u", static_cast<int64_t>(rng.Uniform(1000)),
                                rng.OneIn(2) ? "beijing" : "hubei"));
        }
        ASSERT_TRUE(table->Insert(rows).ok());
        live_rows += n;
        break;
      }
      case 1: {  // delete a random time range
        int64_t cut = static_cast<int64_t>(rng.Uniform(1000));
        auto deleted = table->Delete(query::Conjunction{
            query::Predicate::Lt("start_time", format::Value(cut))});
        ASSERT_TRUE(deleted.ok());
        live_rows -= static_cast<int64_t>(*deleted);
        break;
      }
      case 2: {  // occasionally compact or squash the manifest
        if (rng.OneIn(2)) {
          auto r = table->CompactPartition("beijing");
          ASSERT_TRUE(r.ok() || r.status().IsConflict());
        } else {
          ASSERT_TRUE(table->RewriteManifest().ok());
        }
        break;
      }
    }
    auto info = table->Info();
    ASSERT_TRUE(info.ok());
    if (info->current_snapshot_id != 0) {
      history.emplace_back(info->current_snapshot_id, live_rows);
    }
    // EVERY recorded snapshot still answers with its historical count.
    query::QuerySpec spec;
    spec.aggregates = {query::AggregateSpec::CountStar()};
    for (const auto& [snapshot_id, expected] : history) {
      SelectOptions pinned;
      pinned.snapshot_id = snapshot_id;
      auto count = table->Select(spec, pinned);
      ASSERT_TRUE(count.ok()) << count.status().ToString();
      EXPECT_EQ(std::get<int64_t>(count->rows[0].fields[0]), expected)
          << "round " << round << " snapshot " << snapshot_id;
    }
  }
}

// Property: interleaved inserts, deletes, updates and compactions tracked
// against a reference model, in both delete modes. The rewrites mask rows
// through the scan's own merge-on-read code, but must not pick up the side
// effects only reads have: no partition access counts, no compute-link
// traffic.
void CheckAgainstReferenceModel(DeleteMode mode) {
  LakehouseFixture f;
  TableOptions options;
  options.delete_mode = mode;
  auto created = f.lakehouse->CreateTable(
      "dpi", DpiSchema(), PartitionSpec::Identity("province"), &options);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  Table* table = *created;
  Random rng(77);
  std::multiset<int64_t> model;  // start_time values live in the table
  auto read_side_effects = [&] {
    sim::NetworkStats link = f.compute_link.stats();
    return std::make_tuple(table->PartitionAccessCounts(), link.messages,
                           link.bytes);
  };
  for (int round = 0; round < 40; ++round) {
    const auto before = read_side_effects();
    const uint64_t op = model.empty() ? 0 : rng.Uniform(6);
    if (op <= 2) {
      std::vector<format::Row> rows;
      size_t n = 1 + rng.Uniform(30);
      for (size_t i = 0; i < n; ++i) {
        int64_t t = static_cast<int64_t>(rng.Uniform(10000));
        model.insert(t);
        rows.push_back(DpiRow("u", t, rng.OneIn(2) ? "beijing" : "hubei"));
      }
      ASSERT_TRUE(table->Insert(rows).ok());
    } else {
      int64_t cut = *std::next(model.begin(), rng.Uniform(model.size()));
      if (op == 3) {
        auto deleted = table->Delete(query::Conjunction{
            query::Predicate::Lt("start_time", format::Value(cut))});
        ASSERT_TRUE(deleted.ok()) << deleted.status().ToString();
        size_t expected = 0;
        for (auto it = model.begin(); it != model.end();) {
          if (*it < cut) {
            it = model.erase(it);
            ++expected;
          } else {
            ++it;
          }
        }
        EXPECT_EQ(*deleted, expected) << "round " << round;
      } else if (op == 4) {
        auto updated = table->Update(
            query::Conjunction{
                query::Predicate::Ge("start_time", format::Value(cut))},
            "bytes", format::Value(int64_t{round}));
        ASSERT_TRUE(updated.ok()) << updated.status().ToString();
        EXPECT_EQ(*updated, static_cast<uint64_t>(std::distance(
                                model.lower_bound(cut), model.end())))
            << "round " << round;
      } else {
        auto compacted =
            table->CompactPartition(rng.OneIn(2) ? "beijing" : "hubei");
        ASSERT_TRUE(compacted.ok()) << compacted.status().ToString();
      }
      EXPECT_EQ(read_side_effects(), before) << "round " << round;
    }
    query::QuerySpec spec;
    spec.aggregates = {query::AggregateSpec::CountStar()};
    auto count = table->Select(spec);
    ASSERT_TRUE(count.ok());
    EXPECT_EQ(std::get<int64_t>(count->rows[0].fields[0]),
              static_cast<int64_t>(model.size()))
        << "round " << round;
  }
}

TEST(TableProperty, MatchesReferenceModel) {
  CheckAgainstReferenceModel(DeleteMode::kCopyOnWrite);
}

TEST(TableProperty, MergeOnReadMatchesReferenceModel) {
  CheckAgainstReferenceModel(DeleteMode::kMergeOnRead);
}

// Data-file paths depend only on the inputs: two identically built
// lakehouses fed the same inserts name the same files, and the several
// files of one Insert never share a path.
TEST(TableTest, DataFilePathsAreDeterministicAndDistinct) {
  TableOptions options;
  options.max_rows_per_file = 4;
  std::vector<std::vector<std::string>> runs;
  for (int run = 0; run < 2; ++run) {
    LakehouseFixture f;
    auto table = f.lakehouse->CreateTable(
        "dpi", DpiSchema(), PartitionSpec::Identity("province"), &options);
    ASSERT_TRUE(table.ok()) << table.status().ToString();
    for (int batch = 0; batch < 3; ++batch) {
      std::vector<format::Row> rows;
      for (int i = 0; i < 10; ++i) {
        rows.push_back(
            DpiRow("u", batch * 10 + i, i % 2 ? "beijing" : "hubei"));
      }
      ASSERT_TRUE((*table)->Insert(rows).ok());
    }
    auto files = (*table)->LiveFiles();
    ASSERT_TRUE(files.ok()) << files.status().ToString();
    std::vector<std::string> paths;
    for (const DataFileMeta& file : *files) paths.push_back(file.path);
    runs.push_back(std::move(paths));
  }
  // 3 inserts x 2 partitions x 5 rows at 4 rows per file = 12 files.
  EXPECT_EQ(runs[0].size(), 12u);
  EXPECT_EQ(std::set<std::string>(runs[0].begin(), runs[0].end()).size(),
            runs[0].size());
  EXPECT_EQ(runs[0], runs[1]);
}


// ---- File-level stats: the writer's single pass ----

/// The oracle: the second pass over a data file's rows that computed its
/// file-level stats before the writer produced them, with a std::set per
/// column. Valid for NaN-free rows only (std::set<Value> needs a strict
/// weak order).
std::map<std::string, format::ColumnStats> OracleStats(
    const format::Schema& schema, const std::vector<format::Row>& rows) {
  std::map<std::string, format::ColumnStats> stats;
  if (rows.empty()) return stats;
  for (size_t c = 0; c < schema.num_fields(); ++c) {
    format::ColumnStats s;
    s.has_extended = true;
    std::set<format::Value> distinct;
    double total_width = 0.0;
    for (const format::Row& row : rows) {
      const format::Value& v = row.fields[c];
      if (format::IsNull(v)) {
        ++s.null_count;
        continue;
      }
      if (!s.min.has_value() || format::CompareValues(v, *s.min) < 0) {
        s.min = v;
      }
      if (!s.max.has_value() || format::CompareValues(v, *s.max) > 0) {
        s.max = v;
      }
      distinct.insert(v);
      switch (schema.field(c).type) {
        case format::DataType::kBool:
          total_width += 1.0;
          break;
        case format::DataType::kInt64:
        case format::DataType::kDouble:
          total_width += 8.0;
          break;
        case format::DataType::kString:
          total_width += static_cast<double>(std::get<std::string>(v).size());
          break;
        case format::DataType::kNull:
          break;
      }
    }
    s.ndv = distinct.size();
    uint64_t non_null = rows.size() - s.null_count;
    s.avg_width = non_null > 0 ? total_width / static_cast<double>(non_null)
                               : 0.0;
    stats[schema.field(c).name] = std::move(s);
  }
  return stats;
}

/// `rows` (valid for `schema`) as the encoder's input.
format::ColumnBatch BatchOf(const format::Schema& schema,
                            const std::vector<format::Row>& rows) {
  std::vector<const format::Row*> pointers;
  pointers.reserve(rows.size());
  for (const format::Row& row : rows) pointers.push_back(&row);
  format::ColumnBatch batch(schema);
  batch.AppendRows(pointers);
  return batch;
}

/// The metadata a table records for `file`, named `path`.
DataFileMeta MetaOf(const format::Schema& schema,
                    const format::EncodedLakeFile& file, uint64_t rows) {
  DataFileMeta meta;
  meta.path = "golden";
  meta.record_count = rows;
  meta.file_bytes = file.bytes.size();
  for (size_t c = 0; c < file.column_stats.size(); ++c) {
    meta.column_stats[schema.field(c).name] = file.column_stats[c];
  }
  return meta;
}

Bytes Encoded(const DataFileMeta& meta) {
  Bytes out;
  meta.EncodeTo(&out);
  return out;
}

/// Random NaN-free rows over every column type: each column is NULL-free,
/// NULL-only, or mixed; doubles include -0.0 and +0.0; strings include
/// the empty string; low cardinalities make duplicates common.
std::vector<format::Row> RandomStatsRows(Random* rng,
                                         const format::Schema& schema,
                                         size_t num_rows) {
  std::vector<int> null_mode;  // 0 = none, 1 = some, 2 = all
  null_mode.reserve(schema.num_fields());
  for (size_t c = 0; c < schema.num_fields(); ++c) {
    null_mode.push_back(static_cast<int>(rng->Uniform(3)));
  }
  const int64_t card = 1 + static_cast<int64_t>(rng->Uniform(40));
  std::vector<format::Row> rows(num_rows);
  for (format::Row& row : rows) {
    for (size_t c = 0; c < schema.num_fields(); ++c) {
      if (null_mode[c] == 2 || (null_mode[c] == 1 && rng->OneIn(3))) {
        row.fields.emplace_back(std::monostate{});
        continue;
      }
      const int64_t k = static_cast<int64_t>(rng->Uniform(card + 2));
      switch (schema.field(c).type) {
        case format::DataType::kBool:
          row.fields.emplace_back(k % 2 == 0);
          break;
        case format::DataType::kInt64:
          row.fields.emplace_back(k - card / 2);
          break;
        case format::DataType::kDouble: {
          const double v = static_cast<double>(k - card / 2) / 4;
          row.fields.emplace_back(k == 0 ? -0.0 : k == 1 ? 0.0 : v);
          break;
        }
        case format::DataType::kString:
          row.fields.emplace_back(
              k == 0 ? std::string()
                     : std::string(static_cast<size_t>(k % 5), 'x') +
                           std::to_string(k));
          break;
        case format::DataType::kNull:
          break;
      }
    }
  }
  return rows;
}

TEST(FileStatsTest, WriterStatsMatchTwoPassOracle) {
  Random rng(2026);
  for (int trial = 0; trial < 60; ++trial) {
    const size_t num_fields = 4 + rng.Uniform(5);
    std::vector<format::Field> fields;
    fields.reserve(num_fields);
    for (size_t c = 0; c < num_fields; ++c) {
      fields.push_back({"c" + std::to_string(c),
                        static_cast<format::DataType>(c % 4)});
    }
    const format::Schema schema(fields);
    const std::vector<format::Row> rows =
        RandomStatsRows(&rng, schema, 1 + rng.Uniform(400));
    format::LakeFileOptions options;
    options.rows_per_group = 1 + rng.Uniform(trial % 2 == 0 ? 50 : 8192);
    const format::EncodedLakeFile file =
        format::EncodeLakeFile(schema, BatchOf(schema, rows), options);
    DataFileMeta got = MetaOf(schema, file, rows.size());
    DataFileMeta want = got;
    want.column_stats = OracleStats(schema, rows);
    for (const auto& [column, expected] : want.column_stats) {
      const format::ColumnStats& actual = got.column_stats[column];
      EXPECT_EQ(actual.min, expected.min) << trial << " " << column;
      EXPECT_EQ(actual.max, expected.max) << trial << " " << column;
      EXPECT_EQ(actual.null_count, expected.null_count) << trial << column;
      EXPECT_EQ(actual.ndv, expected.ndv) << trial << " " << column;
      EXPECT_EQ(actual.avg_width, expected.avg_width) << trial << column;
    }
    // Byte equality also pins which of -0.0 and +0.0 is the min/max.
    EXPECT_EQ(Encoded(got), Encoded(want)) << "trial " << trial;
  }
}

TEST(FileStatsTest, InsertRecordsTheWritersStats) {
  LakehouseFixture f;
  TableOptions options;
  options.file_options.rows_per_group = 7;
  auto table = f.lakehouse->CreateTable("t", DpiSchema(),
                                        PartitionSpec::None(), &options);
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  Random rng(5);
  const std::vector<format::Row> rows =
      RandomStatsRows(&rng, DpiSchema(), 100);
  ASSERT_TRUE((*table)->Insert(rows).ok());
  auto files = (*table)->LiveFiles();
  ASSERT_TRUE(files.ok());
  ASSERT_EQ(files->size(), 1u);
  DataFileMeta want = (*files)[0];
  want.column_stats = OracleStats(DpiSchema(), rows);
  EXPECT_EQ(Encoded((*files)[0]), Encoded(want));
}

/// Fixed rows over every column type, NULLs, -0.0 and empty strings.
std::vector<format::Row> GoldenStatsRows() {
  std::vector<format::Row> rows;
  rows.reserve(100);
  for (int64_t i = 0; i < 100; ++i) {
    format::Row row;
    row.fields.emplace_back(i % 3 == 0);
    if (i % 11 == 0) {
      row.fields.emplace_back(std::monostate{});
    } else {
      row.fields.emplace_back(i * 7 % 23 - 5);
    }
    row.fields.emplace_back(i % 13 == 0 ? -0.0
                                        : static_cast<double>(i % 9) / 8);
    row.fields.emplace_back(i % 17 == 0 ? std::string()
                                        : "v" + std::to_string(i % 6));
    row.fields.emplace_back(std::monostate{});
    rows.push_back(std::move(row));
  }
  return rows;
}

/// Seeded rows over every encoding choice and every edge the one-pass
/// summary must keep: int64 RLE / delta / dictionary (with and without a
/// real 0 beside the NULL default) / plain, string dictionary (with and
/// without a real "" beside it) / plain (embedded NUL bytes, values over
/// 1 KiB), bit-packed bools, ±0.0 in both orders, NaN of both signs, a
/// kNull column and all-NULL int64 and string columns.
format::Schema EveryEncodingSchema() {
  return format::Schema{{"rle", format::DataType::kInt64},
                        {"delta", format::DataType::kInt64},
                        {"dict_zero", format::DataType::kInt64},
                        {"dict", format::DataType::kInt64},
                        {"plain", format::DataType::kInt64},
                        {"s_dict_empty", format::DataType::kString},
                        {"s_dict", format::DataType::kString},
                        {"s_plain", format::DataType::kString},
                        {"b", format::DataType::kBool},
                        {"zeros", format::DataType::kDouble},
                        {"nans", format::DataType::kDouble},
                        {"n", format::DataType::kNull},
                        {"i_null", format::DataType::kInt64},
                        {"s_null", format::DataType::kString}};
}

std::vector<format::Row> EveryEncodingRows(size_t num_rows) {
  Random rng(4242);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const format::Value null{std::monostate{}};
  std::vector<format::Row> rows(num_rows);
  for (size_t i = 0; i < num_rows; ++i) {
    std::vector<format::Value>& f = rows[i].fields;
    const int64_t k = static_cast<int64_t>(i);
    f.emplace_back(k / 50);
    f.emplace_back(k * 3 + static_cast<int64_t>(rng.Uniform(3)));
    const int64_t code = static_cast<int64_t>(rng.Uniform(10));
    f.push_back(i % 7 == 3 ? null : format::Value((code - 4) * 1000));
    f.push_back(i % 5 == 1 ? null : format::Value(code * 1000 + 7));
    f.emplace_back(static_cast<int64_t>(rng.Next()));
    const std::string city = "city-" + std::to_string(rng.Uniform(12));
    f.push_back(i % 9 == 2   ? null
                : i % 11 == 0 ? format::Value(std::string())
                              : format::Value(city));
    f.push_back(i % 6 == 5 ? null : format::Value(city + "x"));
    std::string text = "t" + std::to_string(rng.Next());
    if (i % 13 == 4) text += std::string("\0mid\0", 5);
    if (i % 97 == 10) text += std::string(1500, static_cast<char>('a' + i % 26));
    f.push_back(i % 17 == 8 ? null : format::Value(text));
    f.push_back(i % 4 == 2 ? null : format::Value(rng.OneIn(3)));
    // Non-negative, so a zero is the min: -0.0 arrives first in the first
    // row group and +0.0 first in the last one.
    double zero = static_cast<double>(rng.Uniform(1000)) / 8 + 1;
    if (i == 5 || i == num_rows - 3) zero = -0.0;
    if (i == 6 || i == num_rows - 4) zero = 0.0;
    f.push_back(i % 10 == 9 ? null : format::Value(zero));
    double wild = static_cast<double>(rng.Uniform(64)) - 32;
    if (i % 31 == 3) wild = nan;
    if (i % 37 == 4) wild = -nan;
    f.push_back(i % 8 == 7 ? null : format::Value(wild));
    f.push_back(null);
    f.push_back(null);
    f.push_back(null);
  }
  return rows;
}

TEST(FileStatsTest, EncodingIsFrozen) {
  // Data files are stored, and their metadata is committed, so both
  // encodings must never drift: (size, CRC-32C) of a LakeFile of fixed rows
  // and of its DataFileMeta.
  const format::Schema schema{{"b", format::DataType::kBool},
                              {"i", format::DataType::kInt64},
                              {"d", format::DataType::kDouble},
                              {"s", format::DataType::kString},
                              {"n", format::DataType::kInt64}};
  const std::vector<format::Row> rows = GoldenStatsRows();
  format::LakeFileOptions options;
  options.rows_per_group = 16;
  const format::EncodedLakeFile file =
      format::EncodeLakeFile(schema, BatchOf(schema, rows), options);
  EXPECT_EQ(file.bytes.size(), 1716u);
  EXPECT_EQ(Crc32c(ByteView(file.bytes)), 0x54f17f7du);
  const Bytes meta = Encoded(MetaOf(schema, file, rows.size()));
  EXPECT_EQ(meta.size(), 110u);
  EXPECT_EQ(Crc32c(ByteView(meta)), 0xb5fe87b5u);

  // The same for EveryEncodingRows(10000) at 7 and 8192 rows per group.
  const format::Schema every = EveryEncodingSchema();
  const std::vector<format::Row> every_rows = EveryEncodingRows(10000);
  struct Golden {
    size_t rows_per_group;
    size_t file_size;
    uint32_t file_crc;
    size_t meta_size;
    uint32_t meta_crc;
  };
  for (const Golden& golden :
       {Golden{7, 1348408, 0x3f034324, 413, 0xa8916eb3},
        Golden{8192, 440232, 0xeab2bc0d, 413, 0xdcd39f3c}}) {
    format::LakeFileOptions every_options;
    every_options.rows_per_group = golden.rows_per_group;
    const format::EncodedLakeFile every_file = format::EncodeLakeFile(
        every, BatchOf(every, every_rows), every_options);
    const Bytes every_meta =
        Encoded(MetaOf(every, every_file, every_rows.size()));
    EXPECT_EQ(every_file.bytes.size(), golden.file_size)
        << golden.rows_per_group;
    EXPECT_EQ(Crc32c(ByteView(every_file.bytes)), golden.file_crc)
        << golden.rows_per_group;
    EXPECT_EQ(every_meta.size(), golden.meta_size) << golden.rows_per_group;
    EXPECT_EQ(Crc32c(ByteView(every_meta)), golden.meta_crc)
        << golden.rows_per_group;
  }
}

TEST(FileStatsTest, EveryEncodingChoiceIsCovered) {
  // EncodingIsFrozen freezes what it means to: at 8192 rows per group
  // its first row group holds each encoding choice named in the schema.
  const format::Schema schema = EveryEncodingSchema();
  const std::vector<format::Row> rows = EveryEncodingRows(10000);
  const format::EncodedLakeFile file =
      format::EncodeLakeFile(schema, BatchOf(schema, rows), {});
  auto reader = format::LakeFileReader::Open(file.bytes);
  ASSERT_TRUE(reader.ok());
  const std::vector<codec::Encoding> want = {
      codec::Encoding::kRle,   codec::Encoding::kDelta,
      codec::Encoding::kDict,  codec::Encoding::kDict,
      codec::Encoding::kPlain, codec::Encoding::kDict,
      codec::Encoding::kDict,  codec::Encoding::kPlain,
      codec::Encoding::kBitPack, codec::Encoding::kPlain,
      codec::Encoding::kPlain, codec::Encoding::kPlain,
      codec::Encoding::kRle,   codec::Encoding::kDict};
  for (size_t c = 0; c < schema.num_fields(); ++c) {
    const format::ChunkMeta& chunk = reader->row_group(0).columns[c];
    EXPECT_EQ(static_cast<codec::Encoding>(file.bytes[chunk.offset]), want[c])
        << schema.field(c).name;
  }
  // The NULL defaults share an entry with a real 0 or "" (dictionary size
  // = NDV) or add one (NDV + 1); the NDV never counts them.
  for (const char* column : {"dict_zero", "dict", "s_dict_empty", "s_dict"}) {
    const int c = schema.FieldIndex(column);
    auto chunk = reader->ReadColumnChunk(0, c);
    ASSERT_TRUE(chunk.ok());
    ASSERT_TRUE(chunk->dict_view) << column;
    const size_t dict_size = std::visit(
        [](const auto& dict) { return dict.size(); }, chunk->dict);
    const bool shares = std::string(column).find("zero") != std::string::npos ||
                        std::string(column).find("empty") != std::string::npos;
    EXPECT_EQ(dict_size, reader->row_group(0).columns[c].stats.ndv +
                             (shares ? 0 : 1))
        << column;
  }
  const format::ColumnStats& zeros = file.column_stats[schema.FieldIndex("zeros")];
  ASSERT_TRUE(zeros.min.has_value());
  EXPECT_TRUE(std::signbit(std::get<double>(*zeros.min)));  // first wins
  EXPECT_FALSE(file.column_stats[schema.FieldIndex("nans")].min.has_value());
  EXPECT_EQ(file.column_stats[schema.FieldIndex("i_null")].ndv, 0u);
  EXPECT_EQ(file.column_stats[schema.FieldIndex("s_null")].ndv, 0u);
}

TEST(FileStatsTest, FrozenFilesReadBackEveryCell) {
  // The files EncodingIsFrozen freezes, kNull column included, open and
  // read back the rows written, bit for bit (NaN payloads, -0.0).
  const format::Schema schema = EveryEncodingSchema();
  const std::vector<format::Row> rows = EveryEncodingRows(10000);
  for (size_t rows_per_group : {7, 8192}) {
    format::LakeFileOptions options;
    options.rows_per_group = rows_per_group;
    const format::EncodedLakeFile file =
        format::EncodeLakeFile(schema, BatchOf(schema, rows), options);
    auto reader = format::LakeFileReader::Open(file.bytes);
    ASSERT_TRUE(reader.ok()) << reader.status().ToString();
    EXPECT_EQ(reader->schema(), schema);
    auto read = reader->ReadAll();
    ASSERT_TRUE(read.ok()) << read.status().ToString();
    ASSERT_EQ(read->size(), rows.size());
    for (size_t r = 0; r < rows.size(); ++r) {
      for (size_t c = 0; c < schema.num_fields(); ++c) {
        Bytes want, got;
        format::EncodeValue(&want, rows[r].fields[c]);
        format::EncodeValue(&got, (*read)[r].fields[c]);
        ASSERT_EQ(got, want) << rows_per_group << " row " << r << " "
                             << schema.field(c).name;
      }
    }
  }
}

TEST(FileStatsTest, NullFieldSchemaRoundTripsThroughTableInfo) {
  TableInfo info;
  info.name = "every";
  info.schema = EveryEncodingSchema();
  Bytes encoded;
  info.EncodeTo(&encoded);
  auto decoded = TableInfo::DecodeFrom(ByteView(encoded));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->schema, info.schema);
  EXPECT_EQ(decoded->schema.field(11).type, format::DataType::kNull);
  Bytes again;
  decoded->EncodeTo(&again);
  EXPECT_EQ(again, encoded);
}

TEST(FileStatsTest, NanLeavesMinMaxOutAndCountsOnce) {
  const format::Schema schema{{"x", format::DataType::kDouble}};
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::vector<format::Row> rows;
  rows.reserve(6);
  for (double v : {nan, 10.0, -nan, 10.0, -0.0, 0.0}) {
    rows.push_back(format::Row{{format::Value(v)}});
  }
  format::LakeFileOptions options;
  options.rows_per_group = 4;  // groups [nan 10 nan 10] and [-0 +0]
  const format::EncodedLakeFile file =
      format::EncodeLakeFile(schema, BatchOf(schema, rows), options);
  const format::ColumnStats& stats = file.column_stats[0];
  EXPECT_FALSE(stats.min.has_value());
  EXPECT_FALSE(stats.max.has_value());
  EXPECT_EQ(stats.ndv, 3u);  // NaN, 10, and the zeros
  EXPECT_EQ(stats.avg_width, 8.0);

  auto reader = format::LakeFileReader::Open(file.bytes);
  ASSERT_TRUE(reader.ok());
  ASSERT_EQ(reader->num_row_groups(), 2u);
  const format::ColumnStats& with_nan = reader->row_group(0).columns[0].stats;
  EXPECT_FALSE(with_nan.min.has_value());
  EXPECT_EQ(with_nan.ndv, 2u);
  const format::ColumnStats& zeros = reader->row_group(1).columns[0].stats;
  ASSERT_TRUE(zeros.min.has_value());
  EXPECT_TRUE(std::signbit(std::get<double>(*zeros.min)));  // first wins
  EXPECT_EQ(zeros.ndv, 1u);
}

// A commit's DataFileMeta stores its column stats with the footer's codec,
// byte for byte, and rejects the same unknown flag bits.
TEST(FileStatsTest, CommitStatsUseTheFooterCodec) {
  DataFileMeta meta;
  meta.path = "/t/data/f-0";
  meta.partition = "p0";
  meta.record_count = 3;
  meta.file_bytes = 100;
  meta.added_seq = 1;
  format::ColumnStats stats;
  stats.min = format::Value(int64_t{-4});
  stats.max = format::Value(int64_t{9});
  stats.has_extended = true;
  stats.null_count = 1;
  stats.ndv = 2;
  stats.avg_width = 8.0;
  meta.column_stats["c"] = stats;
  Bytes encoded;
  meta.EncodeTo(&encoded);
  Bytes footer;
  format::EncodeColumnStats(&footer, stats);
  ASSERT_GT(encoded.size(), footer.size());
  const size_t flag_at = encoded.size() - footer.size();  // the last stats
  EXPECT_TRUE(std::equal(footer.begin(), footer.end(),
                         encoded.begin() + static_cast<ptrdiff_t>(flag_at)));

  Decoder good{ByteView(encoded)};
  auto decoded = DataFileMeta::DecodeFrom(&good);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->column_stats.at("c").ndv, 2u);

  encoded[flag_at] |= 0x80;
  Decoder bad{ByteView(encoded)};
  auto rejected = DataFileMeta::DecodeFrom(&bad);
  ASSERT_FALSE(rejected.ok());
  EXPECT_TRUE(rejected.status().IsCorruption())
      << rejected.status().ToString();
}

// A double column whose values include NaN must never be pruned by a range
// that NaN broke: every predicate returns what an unpruned scan (every row,
// filtered one by one) returns.
TEST(TableTest, NanNeverHidesMatchingRows) {
  LakehouseFixture f;
  const format::Schema schema{{"x", format::DataType::kDouble}};
  auto table = f.lakehouse->CreateTable("t", schema, PartitionSpec::None());
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  // One file per batch: NaN first, NaN later, NaN only, no NaN.
  const std::vector<std::vector<double>> files = {
      {nan, 10.0}, {3.0, nan, -1.0}, {nan}, {1.0, 2.0}};
  for (const std::vector<double>& values : files) {
    std::vector<format::Row> rows;
    rows.reserve(values.size());
    for (double v : values) rows.push_back(format::Row{{format::Value(v)}});
    ASSERT_TRUE((*table)->Insert(rows).ok());
  }
  auto all = (*table)->Select(query::QuerySpec());
  ASSERT_TRUE(all.ok()) << all.status().ToString();
  ASSERT_EQ(all->rows.size(), 8u);

  const format::Value five(5.0);
  const std::vector<query::Predicate> predicates = {
      query::Predicate::Lt("x", five),  query::Predicate::Le("x", five),
      query::Predicate::Gt("x", five),  query::Predicate::Ge("x", five),
      query::Predicate::Eq("x", five),  query::Predicate::Ne("x", five),
      query::Predicate::In("x", {format::Value(10.0), format::Value(2.0)})};
  for (const query::Predicate& p : predicates) {
    query::QuerySpec spec;
    spec.where.Add(p);
    spec.aggregates = {query::AggregateSpec::CountStar()};
    auto got = (*table)->Select(spec);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    int64_t unpruned = 0;
    for (const format::Row& row : all->rows) {
      if (oracle::Matches(spec.where, schema, row)) ++unpruned;
    }
    EXPECT_EQ(std::get<int64_t>(got->rows[0].fields[0]), unpruned)
        << p.ToString();
  }
}

// ---------------- Catalog memo ----------------

// A Select after one Insert decodes only that Insert's commit: the rest of
// the chain comes from the catalog memo. Every commit is still read, and
// the memo gauge holds exactly the head chain's stored bytes.
TEST(CatalogTest, SelectAfterOneInsertDecodesOneCommit) {
  auto& registry = MetricsRegistry::Global();
  Gauge* memo_bytes = registry.GetGauge("table.catalog.memo_bytes");
  const int64_t gauge_before = memo_bytes->Value();
  {
    LakehouseFixture f;
    Table* table = f.CreateDpiTable();
    for (int i = 0; i < 5; ++i) {
      ASSERT_TRUE(table->Insert({DpiRow("u", i, "beijing")}).ok());
    }
    query::QuerySpec spec;
    spec.aggregates = {query::AggregateSpec::CountStar()};
    ASSERT_TRUE(table->Select(spec).ok());
    ASSERT_TRUE(table->Insert({DpiRow("u", 5, "hubei")}).ok());

    const uint64_t decoded_before =
        registry.CounterValue("table.catalog.commits_decoded");
    SelectMetrics m;
    auto count = table->Select(spec, {}, &m);
    ASSERT_TRUE(count.ok()) << count.status().ToString();
    EXPECT_EQ(std::get<int64_t>(count->rows[0].fields[0]), 6);
    EXPECT_EQ(registry.CounterValue("table.catalog.commits_decoded") -
                  decoded_before,
              1u);
    // Catalog entry + snapshot record + all six commits.
    EXPECT_EQ(m.metadata.reads, 8u);

    // The same head again decodes nothing.
    ASSERT_TRUE(table->Select(spec).ok());
    EXPECT_EQ(registry.CounterValue("table.catalog.commits_decoded") -
                  decoded_before,
              1u);

    auto info = table->Info();
    ASSERT_TRUE(info.ok());
    auto snap = f.meta->GetSnapshot(info->path, info->current_snapshot_id);
    ASSERT_TRUE(snap.ok());
    int64_t chain_bytes = 0;
    for (uint64_t seq : snap->commit_seqs) {
      auto bytes = f.meta->ReadCommit(info->path, seq);
      ASSERT_TRUE(bytes.ok());
      chain_bytes += static_cast<int64_t>(bytes->size());
    }
    EXPECT_EQ(memo_bytes->Value() - gauge_before, chain_bytes);
  }
  // The memo dies with its table.
  EXPECT_EQ(memo_bytes->Value(), gauge_before);
}

// A memoized decode is reused only when the commit's stored bytes match,
// never on its key alone: a second lakehouse over the same stores drops
// the table and re-creates it, so commit 1 and snapshot 1 now describe
// other files, and the first lakehouse's table object, memo intact, must
// read the new ones.
TEST(CatalogTest, MemoTrustsBytesNotKeys) {
  LakehouseFixture f;
  Table* table = f.CreateDpiTable();
  ASSERT_TRUE(table->Insert({DpiRow("old", 1, "beijing")}).ok());
  ASSERT_TRUE(table->LiveFiles().ok());

  LakehouseService other(f.meta.get(), f.objects.get(), &f.clock,
                         &f.compute_link);
  ASSERT_TRUE(other.DropTableHard("dpi").ok());
  auto recreated = other.CreateTable("dpi", DpiSchema(),
                                     PartitionSpec::Identity("province"));
  ASSERT_TRUE(recreated.ok());
  f.clock.Advance(sim::kSecond);
  ASSERT_TRUE((*recreated)
                  ->Insert({DpiRow("new", 2, "hubei"),
                            DpiRow("new", 3, "hubei")})
                  .ok());

  auto files = table->LiveFiles();
  auto want = (*recreated)->LiveFiles();
  ASSERT_TRUE(files.ok() && want.ok());
  ASSERT_EQ(files->size(), 1u);
  EXPECT_EQ((*files)[0].path, (*want)[0].path);
  EXPECT_EQ((*files)[0].record_count, 2u);
  auto rows = table->Select(query::QuerySpec());
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  ASSERT_EQ(rows->rows.size(), 2u);
  for (const format::Row& row : rows->rows) {
    EXPECT_EQ(row.fields[0], format::Value(std::string("new")));
  }
}

using SnapshotRows =
    std::map<uint64_t, std::vector<std::vector<format::Value>>>;

// Every retained snapshot's rows, read with explicit snapshot ids and
// sorted so that file order does not matter.
SnapshotRows ReadRetainedSnapshots(Table* table, const TableInfo& info) {
  SnapshotRows out;
  for (const auto& [id, ts] : info.snapshot_log) {
    SelectOptions pinned;
    pinned.snapshot_id = id;
    auto result = table->Select(query::QuerySpec(), pinned);
    EXPECT_TRUE(result.ok()) << "snapshot " << id << ": "
                             << result.status().ToString();
    if (!result.ok()) continue;
    std::vector<std::vector<format::Value>>& rows = out[id];
    for (format::Row& row : result->rows) rows.push_back(std::move(row.fields));
    std::sort(rows.begin(), rows.end());
  }
  return out;
}

std::vector<std::tuple<std::string, uint64_t, uint64_t>> FileKeys(
    const LiveFileList& files) {
  std::vector<std::tuple<std::string, uint64_t, uint64_t>> keys;
  for (const DataFileMeta& f : files) {
    keys.emplace_back(f.path, f.record_count, f.added_seq);
  }
  return keys;
}

// The memoized table must read exactly what a freshly opened lakehouse
// over the same stores reads: its tables start with an empty memo, so
// they replay every chain cold.
void ExpectMatchesColdReplay(LakehouseFixture& f, Table* table,
                             const std::string& step) {
  auto info = table->Info();
  ASSERT_TRUE(info.ok()) << step;
  LakehouseService reopened(f.meta.get(), f.objects.get(), &f.clock,
                            &f.compute_link);
  auto cold = reopened.GetTable(info->name);
  ASSERT_TRUE(cold.ok()) << step;
  EXPECT_EQ(ReadRetainedSnapshots(table, *info),
            ReadRetainedSnapshots(*cold, *info))
      << step;
  auto warm_files = table->LiveFiles();
  auto cold_files = (*cold)->LiveFiles();
  ASSERT_TRUE(warm_files.ok() && cold_files.ok()) << step;
  EXPECT_EQ(FileKeys(*warm_files), FileKeys(*cold_files)) << step;
}

class MemoizedReadTest : public ::testing::TestWithParam<DeleteMode> {};

// Property: the memo never changes what a read returns, through a seeded
// mix of every operation that commits or reads a chain.
TEST_P(MemoizedReadTest, EqualsColdReplayAfterEveryOperation) {
  LakehouseFixture f(MetadataMode::kFileBased);
  TableOptions options;
  options.delete_mode = GetParam();
  options.target_file_bytes = 1 << 20;
  auto created = f.lakehouse->CreateTable(
      "dpi", DpiSchema(), PartitionSpec::Identity("province"), &options);
  ASSERT_TRUE(created.ok());
  Table* table = *created;
  Random rng(2207);
  auto insert = [&] {
    std::vector<format::Row> rows;
    const size_t n = 1 + rng.Uniform(12);
    for (size_t i = 0; i < n; ++i) {
      rows.push_back(DpiRow("u" + std::to_string(rng.Uniform(5)),
                            static_cast<int64_t>(rng.Uniform(1000)),
                            rng.OneIn(2) ? "beijing" : "hubei"));
    }
    return table->Insert(rows);
  };
  auto cut = [&] {
    return query::Conjunction{query::Predicate::Lt(
        "start_time", format::Value(static_cast<int64_t>(rng.Uniform(400))))};
  };
  for (int cycle = 0; cycle < 3; ++cycle) {
    const std::string at = "cycle " + std::to_string(cycle) + ": ";
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(insert().ok());
      f.clock.Advance(10 * sim::kSecond);
      ExpectMatchesColdReplay(f, table, at + "insert");
    }
    const int64_t before_deletes = static_cast<int64_t>(f.clock.NowSeconds());
    ASSERT_TRUE(table->Delete(cut()).ok());
    ExpectMatchesColdReplay(f, table, at + "delete");
    ASSERT_TRUE(table
                    ->Update(cut(), "bytes",
                             format::Value(static_cast<int64_t>(cycle)))
                    .ok());
    ExpectMatchesColdReplay(f, table, at + "update");
    ASSERT_TRUE(table->CompactPartition("beijing").ok());
    ExpectMatchesColdReplay(f, table, at + "compaction");

    // A compaction planned before an insert into its partition conflicts.
    auto planned = table->Info();
    ASSERT_TRUE(planned.ok());
    ASSERT_TRUE(table->Insert({DpiRow("late", 1, "hubei")}).ok());
    ASSERT_TRUE(table->Insert({DpiRow("late", 2, "hubei")}).ok());
    auto conflicted =
        table->CompactPartition("hubei", planned->current_snapshot_id);
    EXPECT_TRUE(conflicted.status().IsConflict())
        << conflicted.status().ToString();
    ExpectMatchesColdReplay(f, table, at + "conflicted compaction");

    // Time travel to before this cycle's deletes.
    SelectOptions as_of;
    as_of.as_of_timestamp = before_deletes;
    auto info = table->Info();
    ASSERT_TRUE(info.ok());
    LakehouseService reopened(f.meta.get(), f.objects.get(), &f.clock,
                              &f.compute_link);
    auto cold = reopened.GetTable("dpi");
    ASSERT_TRUE(cold.ok());
    auto warm_rows = table->Select(query::QuerySpec(), as_of);
    auto cold_rows = (*cold)->Select(query::QuerySpec(), as_of);
    ASSERT_TRUE(warm_rows.ok() && cold_rows.ok());
    EXPECT_EQ(warm_rows->rows.size(), cold_rows->rows.size()) << at;

    f.clock.Advance(10 * sim::kSecond);
    ASSERT_TRUE(table->RewriteManifest().ok());
    ExpectMatchesColdReplay(f, table, at + "rewrite manifest");
    ASSERT_TRUE(insert().ok());
    f.clock.Advance(10 * sim::kSecond);
    ASSERT_TRUE(table->ExpireSnapshots(before_deletes).ok());
    ExpectMatchesColdReplay(f, table, at + "expire snapshots");
  }

  // A failed commit (the catalog entry made immutable) retracts its
  // records; its sequence number goes to no published commit.
  f.objects->SetWormPrefix("/catalog/");
  EXPECT_FALSE(insert().ok());
  ExpectMatchesColdReplay(f, table, "failed commit");
}

INSTANTIATE_TEST_SUITE_P(
    DeleteModes, MemoizedReadTest,
    ::testing::Values(DeleteMode::kCopyOnWrite, DeleteMode::kMergeOnRead),
    [](const ::testing::TestParamInfo<DeleteMode>& info) {
      return std::string(info.param == DeleteMode::kCopyOnWrite
                             ? "CopyOnWrite"
                             : "MergeOnRead");
    });

// Readers racing a writer see whole commits only: every count is a
// multiple of the batch size, and no reader's count ever goes back.
TEST(CatalogTest, ConcurrentSelectsAndInsertsSeeWholeCommits) {
  LakehouseFixture f;
  Table* table = f.CreateDpiTable();
  constexpr int kBatches = 40;
  constexpr int kRows = 4;
  std::atomic<bool> done{false};
  std::atomic<int> bad_reads{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&] {
      query::QuerySpec spec;
      spec.aggregates = {query::AggregateSpec::CountStar()};
      int64_t last = 0;
      while (!done.load()) {
        auto count = table->Select(spec);
        if (!count.ok() || count->rows.size() != 1) {
          ++bad_reads;
          continue;
        }
        const int64_t n = std::get<int64_t>(count->rows[0].fields[0]);
        if (n % kRows != 0 || n < last) ++bad_reads;
        last = n;
      }
    });
  }
  for (int b = 0; b < kBatches; ++b) {
    std::vector<format::Row> rows;
    for (int i = 0; i < kRows; ++i) {
      rows.push_back(DpiRow("u", b * kRows + i, i % 2 ? "beijing" : "hubei"));
    }
    EXPECT_TRUE(table->Insert(rows).ok());
  }
  done = true;
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(bad_reads.load(), 0);
  auto files = table->LiveFiles();
  ASSERT_TRUE(files.ok());
  EXPECT_EQ(files->size(), 2u * kBatches);
}

}  // namespace
}  // namespace streamlake::table
