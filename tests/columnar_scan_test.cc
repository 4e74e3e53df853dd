// Late-materialization columnar scans: extended footer stats round-trip,
// predicate evaluation on dictionary codes vs decode-then-filter, the
// selection vector composed with merge-on-read deletes, the per-column
// decoded-block cache keying, the typed filter kernels against
// Predicate::Matches, and batch aggregation against the row executor.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/threadpool.h"
#include "format/lakefile.h"
#include "query/executor.h"
#include "table/block_cache.h"
#include "table/lakehouse.h"

namespace streamlake::table {
namespace {

format::Schema WideSchema() {
  return format::Schema{{"id", format::DataType::kInt64},
                        {"tag", format::DataType::kString},
                        {"score", format::DataType::kDouble},
                        {"flag", format::DataType::kBool}};
}

struct ColumnarFixture {
  sim::SimClock clock;
  storage::StoragePool pool{"ssd", sim::MediaType::kNvmeSsd, &clock};
  sim::NetworkModel compute_link{sim::NetworkProfile::Rdma(), &clock};
  kv::KvStore object_index;
  kv::KvStore meta_cache;
  std::unique_ptr<ThreadPool> scan_pool;
  std::unique_ptr<DecodedBlockCache> cache;
  std::unique_ptr<storage::PlogStore> plogs;
  std::unique_ptr<storage::ObjectStore> objects;
  std::unique_ptr<MetadataStore> meta;
  std::unique_ptr<LakehouseService> lakehouse;

  explicit ColumnarFixture(int scan_threads = 0, uint64_t cache_bytes = 0,
                           DeleteMode delete_mode = DeleteMode::kCopyOnWrite) {
    pool.AddCluster(3, 2, 512 << 20);
    storage::PlogStoreConfig config;
    config.num_shards = 16;
    config.plog.capacity = 32 << 20;
    config.plog.stripe_unit = 4096;
    config.plog.redundancy = storage::RedundancyConfig::Replication(3);
    plogs = std::make_unique<storage::PlogStore>(&pool, config, &clock);
    objects = std::make_unique<storage::ObjectStore>(plogs.get(),
                                                     &object_index);
    meta = std::make_unique<MetadataStore>(objects.get(), &meta_cache,
                                           MetadataMode::kAccelerated);
    if (scan_threads > 0) {
      scan_pool = std::make_unique<ThreadPool>(scan_threads, "test.scan");
    }
    if (cache_bytes > 0) {
      cache = std::make_unique<DecodedBlockCache>(cache_bytes);
    }
    TableOptions options;
    options.max_rows_per_file = 128;
    options.file_options.rows_per_group = 64;
    options.delete_mode = delete_mode;
    lakehouse = std::make_unique<LakehouseService>(
        meta.get(), objects.get(), &clock, &compute_link, options,
        scan_pool.get(), cache.get());
  }
};

/// Randomized rows exercising all encoding choosers: `tag` repeats few
/// distinct values (dictionary), `id` is mostly sorted (delta) or constant
/// runs (RLE), `score`/`flag` stay plain/bit-packed.
std::vector<format::Row> RandomRows(size_t n, uint64_t seed,
                                    size_t distinct_tags) {
  Random rng(seed);
  std::vector<format::Row> rows;
  rows.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    format::Row row;
    row.fields = {
        format::Value(static_cast<int64_t>(i / 7)),  // long runs -> RLE
        format::Value("t-" + std::to_string(rng.Uniform(distinct_tags))),
        format::Value(static_cast<double>(rng.Uniform(1000)) / 10.0),
        format::Value(rng.Uniform(2) == 0)};
    rows.push_back(std::move(row));
  }
  return rows;
}

// ---------------------------------------------------------------------------
// Extended footer statistics round-trip through the file format.

TEST(ColumnarScanTest, FooterStatsRoundTrip) {
  format::Schema schema{{"s", format::DataType::kString},
                        {"v", format::DataType::kInt64}};
  format::LakeFileOptions options;
  options.rows_per_group = 8;
  format::LakeFileWriter writer(schema, options);
  // One full group: 2 NULLs in "s", 3 distinct non-NULL strings with a
  // known total width; "v" has one NULL and 4 distinct values.
  const std::vector<std::pair<format::Value, format::Value>> cells = {
      {format::Value(std::string("aa")), format::Value(int64_t{1})},
      {format::Value(std::string("bbbb")), format::Value(int64_t{2})},
      {format::Value(std::monostate{}), format::Value(int64_t{2})},
      {format::Value(std::string("aa")), format::Value(int64_t{3})},
      {format::Value(std::string("cccccc")), format::Value(int64_t{4})},
      {format::Value(std::monostate{}), format::Value(std::monostate{})},
      {format::Value(std::string("aa")), format::Value(int64_t{1})},
      {format::Value(std::string("bbbb")), format::Value(int64_t{2})},
  };
  for (const auto& [s, v] : cells) {
    format::Row row;
    row.fields = {s, v};
    ASSERT_TRUE(writer.Append(row).ok());
  }
  auto bytes = writer.Finish();
  ASSERT_TRUE(bytes.ok());
  auto reader = format::LakeFileReader::Open(*bytes);
  ASSERT_TRUE(reader.ok());
  ASSERT_EQ(reader->num_row_groups(), 1u);

  const format::ColumnStats& s = reader->row_group(0).columns[0].stats;
  EXPECT_TRUE(s.has_extended);
  EXPECT_EQ(s.null_count, 2u);
  EXPECT_EQ(s.ndv, 3u);  // aa, bbbb, cccccc
  // 6 non-NULL strings: aa(2)*3 + bbbb(4)*2 + cccccc(6) = 20 bytes / 6.
  EXPECT_DOUBLE_EQ(s.avg_width, 20.0 / 6.0);
  ASSERT_TRUE(s.min.has_value());
  EXPECT_EQ(std::get<std::string>(*s.min), "aa");
  EXPECT_EQ(std::get<std::string>(*s.max), "cccccc");

  const format::ColumnStats& v = reader->row_group(0).columns[1].stats;
  EXPECT_TRUE(v.has_extended);
  EXPECT_EQ(v.null_count, 1u);
  EXPECT_EQ(v.ndv, 4u);
  EXPECT_DOUBLE_EQ(v.avg_width, 8.0);
  EXPECT_EQ(std::get<int64_t>(*v.min), 1);
  EXPECT_EQ(std::get<int64_t>(*v.max), 4);
}

TEST(ColumnarScanTest, FooterStatsAllNullChunk) {
  format::Schema schema{{"s", format::DataType::kString}};
  format::LakeFileWriter writer(schema);
  for (int i = 0; i < 5; ++i) {
    format::Row row;
    row.fields = {format::Value(std::monostate{})};
    ASSERT_TRUE(writer.Append(row).ok());
  }
  auto bytes = writer.Finish();
  ASSERT_TRUE(bytes.ok());
  auto reader = format::LakeFileReader::Open(*bytes);
  ASSERT_TRUE(reader.ok());
  ASSERT_EQ(reader->num_row_groups(), 1u);
  const format::ColumnStats& s = reader->row_group(0).columns[0].stats;
  EXPECT_TRUE(s.has_extended);
  EXPECT_EQ(s.null_count, 5u);
  EXPECT_EQ(s.ndv, 0u);
  EXPECT_DOUBLE_EQ(s.avg_width, 0.0);
  EXPECT_FALSE(s.min.has_value());
  EXPECT_FALSE(s.max.has_value());

  // The all-NULL chunk round-trips its rows too.
  auto rows = reader->ReadAll();
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 5u);
  for (const format::Row& row : *rows) {
    EXPECT_TRUE(format::IsNull(row.fields[0]));
  }
}

TEST(ColumnarScanTest, FooterStatsEmptyFile) {
  format::LakeFileWriter writer(WideSchema());
  auto bytes = writer.Finish();
  ASSERT_TRUE(bytes.ok());
  auto reader = format::LakeFileReader::Open(*bytes);
  ASSERT_TRUE(reader.ok());
  EXPECT_EQ(reader->num_row_groups(), 0u);
  EXPECT_EQ(reader->num_rows(), 0u);
}

// ---------------------------------------------------------------------------
// Predicate-on-codes must agree with decode-then-filter, on randomized data
// covering dictionary, RLE, delta, and plain chunks.

TEST(ColumnarScanTest, PredicateOnCodesMatchesDecodeThenFilter) {
  ColumnarFixture f;
  auto table = f.lakehouse->CreateTable("wide", WideSchema(),
                                        PartitionSpec::None());
  ASSERT_TRUE(table.ok());
  ASSERT_TRUE((*table)->Insert(RandomRows(1000, /*seed=*/7,
                                          /*distinct_tags=*/6)).ok());

  std::vector<query::QuerySpec> specs;
  {  // Equality on the dictionary column.
    query::QuerySpec spec;
    spec.where.Add(query::Predicate::Eq("tag", format::Value(std::string("t-3"))));
    spec.order_by = "id";
    specs.push_back(spec);
  }
  {  // IN on the dictionary column + range on the RLE column.
    query::QuerySpec spec;
    spec.where.Add(query::Predicate::In(
        "tag", {format::Value(std::string("t-0")),
                format::Value(std::string("t-5"))}));
    spec.where.Add(query::Predicate::Lt("id", format::Value(int64_t{100})));
    spec.order_by = "id";
    specs.push_back(spec);
  }
  {  // Ne + a plain-column predicate (no code-space shortcut possible).
    query::QuerySpec spec;
    spec.where.Add(query::Predicate::Ne("tag", format::Value(std::string("t-1"))));
    spec.where.Add(query::Predicate::Ge("score", format::Value(50.0)));
    spec.order_by = "id";
    specs.push_back(spec);
  }
  {  // Equality on a value INSIDE every group's [min, max] ("t-2" < "t-2x"
     // < "t-3") but absent from every dictionary: min/max stats cannot
     // prune, the code-space check must — and still count visible rows.
    query::QuerySpec spec;
    spec.where.Add(query::Predicate::Eq("tag", format::Value(std::string("t-2x"))));
    specs.push_back(spec);
  }

  for (size_t i = 0; i < specs.size(); ++i) {
    SelectOptions pushdown;  // default: predicate-on-codes path
    SelectOptions shipped;
    shipped.pushdown = false;  // decode whole files, filter in the engine
    SelectMetrics pm;
    auto fast = (*table)->Select(specs[i], pushdown, &pm);
    auto slow = (*table)->Select(specs[i], shipped);
    ASSERT_TRUE(fast.ok()) << fast.status().ToString();
    ASSERT_TRUE(slow.ok()) << slow.status().ToString();
    EXPECT_EQ(fast->rows, slow->rows) << "spec " << i;
    if (i == 3) {
      EXPECT_TRUE(fast->rows.empty());
      EXPECT_EQ(fast->rows_scanned, 1000u)
          << "code-space prune must still count the groups' visible rows";
      EXPECT_GT(pm.dict_code_prunes, 0u)
          << "absent literal must short-circuit in code space";
    }
  }
}

TEST(ColumnarScanTest, NarrowSelectDecodesOnlyRequiredColumns) {
  ColumnarFixture f;
  auto table = f.lakehouse->CreateTable("wide", WideSchema(),
                                        PartitionSpec::None());
  ASSERT_TRUE(table.ok());
  ASSERT_TRUE((*table)->Insert(RandomRows(1000, /*seed=*/11,
                                          /*distinct_tags=*/6)).ok());

  query::QuerySpec narrow;  // touches tag (predicate) + id (projection)
  narrow.where.Add(query::Predicate::Eq("tag", format::Value(std::string("t-2"))));
  narrow.projection = {"id"};
  query::QuerySpec star;  // decodes everything
  star.where.Add(query::Predicate::Eq("tag", format::Value(std::string("t-2"))));

  SelectMetrics nm, sm;
  auto nr = (*table)->Select(narrow, {}, &nm);
  auto sr = (*table)->Select(star, {}, &sm);
  ASSERT_TRUE(nr.ok());
  ASSERT_TRUE(sr.ok());
  EXPECT_EQ(nr->rows.size(), sr->rows.size());
  EXPECT_LT(nm.columns_decoded, sm.columns_decoded);
  EXPECT_LT(nm.bytes_decoded, sm.bytes_decoded);
  EXPECT_EQ(nm.rows_materialized, nr->rows.size());
  // The narrow result's id values match the star result's id column.
  for (size_t r = 0; r < nr->rows.size(); ++r) {
    EXPECT_EQ(nr->rows[r].fields[0], sr->rows[r].fields[0]);
  }
}

// ---------------------------------------------------------------------------
// The selection vector composes with merge-on-read delete masks: a deleted
// row must neither match nor be counted as visible.

TEST(ColumnarScanTest, SelectionVectorComposesWithMergeOnReadDeletes) {
  ColumnarFixture with_mor(/*scan_threads=*/0, /*cache_bytes=*/0,
                           DeleteMode::kMergeOnRead);
  auto table = with_mor.lakehouse->CreateTable("wide", WideSchema(),
                                               PartitionSpec::None());
  ASSERT_TRUE(table.ok());
  std::vector<format::Row> rows = RandomRows(600, /*seed=*/3,
                                             /*distinct_tags=*/4);
  ASSERT_TRUE((*table)->Insert(rows).ok());

  // Merge-on-read delete of one dictionary value.
  auto deleted = (*table)->Delete(query::Conjunction{query::Predicate::Eq(
      "tag", format::Value(std::string("t-1")))});
  ASSERT_TRUE(deleted.ok());
  ASSERT_GT(*deleted, 0u);

  // Reference: filter the original rows in plain C++.
  uint64_t expect_match = 0;
  for (const format::Row& row : rows) {
    const std::string& tag = std::get<std::string>(row.fields[1]);
    if (tag == "t-1") continue;  // masked
    if (std::get<int64_t>(row.fields[0]) < 20) ++expect_match;
  }

  query::QuerySpec spec;
  spec.where.Add(query::Predicate::Lt("id", format::Value(int64_t{20})));
  spec.order_by = "id";
  auto got = (*table)->Select(spec);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->rows.size(), expect_match);
  for (const format::Row& row : got->rows) {
    EXPECT_NE(std::get<std::string>(row.fields[1]), "t-1");
  }

  // And composed with a dictionary-code predicate on the same column the
  // delete masks.
  query::QuerySpec dict_spec;
  dict_spec.where.Add(query::Predicate::In(
      "tag", {format::Value(std::string("t-0")),
              format::Value(std::string("t-1"))}));
  auto only_t0 = (*table)->Select(dict_spec);
  ASSERT_TRUE(only_t0.ok());
  for (const format::Row& row : only_t0->rows) {
    EXPECT_EQ(std::get<std::string>(row.fields[1]), "t-0")
        << "deleted t-1 rows must stay masked under code-space filtering";
  }
}

// ---------------------------------------------------------------------------
// Per-column cache keying: a narrow query caches only the columns it
// touches; invalidation still drops every column of a replaced file.

TEST(ColumnarScanTest, CacheIsKeyedPerColumn) {
  ColumnarFixture f(/*scan_threads=*/0, /*cache_bytes=*/64ULL << 20);
  auto table = f.lakehouse->CreateTable("wide", WideSchema(),
                                        PartitionSpec::None());
  ASSERT_TRUE(table.ok());
  ASSERT_TRUE((*table)->Insert(RandomRows(256, /*seed=*/5,
                                          /*distinct_tags=*/4)).ok());

  query::QuerySpec narrow;
  narrow.where.Add(query::Predicate::Ge("id", format::Value(int64_t{0})));
  narrow.projection = {"id"};
  ASSERT_TRUE((*table)->Select(narrow).ok());

  auto files = (*table)->LiveFiles();
  ASSERT_TRUE(files.ok());
  ASSERT_FALSE(files->empty());
  const format::Schema schema = WideSchema();
  int id_col = schema.FieldIndex("id");
  int score_col = schema.FieldIndex("score");
  for (const DataFileMeta& file : *files) {
    EXPECT_NE(f.cache->GetColumn(file.path, 0, id_col), nullptr)
        << "required column must be cached: " << file.path;
    EXPECT_EQ(f.cache->GetColumn(file.path, 0, score_col), nullptr)
        << "untouched column must NOT be cached: " << file.path;
  }

  // A repeat of the narrow query is a pure cache hit...
  SelectMetrics warm;
  ASSERT_TRUE((*table)->Select(narrow, {}, &warm).ok());
  EXPECT_EQ(warm.data_bytes_read, 0u);
  EXPECT_EQ(warm.bytes_decoded, 0u);
  EXPECT_EQ(warm.columns_decoded, 0u);
  // ...while widening to another column decodes only the new chunks.
  query::QuerySpec wider = narrow;
  wider.projection = {"id", "score"};
  SelectMetrics widen;
  ASSERT_TRUE((*table)->Select(wider, {}, &widen).ok());
  EXPECT_GT(widen.columns_decoded, 0u);
  for (const DataFileMeta& file : *files) {
    EXPECT_NE(f.cache->GetColumn(file.path, 0, score_col), nullptr);
  }

  // Rewrite (UPDATE) replaces the files: every per-column entry must go.
  ASSERT_TRUE((*table)
                  ->Update(query::Conjunction{}, "flag", format::Value(true))
                  .ok());
  for (const DataFileMeta& file : *files) {
    EXPECT_FALSE(f.cache->ContainsFile(file.path))
        << "replaced file keeps cached columns: " << file.path;
  }
}

// ---------------------------------------------------------------------------
// The parallel path stays byte-identical under late materialization.

TEST(ColumnarScanTest, ParallelNarrowScanMatchesSerial) {
  ColumnarFixture serial(/*scan_threads=*/0, /*cache_bytes=*/0);
  ColumnarFixture parallel(/*scan_threads=*/4, /*cache_bytes=*/64ULL << 20);
  for (ColumnarFixture* f : {&serial, &parallel}) {
    auto table = f->lakehouse->CreateTable("wide", WideSchema(),
                                           PartitionSpec::None());
    ASSERT_TRUE(table.ok());
    ASSERT_TRUE((*table)->Insert(RandomRows(800, /*seed=*/19,
                                            /*distinct_tags=*/5)).ok());
  }
  auto st = serial.lakehouse->GetTable("wide");
  auto pt = parallel.lakehouse->GetTable("wide");
  ASSERT_TRUE(st.ok());
  ASSERT_TRUE(pt.ok());

  query::QuerySpec spec;
  spec.where.Add(query::Predicate::In(
      "tag", {format::Value(std::string("t-0")),
              format::Value(std::string("t-4"))}));
  spec.projection = {"id", "tag"};
  spec.order_by = "id";
  auto expect = (*st)->Select(spec);
  ASSERT_TRUE(expect.ok());
  for (int round = 0; round < 2; ++round) {
    auto got = (*pt)->Select(spec);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got->rows, expect->rows) << "round " << round;
    EXPECT_EQ(got->rows_scanned, expect->rows_scanned);
    EXPECT_EQ(got->rows_matched, expect->rows_matched);
  }
}


// ---------------------------------------------------------------------------
// Typed filter kernels: query::AndMatches over a chunk is exactly
// Predicate::Matches(ValueAt(r)) on every selected row.

/// A plain (non-dictionary) chunk of `values`; `nulls[r]` marks NULL rows.
format::ColumnChunkData PlainChunk(format::DataType type,
                                   format::ColumnData values, size_t rows,
                                   const std::vector<uint8_t>& nulls) {
  format::ColumnChunkData chunk;
  chunk.type = type;
  chunk.num_rows = rows;
  chunk.values = std::move(values);
  if (std::find(nulls.begin(), nulls.end(), 1) != nulls.end()) {
    chunk.null_mask = nulls;
  }
  return chunk;
}

/// Every op, plus IN lists with NULL entries, against each literal.
std::vector<query::Predicate> KernelPredicates(
    const std::vector<format::Value>& literals) {
  std::vector<query::Predicate> out;
  for (const format::Value& lit : literals) {
    out.push_back(query::Predicate::Le("c", lit));
    out.push_back(query::Predicate::Ge("c", lit));
    out.push_back(query::Predicate::Lt("c", lit));
    out.push_back(query::Predicate::Gt("c", lit));
    out.push_back(query::Predicate::Eq("c", lit));
    out.push_back(query::Predicate::Ne("c", lit));
  }
  out.push_back(query::Predicate::IsNull("c"));
  out.push_back(query::Predicate::IsNotNull("c"));
  out.push_back(query::Predicate::In("c", literals));
  std::vector<format::Value> with_null = {format::Value(std::monostate{})};
  with_null.insert(with_null.end(), literals.begin(), literals.begin() + 2);
  out.push_back(query::Predicate::In("c", with_null));
  out.push_back(query::Predicate::In("c", {}));
  return out;
}

void ExpectKernelMatchesRowOracle(const format::ColumnChunkData& chunk,
                                  const std::vector<query::Predicate>& preds,
                                  uint64_t seed) {
  Random rng(seed);
  for (const query::Predicate& p : preds) {
    std::vector<char> selected(chunk.num_rows);
    for (char& c : selected) c = rng.OneIn(4) ? 0 : 1;
    std::vector<char> expect = selected;
    uint64_t expect_dropped = 0;
    for (size_t r = 0; r < expect.size(); ++r) {
      if (expect[r] && !p.Matches(chunk.ValueAt(r))) {
        expect[r] = 0;
        ++expect_dropped;
      }
    }
    uint64_t dropped = query::AndMatches(p, chunk, &selected);
    EXPECT_EQ(selected, expect) << p.ToString();
    EXPECT_EQ(dropped, expect_dropped) << p.ToString();
  }
}

TEST(FilterKernelTest, Int64KernelMatchesPredicate) {
  Random rng(5);
  const size_t n = 300;
  std::vector<int64_t> values(n);
  std::vector<uint8_t> nulls(n);
  for (size_t r = 0; r < n; ++r) {
    values[r] = rng.UniformRange(-20, 20);
    nulls[r] = rng.OneIn(6) ? 1 : 0;
  }
  values[0] = std::numeric_limits<int64_t>::min();
  values[1] = std::numeric_limits<int64_t>::max();
  auto preds = KernelPredicates(
      {format::Value(int64_t{-3}), format::Value(int64_t{0}),
       format::Value(int64_t{7}),
       format::Value(std::numeric_limits<int64_t>::max()),
       format::Value(std::monostate{})});  // NULL: another type, fallback
  ExpectKernelMatchesRowOracle(
      PlainChunk(format::DataType::kInt64, values, n, nulls), preds, 1);
  ExpectKernelMatchesRowOracle(
      PlainChunk(format::DataType::kInt64, values, n, {}), preds, 2);
}

TEST(FilterKernelTest, DoubleKernelOrdersNanAndSignedZeroLikeMatches) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  Random rng(6);
  const size_t n = 300;
  std::vector<double> values(n);
  std::vector<uint8_t> nulls(n);
  const double specials[] = {nan, -0.0, 0.0, 1.5, -1.5,
                             std::numeric_limits<double>::infinity()};
  for (size_t r = 0; r < n; ++r) {
    values[r] = rng.OneIn(3) ? specials[rng.Uniform(6)]
                             : static_cast<double>(rng.UniformRange(-8, 8)) / 4;
    nulls[r] = rng.OneIn(7) ? 1 : 0;
  }
  auto preds = KernelPredicates(
      {format::Value(-0.0), format::Value(0.0), format::Value(nan),
       format::Value(1.5), format::Value(std::monostate{})});
  ExpectKernelMatchesRowOracle(
      PlainChunk(format::DataType::kDouble, values, n, nulls), preds, 3);
  ExpectKernelMatchesRowOracle(
      PlainChunk(format::DataType::kDouble, values, n, {}), preds, 4);
}

TEST(FilterKernelTest, DictionaryAndFallbackChunksMatchPredicate) {
  Random rng(7);
  const size_t n = 200;
  // Dictionary chunk in code space, with NULL rows.
  format::ColumnChunkData dict;
  dict.type = format::DataType::kString;
  dict.num_rows = n;
  dict.dict_view = true;
  dict.dict = std::vector<std::string>{"b", "a", "NULL", "c"};
  dict.null_mask.assign(n, 0);
  for (size_t r = 0; r < n; ++r) {
    dict.codes.push_back(static_cast<uint32_t>(rng.Uniform(4)));
    dict.null_mask[r] = rng.OneIn(5) ? 1 : 0;
  }
  ExpectKernelMatchesRowOracle(
      dict,
      KernelPredicates({format::Value(std::string("a")),
                        format::Value(std::string("NULL")),
                        format::Value(std::string("zz")),
                        format::Value(std::monostate{})}),
      8);
  // Plain strings and bools have no typed kernel: the per-row fallback.
  std::vector<std::string> strings(n);
  std::vector<uint8_t> bools(n);
  std::vector<uint8_t> nulls(n);
  for (size_t r = 0; r < n; ++r) {
    strings[r] = "s" + std::to_string(rng.Uniform(9));
    bools[r] = rng.OneIn(2) ? 1 : 0;
    nulls[r] = rng.OneIn(5) ? 1 : 0;
  }
  ExpectKernelMatchesRowOracle(
      PlainChunk(format::DataType::kString, strings, n, nulls),
      KernelPredicates({format::Value(std::string("s3")),
                        format::Value(std::string("s")),
                        format::Value(std::monostate{})}),
      9);
  ExpectKernelMatchesRowOracle(
      PlainChunk(format::DataType::kBool, bools, n, nulls),
      KernelPredicates({format::Value(true), format::Value(false),
                        format::Value(std::monostate{})}),
      10);
}

TEST(FilterKernelDeathTest, MismatchedLiteralTakesTheRowFallback) {
  // An int64 literal on a double chunk is not coerced by the kernel: it
  // falls back to Predicate::Matches, which rejects mixed types exactly as
  // it does row by row.
  format::ColumnChunkData chunk = PlainChunk(
      format::DataType::kDouble, std::vector<double>{1.0, 2.0}, 2, {});
  std::vector<char> selected(2, 1);
  auto pred = query::Predicate::Eq("c", format::Value(int64_t{1}));
  EXPECT_DEATH(query::AndMatches(pred, chunk, &selected), "");
  EXPECT_DEATH(pred.Matches(chunk.ValueAt(0)), "");
}

// ---------------------------------------------------------------------------
// Batch aggregation: Table::Select folds scanned batches into the group
// state without building rows. Its result must equal, byte for byte, the
// row executor (query::Executor::Consume, WHERE evaluated per row) run over
// the same visible rows, one executor per data file merged in file order.

format::Schema AggSchema() {
  return format::Schema{{"g", format::DataType::kString},   // dictionary
                        {"h", format::DataType::kInt64},    // dictionary
                        {"run", format::DataType::kInt64},  // RLE
                        {"k", format::DataType::kInt64},    // plain
                        {"x", format::DataType::kDouble},   // plain
                        {"s", format::DataType::kString},   // plain
                        {"b", format::DataType::kBool}};
}

std::vector<format::Row> AggRows(size_t n, size_t start, Random* rng) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const char* tags[] = {"red", "green", "blue", "NULL"};
  std::vector<format::Row> rows;
  for (size_t i = 0; i < n; ++i) {
    const size_t id = start + i;
    auto maybe_null = [&](format::Value v, uint64_t one_in) {
      return rng->OneIn(one_in) ? format::Value(std::monostate{}) : v;
    };
    // Sevenths are inexact, so a SUM's bits depend on its addition order.
    double x = static_cast<double>(rng->UniformRange(-200, 200)) / 7;
    if (rng->OneIn(20)) x = nan;
    if (rng->OneIn(15)) x = -0.0;
    if (rng->OneIn(15)) x = 0.0;
    format::Row row;
    row.fields = {
        maybe_null(format::Value(std::string(tags[rng->Uniform(4)])), 8),
        maybe_null(format::Value(rng->UniformRange(1, 3)), 9),
        maybe_null(format::Value(static_cast<int64_t>(id / 16 % 5)), 40),
        format::Value(rng->UniformRange(-100000, 100000)),
        maybe_null(format::Value(x), 10),
        maybe_null(format::Value("s" + std::to_string(rng->Uniform(100000))),
                   7),
        format::Value(rng->OneIn(2))};
    rows.push_back(std::move(row));
  }
  return rows;
}

/// A literal of `column`'s type (or NULL), sometimes NaN or -0.0.
format::Value AggLiteral(int column, Random* rng) {
  switch (column) {
    case 0: {
      const char* tags[] = {"red", "green", "blue", "NULL", "absent"};
      return format::Value(std::string(tags[rng->Uniform(5)]));
    }
    case 1:
      return format::Value(rng->UniformRange(0, 4));
    case 2:
      return format::Value(rng->UniformRange(0, 5));
    case 3:
      return format::Value(rng->UniformRange(-100000, 100000));
    case 4: {
      if (rng->OneIn(8)) return format::Value(-0.0);
      if (rng->OneIn(12)) {
        return format::Value(std::numeric_limits<double>::quiet_NaN());
      }
      return format::Value(static_cast<double>(rng->UniformRange(-200, 200)) /
                           7);
    }
    case 5:
      return format::Value("s" + std::to_string(rng->Uniform(100000)));
    default:
      return format::Value(rng->OneIn(2));
  }
}

query::Predicate AggPredicate(Random* rng) {
  const format::Schema schema = AggSchema();
  const int column = static_cast<int>(rng->Uniform(schema.num_fields()));
  const std::string name = schema.field(column).name;
  switch (rng->Uniform(9)) {
    case 0:
      return query::Predicate::Le(name, AggLiteral(column, rng));
    case 1:
      return query::Predicate::Ge(name, AggLiteral(column, rng));
    case 2:
      return query::Predicate::Lt(name, AggLiteral(column, rng));
    case 3:
      return query::Predicate::Gt(name, AggLiteral(column, rng));
    case 4:
      return query::Predicate::Ne(name, AggLiteral(column, rng));
    case 5:
      return query::Predicate::In(
          name, {AggLiteral(column, rng), AggLiteral(column, rng),
                 format::Value(std::monostate{})});
    case 6:
      return rng->OneIn(2) ? query::Predicate::IsNull(name)
                           : query::Predicate::IsNotNull(name);
    default:
      return query::Predicate::Eq(name, AggLiteral(column, rng));
  }
}

query::QuerySpec AggSpec(Random* rng) {
  const format::Schema schema = AggSchema();
  query::QuerySpec spec;
  for (uint64_t i = rng->Uniform(3); i > 0; --i) {
    spec.where.Add(AggPredicate(rng));
  }
  std::vector<std::string> names;
  for (const format::Field& f : schema.fields()) names.push_back(f.name);
  const uint64_t groups = rng->Uniform(3);  // 0, 1 or 2 group columns
  while (spec.group_by.size() < groups) {
    std::string g = names[rng->Uniform(names.size())];
    if (std::find(spec.group_by.begin(), spec.group_by.end(), g) ==
        spec.group_by.end()) {
      spec.group_by.push_back(g);
    }
  }
  using Func = query::AggregateSpec::Func;
  spec.aggregates.push_back(query::AggregateSpec::CountStar("n"));
  for (uint64_t i = 1 + rng->Uniform(4); i > 0; --i) {
    const std::string col = names[rng->Uniform(names.size())];
    const Func func = static_cast<Func>(rng->Uniform(5));
    spec.aggregates.push_back({func, col, "a" + std::to_string(i)});
  }
  return spec;
}

/// A row's exact bytes: doubles compare by bits (NaN, -0.0).
Bytes EncodeRow(const format::Row& row) {
  Bytes bytes;
  for (const format::Value& v : row.fields) format::EncodeValue(&bytes, v);
  return bytes;
}

std::string RowString(const format::Row& row) {
  std::string s;
  for (const format::Value& v : row.fields) {
    s += (s.empty() ? "" : ", ") + format::ValueToString(v);
  }
  return s;
}

void ExpectSameResult(const query::QueryResult& got,
                      const query::QueryResult& expect,
                      const std::string& what) {
  EXPECT_EQ(got.column_names, expect.column_names) << what;
  ASSERT_EQ(got.rows.size(), expect.rows.size()) << what;
  for (size_t r = 0; r < got.rows.size(); ++r) {
    EXPECT_EQ(EncodeRow(got.rows[r]), EncodeRow(expect.rows[r]))
        << what << " row " << r << ": " << RowString(got.rows[r]) << " vs "
        << RowString(expect.rows[r]);
  }
}

/// Collects every fragment's visible rows, built by ScannedGroup::Rows.
class FragmentRows : public RowSink {
 public:
  void Open(size_t n) override { fragments.assign(n, {}); }
  Status Consume(size_t fragment, const ScannedGroup& group) override {
    for (format::Row& row : group.Rows()) {
      fragments[fragment].push_back(std::move(row));
    }
    return Status::OK();
  }
  std::vector<std::vector<format::Row>> fragments;
};

TEST(BatchAggregateTest, SelectMatchesRowExecutorByteForByte) {
  ColumnarFixture f(/*scan_threads=*/4, /*cache_bytes=*/8ULL << 20,
                    DeleteMode::kMergeOnRead);
  auto created =
      f.lakehouse->CreateTable("agg", AggSchema(), PartitionSpec::None());
  ASSERT_TRUE(created.ok());
  Table* table = *created;
  Random rng(2024);
  size_t next_id = 0;
  for (int batch = 0; batch < 4; ++batch) {
    // 300 rows: three files of up to 128 rows, 64-row groups.
    ASSERT_TRUE(table->Insert(AggRows(300, next_id, &rng)).ok());
    next_id += 300;
    query::Conjunction del;
    del.Add(AggPredicate(&rng));
    ASSERT_TRUE(table->Delete(del).ok());
  }

  auto info = table->Info();
  ASSERT_TRUE(info.ok());
  FragmentRows visible;
  SelectMetrics scan_metrics;
  ASSERT_TRUE(table
                  ->ScanInto(*info, query::Conjunction(), SelectOptions(),
                             ColumnSelection::All(), &visible, &scan_metrics)
                  .ok());
  ASSERT_GT(visible.fragments.size(), 4u);

  int nonempty = 0;
  for (int q = 0; q < 150; ++q) {
    const query::QuerySpec spec = AggSpec(&rng);
    query::Executor oracle(info->schema, spec);
    for (const std::vector<format::Row>& rows : visible.fragments) {
      query::Executor fragment(info->schema, spec);
      ASSERT_TRUE(fragment.Consume(rows).ok());
      ASSERT_TRUE(oracle.MergeFrom(std::move(fragment)).ok());
    }
    auto expect = oracle.Finalize();
    ASSERT_TRUE(expect.ok());
    SelectMetrics m;
    auto got = table->Select(spec, {}, &m);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ExpectSameResult(*got, *expect,
                     "query " + std::to_string(q) + " WHERE " +
                         spec.where.ToString());
    EXPECT_EQ(m.rows_materialized, 0u) << "query " << q;
    if (got->rows_matched > 0) ++nonempty;
  }
  EXPECT_GT(nonempty, 75);
}

}  // namespace
}  // namespace streamlake::table
