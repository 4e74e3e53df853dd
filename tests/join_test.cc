// The query path: parser extensions (joins, subqueries, !=, BETWEEN,
// positioned errors), planner lowering to query::Plan, and the hash-join
// pipeline — golden results against hand-computed joins, parallel ==
// serial byte-identity, and multi-table snapshot pinning.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "common/random.h"
#include "common/threadpool.h"
#include "oracle/oracle.h"
#include "query/plan.h"
#include "query/sql_parser.h"
#include "table/block_cache.h"
#include "table/lakehouse.h"
#include "table/plan_runner.h"

namespace streamlake::table {
namespace {

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

struct UserRow {
  int64_t user_id;
  std::string name;
  std::string tier;
};

struct LogRow {
  std::string url;
  int64_t start_time;
  std::string province;
  int64_t user_id;
  int64_t bytes;
};

// The fixture's deterministic data, mirrored in plain structs so tests
// can hand-compute expected join results with ordinary loops.
std::vector<LogRow> MakeLogs(int rows_per_province = 32) {
  std::vector<LogRow> logs;
  int province_index = 0;
  for (const char* province : {"beijing", "hubei"}) {
    for (int i = 0; i < rows_per_province; ++i) {
      logs.push_back({"http://site/" + std::to_string(i % 5),
                      province_index * 1000 + i, province, i % 8, 10 + i});
    }
    ++province_index;
  }
  return logs;
}

std::vector<UserRow> MakeUsers() {
  std::vector<UserRow> users;
  for (int64_t id = 0; id < 6; ++id) {
    users.push_back({id, "user" + std::to_string(id),
                     id % 2 ? "gold" : "silver"});
  }
  // A duplicate build key: user 0 appears twice (tests bucket
  // multiplicity in the inner join).
  users.push_back({0, "dup0", "gold"});
  return users;
}

// Small files (64 rows, 32-row groups) so the logs table spreads over
// several files and the probe scan fans out.
struct JoinFixture {
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

  explicit JoinFixture(int scan_threads = 4,
                       uint64_t cache_bytes = 64ULL << 20,
                       size_t max_rows_per_file = 64) {
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
    options.max_rows_per_file = max_rows_per_file;
    options.file_options.rows_per_group = 32;
    lakehouse = std::make_unique<LakehouseService>(
        meta.get(), objects.get(), &clock, &compute_link, options,
        scan_pool.get(), cache.get());
  }

  void CreateAndFill(int rows_per_province = 32) {
    auto logs_table = lakehouse->CreateTable(
        "logs", LogsSchema(), PartitionSpec::Identity("province"));
    ASSERT_TRUE(logs_table.ok()) << logs_table.status().ToString();
    std::vector<format::Row> rows;
    for (const LogRow& log : MakeLogs(rows_per_province)) {
      format::Row row;
      row.fields = {format::Value(log.url), format::Value(log.start_time),
                    format::Value(log.province), format::Value(log.user_id),
                    format::Value(log.bytes)};
      rows.push_back(std::move(row));
    }
    ASSERT_TRUE((*logs_table)->Insert(rows).ok());

    auto users_table =
        lakehouse->CreateTable("users", UsersSchema(), PartitionSpec::None());
    ASSERT_TRUE(users_table.ok()) << users_table.status().ToString();
    rows.clear();
    for (const UserRow& user : MakeUsers()) {
      format::Row row;
      row.fields = {format::Value(user.user_id), format::Value(user.name),
                    format::Value(user.tier)};
      rows.push_back(std::move(row));
    }
    ASSERT_TRUE((*users_table)->Insert(rows).ok());
  }

  Result<query::QueryResult> Sql(const std::string& sql,
                                 const SelectOptions& options = {},
                                 SelectMetrics* metrics = nullptr) {
    SL_ASSIGN_OR_RETURN(query::SqlStatement parsed, query::ParseSql(sql));
    return lakehouse->Query(parsed, options, metrics);
  }
};

// ---------------------------------------------------------------------
// Parser round-trips.

TEST(JoinParserTest, NotEqualsBothSpellings) {
  for (const char* sql : {"SELECT * FROM t WHERE a != 3",
                          "SELECT * FROM t WHERE a <> 3"}) {
    auto parsed = query::ParseSql(sql);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    const auto& preds = parsed->select.where.predicates();
    ASSERT_EQ(preds.size(), 1u);
    EXPECT_EQ(preds[0].column, "a");
    EXPECT_EQ(preds[0].op, query::CompareOp::kNe);
    EXPECT_EQ(std::get<int64_t>(preds[0].literal), 3);
  }
}

TEST(JoinParserTest, BetweenDesugarsToRangePair) {
  auto parsed =
      query::ParseSql("SELECT * FROM t WHERE a BETWEEN 2 AND 9 AND b = 1");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const auto& preds = parsed->select.where.predicates();
  ASSERT_EQ(preds.size(), 3u);
  EXPECT_EQ(preds[0].column, "a");
  EXPECT_EQ(preds[0].op, query::CompareOp::kGe);
  EXPECT_EQ(std::get<int64_t>(preds[0].literal), 2);
  EXPECT_EQ(preds[1].column, "a");
  EXPECT_EQ(preds[1].op, query::CompareOp::kLe);
  EXPECT_EQ(std::get<int64_t>(preds[1].literal), 9);
  EXPECT_EQ(preds[2].column, "b");
  EXPECT_EQ(preds[2].op, query::CompareOp::kEq);
}

TEST(JoinParserTest, ErrorsReportTokenPosition) {
  auto bad = query::ParseSql("SELECT * FORM t");
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.status().ToString().find("'FORM'"), std::string::npos)
      << bad.status().ToString();
  EXPECT_NE(bad.status().ToString().find("at position"), std::string::npos)
      << bad.status().ToString();

  auto truncated = query::ParseSql("SELECT * FROM");
  ASSERT_FALSE(truncated.ok());
  EXPECT_NE(truncated.status().ToString().find("position"), std::string::npos)
      << truncated.status().ToString();

  // The bare-! lex error keeps its historical shape, now with a position.
  auto bang = query::ParseSql("SELECT * FROM t WHERE a !! 3");
  ASSERT_FALSE(bang.ok());
  EXPECT_TRUE(bang.status().IsInvalidArgument());
}

TEST(JoinParserTest, InnerJoinClause) {
  auto parsed = query::ParseSql(
      "SELECT l.url, u.name FROM logs l "
      "INNER JOIN users u ON l.user_id = u.user_id "
      "WHERE l.bytes > 10");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->table, "logs");
  EXPECT_EQ(parsed->table_alias, "l");
  ASSERT_EQ(parsed->joins.size(), 1u);
  const query::JoinSpec& join = parsed->joins[0];
  EXPECT_EQ(join.kind, query::JoinSpec::Kind::kInner);
  EXPECT_EQ(join.table, "users");
  EXPECT_EQ(join.alias, "u");
  EXPECT_EQ(join.left_key, "l.user_id");
  EXPECT_EQ(join.right_key, "u.user_id");
  EXPECT_EQ(parsed->select.projection,
            (std::vector<std::string>{"l.url", "u.name"}));
}

TEST(JoinParserTest, InSubqueryBecomesSemiJoin) {
  auto parsed = query::ParseSql(
      "SELECT * FROM logs WHERE user_id IN "
      "(SELECT user_id FROM users WHERE tier = 'gold')");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed->joins.size(), 1u);
  const query::JoinSpec& join = parsed->joins[0];
  EXPECT_EQ(join.kind, query::JoinSpec::Kind::kSemi);
  EXPECT_EQ(join.table, "users");
  EXPECT_EQ(join.left_key, "user_id");
  ASSERT_EQ(join.where.predicates().size(), 1u);
  EXPECT_EQ(join.where.predicates()[0].column, "tier");
  // The subquery filter must not leak into the outer WHERE.
  EXPECT_TRUE(parsed->select.where.empty());
}

TEST(JoinParserTest, ExistsBecomesSemiJoinWithCorrelation) {
  auto parsed = query::ParseSql(
      "SELECT * FROM logs l WHERE EXISTS "
      "(SELECT * FROM users u WHERE u.user_id = l.user_id "
      "AND u.tier = 'silver')");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed->joins.size(), 1u);
  const query::JoinSpec& join = parsed->joins[0];
  EXPECT_EQ(join.kind, query::JoinSpec::Kind::kSemi);
  EXPECT_EQ(join.table, "users");
  EXPECT_EQ(join.alias, "u");
  ASSERT_EQ(join.where.predicates().size(), 1u);
  EXPECT_EQ(join.where.predicates()[0].column, "u.tier");
}

TEST(JoinParserTest, RejectsUnsupportedSubqueryShapes) {
  auto correlated = query::ParseSql(
      "SELECT * FROM logs l WHERE user_id IN "
      "(SELECT user_id FROM users WHERE user_id = l.user_id)");
  ASSERT_FALSE(correlated.ok());
  EXPECT_NE(correlated.status().ToString().find("correlated IN"),
            std::string::npos)
      << correlated.status().ToString();

  auto uncorrelated_exists = query::ParseSql(
      "SELECT * FROM logs WHERE EXISTS "
      "(SELECT * FROM users u WHERE u.tier = 'gold')");
  ASSERT_FALSE(uncorrelated_exists.ok());
  EXPECT_NE(
      uncorrelated_exists.status().ToString().find("correlation predicate"),
      std::string::npos)
      << uncorrelated_exists.status().ToString();

  auto in_delete = query::ParseSql(
      "DELETE FROM logs WHERE user_id IN (SELECT user_id FROM users)");
  ASSERT_FALSE(in_delete.ok());
  EXPECT_NE(in_delete.status().ToString().find(
                "only supported in SELECT statements"),
            std::string::npos)
      << in_delete.status().ToString();
}

// ---------------------------------------------------------------------
// The key rule.

TEST(KeyLessTest, LexicographicWithShortPrefixFirst) {
  oracle::KeyLess less;
  std::vector<format::Value> a{format::Value(int64_t{1}),
                               format::Value(std::string("b"))};
  std::vector<format::Value> b{format::Value(int64_t{1}),
                               format::Value(std::string("c"))};
  std::vector<format::Value> prefix{format::Value(int64_t{1})};
  EXPECT_TRUE(less(a, b));
  EXPECT_FALSE(less(b, a));
  EXPECT_FALSE(less(a, a));
  EXPECT_TRUE(less(prefix, a));
  EXPECT_FALSE(less(a, prefix));

  EXPECT_TRUE(less(format::Value(int64_t{1}), format::Value(int64_t{2})));
  EXPECT_FALSE(less(format::Value(int64_t{2}), format::Value(int64_t{1})));
}

TEST(KeyLessTest, NanZerosAndNullFormOneTotalOrder) {
  oracle::KeyLess less;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const format::Value null{std::monostate{}};
  // NULL first, then the numbers, then NaN; each step strictly less.
  const std::vector<format::Value> ascending{
      null, format::Value(-std::numeric_limits<double>::infinity()),
      format::Value(-1.5), format::Value(0.0),
      format::Value(std::numeric_limits<double>::infinity()),
      format::Value(nan)};
  for (size_t i = 0; i < ascending.size(); ++i) {
    EXPECT_FALSE(less(ascending[i], ascending[i])) << i;
    for (size_t j = i + 1; j < ascending.size(); ++j) {
      EXPECT_TRUE(less(ascending[i], ascending[j])) << i << " < " << j;
      EXPECT_FALSE(less(ascending[j], ascending[i])) << j << " < " << i;
    }
  }
  // -0.0 == 0.0, every NaN is one key, NULL == NULL.
  EXPECT_EQ(format::CompareKeys(format::Value(-0.0), format::Value(0.0)), 0);
  EXPECT_EQ(format::CompareKeys(format::Value(nan), format::Value(-nan)), 0);
  EXPECT_EQ(format::CompareKeys(null, null), 0);
  EXPECT_LT(format::CompareKeys(null, format::Value(std::string())), 0);
  // Composite keys order by the rule column by column.
  const std::vector<format::Value> nan_key{format::Value(nan), null};
  const std::vector<format::Value> one_key{format::Value(1.0),
                                           format::Value(int64_t{9})};
  EXPECT_TRUE(less(one_key, nan_key));
  EXPECT_FALSE(less(nan_key, one_key));
  EXPECT_FALSE(less((std::vector<format::Value>{format::Value(-0.0), null}),
                    (std::vector<format::Value>{format::Value(0.0), null})));
  // The distinct keys are what a LakeFile's stats count as its NDV.
  std::set<format::Value, oracle::KeyLess> distinct;
  for (double v : {nan, 10.0, -nan, 10.0, -0.0, 0.0}) {
    distinct.insert(format::Value(v));
  }
  EXPECT_EQ(distinct.size(), 3u);
}

// ---------------------------------------------------------------------
// End-to-end joins.

TEST(JoinTest, InnerJoinGoldenRows) {
  JoinFixture f;
  f.CreateAndFill();

  auto result = f.Sql(
      "SELECT l.start_time, l.user_id, u.name FROM logs l "
      "JOIN users u ON l.user_id = u.user_id "
      "ORDER BY l.start_time");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->column_names,
            (std::vector<std::string>{"l.start_time", "l.user_id", "u.name"}));

  // Hand-compute: probe rows in start_time order (unique, so the sort is
  // total); per probe row, matching users in insertion order (the build
  // bucket preserves it).
  std::vector<LogRow> logs = MakeLogs();
  std::vector<UserRow> users = MakeUsers();
  std::vector<std::vector<format::Value>> expected;
  for (const LogRow& log : logs) {  // already sorted by start_time
    for (const UserRow& user : users) {
      if (user.user_id != log.user_id) continue;
      expected.push_back({format::Value(log.start_time),
                          format::Value(log.user_id),
                          format::Value(user.name)});
    }
  }
  ASSERT_EQ(result->rows.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(result->rows[i].fields, expected[i]) << "row " << i;
  }
  // Scan-level counters span both tables of the query.
  EXPECT_EQ(result->rows_scanned, logs.size() + users.size());
  EXPECT_EQ(result->rows_matched, logs.size() + users.size());
}

TEST(JoinTest, RegistryCountsTheRowsTheResultReports) {
  JoinFixture f;
  f.CreateAndFill();
  Counter* scanned = MetricsRegistry::Global().GetCounter("query.rows_scanned");
  Counter* matched = MetricsRegistry::Global().GetCounter("query.rows_matched");
  for (const std::string sql :
       {"SELECT l.url, u.name FROM logs l JOIN users u "
        "ON l.user_id = u.user_id WHERE u.tier = 'gold'",
        "SELECT url FROM logs WHERE province = 'beijing'"}) {
    const uint64_t scanned_before = scanned->Value();
    const uint64_t matched_before = matched->Value();
    auto result = f.Sql(sql);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(scanned->Value() - scanned_before, result->rows_scanned) << sql;
    EXPECT_EQ(matched->Value() - matched_before, result->rows_matched) << sql;
  }
}

TEST(JoinTest, EmptyBuildSideYieldsNoRows) {
  JoinFixture f;
  f.CreateAndFill();
  auto result = f.Sql(
      "SELECT l.url, u.name FROM logs l "
      "JOIN users u ON l.user_id = u.user_id "
      "WHERE u.tier = 'platinum'");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->rows.empty());
}

TEST(JoinTest, JoinKeyTypeMismatchIsRejected) {
  JoinFixture f;
  f.CreateAndFill();
  auto result =
      f.Sql("SELECT * FROM logs l JOIN users u ON l.url = u.user_id");
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().ToString().find("join key type mismatch"),
            std::string::npos)
      << result.status().ToString();
}

TEST(JoinTest, SemiJoinsViaInAndExists) {
  JoinFixture f;
  f.CreateAndFill();

  // Gold users: odd ids {1, 3, 5} plus the duplicate of id 0. The semi
  // join emits each probe row at most once despite the duplicate.
  auto in_result = f.Sql(
      "SELECT COUNT(*) AS c FROM logs WHERE user_id IN "
      "(SELECT user_id FROM users WHERE tier = 'gold')");
  ASSERT_TRUE(in_result.ok()) << in_result.status().ToString();
  int64_t expected_gold = 0;
  for (const LogRow& log : MakeLogs()) {
    if (log.user_id == 0 || log.user_id == 1 || log.user_id == 3 ||
        log.user_id == 5) {
      ++expected_gold;
    }
  }
  ASSERT_EQ(in_result->rows.size(), 1u);
  EXPECT_EQ(std::get<int64_t>(in_result->rows[0].fields[0]), expected_gold);

  auto exists_result = f.Sql(
      "SELECT COUNT(*) AS c FROM logs l WHERE EXISTS "
      "(SELECT * FROM users u WHERE u.user_id = l.user_id "
      "AND u.tier = 'silver')");
  ASSERT_TRUE(exists_result.ok()) << exists_result.status().ToString();
  int64_t expected_silver = 0;
  for (const LogRow& log : MakeLogs()) {
    if (log.user_id == 0 || log.user_id == 2 || log.user_id == 4) {
      ++expected_silver;
    }
  }
  ASSERT_EQ(exists_result->rows.size(), 1u);
  EXPECT_EQ(std::get<int64_t>(exists_result->rows[0].fields[0]),
            expected_silver);
}

// SQL three-valued logic: NULL = NULL is unknown, so a NULL key joins
// nothing, in an inner join, IN and a correlated EXISTS alike. GROUP BY
// still puts the NULLs in one group.
TEST(JoinTest, NullKeysNeverMatch) {
  JoinFixture f;
  const format::Schema schema{{"k", format::DataType::kInt64},
                              {"tag", format::DataType::kString}};
  auto make = [](std::vector<std::pair<format::Value, std::string>> cells) {
    std::vector<format::Row> rows;
    for (auto& [k, tag] : cells) {
      rows.push_back(format::Row{{k, format::Value(tag)}});
    }
    return rows;
  };
  const format::Value null{std::monostate{}};
  for (const auto& [name, rows] :
       {std::pair{"a", make({{format::Value(int64_t{1}), "a1"},
                             {null, "anull"},
                             {format::Value(int64_t{2}), "a2"},
                             {null, "anull2"}})},
        std::pair{"b", make({{null, "bnull"},
                             {format::Value(int64_t{1}), "b1"},
                             {format::Value(int64_t{3}), "b3"}})}}) {
    auto table = f.lakehouse->CreateTable(name, schema, PartitionSpec::None());
    ASSERT_TRUE(table.ok()) << table.status().ToString();
    ASSERT_TRUE((*table)->Insert(rows).ok());
  }
  auto tags = [&](const std::string& sql) {
    auto result = f.Sql(sql);
    EXPECT_TRUE(result.ok()) << sql << ": " << result.status().ToString();
    std::vector<std::vector<std::string>> out;
    if (!result.ok()) return out;
    for (const format::Row& row : result->rows) {
      std::vector<std::string> cells;
      for (const format::Value& v : row.fields) {
        cells.push_back(format::ValueToString(v));
      }
      out.push_back(std::move(cells));
    }
    std::sort(out.begin(), out.end());
    return out;
  };
  using Rows = std::vector<std::vector<std::string>>;
  EXPECT_EQ(tags("SELECT a.tag, b.tag FROM a JOIN b ON a.k = b.k"),
            (Rows{{"a1", "b1"}}));
  EXPECT_EQ(tags("SELECT a.tag FROM a WHERE k IN (SELECT k FROM b)"),
            (Rows{{"a1"}}));
  EXPECT_EQ(tags("SELECT a.tag FROM a WHERE EXISTS "
                 "(SELECT * FROM b WHERE b.k = a.k)"),
            (Rows{{"a1"}}));
  EXPECT_EQ(tags("SELECT k, COUNT(*) AS c FROM a GROUP BY k"),
            (Rows{{"1", "1"}, {"2", "1"}, {"NULL", "2"}}));
}

TEST(JoinTest, AggregateOverJoin) {
  JoinFixture f;
  f.CreateAndFill();
  auto result = f.Sql(
      "SELECT u.tier, COUNT(*) AS c, SUM(l.bytes) AS s FROM logs l "
      "JOIN users u ON l.user_id = u.user_id "
      "GROUP BY u.tier ORDER BY u.tier");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->column_names,
            (std::vector<std::string>{"u.tier", "c", "s"}));

  std::map<std::string, std::pair<int64_t, double>> expected;
  for (const LogRow& log : MakeLogs()) {
    for (const UserRow& user : MakeUsers()) {
      if (user.user_id != log.user_id) continue;
      expected[user.tier].first += 1;
      expected[user.tier].second += static_cast<double>(log.bytes);
    }
  }
  ASSERT_EQ(result->rows.size(), expected.size());
  size_t i = 0;
  for (const auto& [tier, agg] : expected) {  // map iterates sorted = ORDER BY
    EXPECT_EQ(std::get<std::string>(result->rows[i].fields[0]), tier);
    EXPECT_EQ(std::get<int64_t>(result->rows[i].fields[1]), agg.first);
    EXPECT_DOUBLE_EQ(std::get<double>(result->rows[i].fields[2]), agg.second);
    ++i;
  }
}

TEST(JoinTest, ParallelJoinMatchesSerialByteIdentical) {
  JoinFixture serial(/*scan_threads=*/0, /*cache_bytes=*/0);
  JoinFixture parallel(/*scan_threads=*/4, /*cache_bytes=*/64ULL << 20);
  serial.CreateAndFill(/*rows_per_province=*/256);
  parallel.CreateAndFill(/*rows_per_province=*/256);

  const char* queries[] = {
      "SELECT l.start_time, l.url, u.name, u.tier FROM logs l "
      "JOIN users u ON l.user_id = u.user_id "
      "WHERE l.bytes BETWEEN 20 AND 200 ORDER BY l.start_time",
      "SELECT u.tier, COUNT(*) AS c, SUM(l.bytes) AS s, AVG(l.bytes) AS a "
      "FROM logs l JOIN users u ON l.user_id = u.user_id "
      "WHERE l.province != 'hubei' GROUP BY u.tier ORDER BY u.tier",
      "SELECT COUNT(*) AS c FROM logs WHERE user_id IN "
      "(SELECT user_id FROM users WHERE tier <> 'gold')",
      "SELECT l.province, COUNT(*) AS c FROM logs l "
      "JOIN users u ON l.user_id = u.user_id "
      "GROUP BY l.province ORDER BY c DESC LIMIT 1",
  };
  for (const char* sql : queries) {
    auto expect = serial.Sql(sql);
    ASSERT_TRUE(expect.ok()) << sql << ": " << expect.status().ToString();
    // Twice: once cold (populating the cache), once warm (served from it).
    for (int round = 0; round < 2; ++round) {
      auto got = parallel.Sql(sql);
      ASSERT_TRUE(got.ok()) << sql << ": " << got.status().ToString();
      EXPECT_EQ(got->column_names, expect->column_names) << sql;
      EXPECT_EQ(got->rows, expect->rows) << sql << " round " << round;
      EXPECT_EQ(got->rows_scanned, expect->rows_scanned) << sql;
      EXPECT_EQ(got->rows_matched, expect->rows_matched) << sql;
    }
  }
}

TEST(JoinTest, MultiTableSnapshotPinning) {
  JoinFixture f;
  f.CreateAndFill();
  auto t0 = static_cast<int64_t>(f.clock.NowSeconds());
  f.clock.Advance(10 * sim::kSecond);

  // Later commits to BOTH tables: a new log row for user 1 and a brand-new
  // user 7 that would match the previously-unmatched user_id 7 rows.
  auto logs_table = f.lakehouse->GetTable("logs");
  ASSERT_TRUE(logs_table.ok());
  format::Row log_row;
  log_row.fields = {format::Value(std::string("http://late")),
                    format::Value(int64_t{9999}),
                    format::Value(std::string("beijing")),
                    format::Value(int64_t{1}), format::Value(int64_t{1})};
  ASSERT_TRUE((*logs_table)->Insert({log_row}).ok());
  auto users_table = f.lakehouse->GetTable("users");
  ASSERT_TRUE(users_table.ok());
  format::Row user_row;
  user_row.fields = {format::Value(int64_t{7}),
                     format::Value(std::string("user7")),
                     format::Value(std::string("gold"))};
  ASSERT_TRUE((*users_table)->Insert({user_row}).ok());

  const char* sql =
      "SELECT COUNT(*) AS c FROM logs l JOIN users u "
      "ON l.user_id = u.user_id";
  auto head = f.Sql(sql);
  ASSERT_TRUE(head.ok()) << head.status().ToString();

  SelectOptions travel;
  travel.as_of_timestamp = t0;
  auto pinned = f.Sql(sql, travel);
  ASSERT_TRUE(pinned.ok()) << pinned.status().ToString();

  int64_t expected_t0 = 0;
  for (const LogRow& log : MakeLogs()) {
    for (const UserRow& user : MakeUsers()) {
      if (user.user_id == log.user_id) ++expected_t0;
    }
  }
  EXPECT_EQ(std::get<int64_t>(pinned->rows[0].fields[0]), expected_t0);
  // Head sees both late commits: +2 matches for the user-1 row (dup key
  // absent for id 1 — exactly 1 match) and +4 rows now matching user 7.
  EXPECT_GT(std::get<int64_t>(head->rows[0].fields[0]), expected_t0);

  // Snapshot ids are per-table; combining one with a join must fail.
  SelectOptions by_id;
  by_id.snapshot_id = 1;
  auto rejected = f.Sql(sql, by_id);
  ASSERT_FALSE(rejected.ok());
  EXPECT_TRUE(rejected.status().IsInvalidArgument())
      << rejected.status().ToString();
}

TEST(JoinTest, QualifiedSingleTableSelect) {
  JoinFixture f;
  f.CreateAndFill();
  auto result = f.Sql(
      "SELECT l.province, COUNT(*) AS c FROM logs l "
      "WHERE l.province = 'beijing' GROUP BY l.province");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // Single-table plans collapse into Table::Select: unqualified output.
  EXPECT_EQ(result->column_names, (std::vector<std::string>{"province", "c"}));
  ASSERT_EQ(result->rows.size(), 1u);
  EXPECT_EQ(std::get<int64_t>(result->rows[0].fields[1]), 32);
}

TEST(JoinTest, UnqualifiedProbeKeyMustBeUnambiguous) {
  JoinFixture f;
  f.CreateAndFill();
  // `user_id` names a column of both logs and u, so as the probe key of
  // the second join it is as ambiguous as in WHERE or the projection.
  auto ambiguous = f.Sql(
      "SELECT l.url FROM logs l JOIN users u ON l.user_id = u.user_id "
      "JOIN users u2 ON user_id = u2.user_id");
  ASSERT_FALSE(ambiguous.ok());
  EXPECT_TRUE(ambiguous.status().IsInvalidArgument());
  EXPECT_NE(ambiguous.status().ToString().find("ambiguous column 'user_id'"),
            std::string::npos)
      << ambiguous.status().ToString();

  // Qualified, the self-join runs: each log row matches every (u, u2) pair
  // of users rows carrying its id.
  auto qualified = f.Sql(
      "SELECT COUNT(*) AS c FROM logs l JOIN users u ON l.user_id = u.user_id "
      "JOIN users u2 ON u.user_id = u2.user_id");
  ASSERT_TRUE(qualified.ok()) << qualified.status().ToString();
  // An unqualified key naming a column of exactly one earlier table binds.
  auto two_tables = f.Sql(
      "SELECT COUNT(*) AS c FROM logs l JOIN users u ON user_id = u.user_id");
  ASSERT_TRUE(two_tables.ok()) << two_tables.status().ToString();
  int64_t pairs = 0;
  int64_t matches = 0;
  for (const LogRow& log : MakeLogs()) {
    int64_t same_id = 0;
    for (const UserRow& user : MakeUsers()) {
      if (user.user_id == log.user_id) ++same_id;
    }
    pairs += same_id * same_id;
    matches += same_id;
  }
  EXPECT_EQ(std::get<int64_t>(qualified->rows[0].fields[0]), pairs);
  EXPECT_EQ(std::get<int64_t>(two_tables->rows[0].fields[0]), matches);
}

TEST(JoinTest, PlanToStringGolden) {
  const format::Schema logs = LogsSchema();
  const format::Schema users = UsersSchema();
  auto parsed = query::ParseSql(
      "SELECT u.tier, COUNT(*) AS c FROM logs l "
      "JOIN users u ON l.user_id = u.user_id "
      "WHERE l.bytes > 20 AND l.user_id IN "
      "(SELECT user_id FROM users WHERE tier = 'gold') "
      "GROUP BY u.tier ORDER BY c DESC LIMIT 1");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const std::vector<query::PlanTableRef> refs = {
      {"logs", "l", &logs}, {"users", "u", &users}, {"users", "users", &users}};
  auto plan = query::PlanSelect(*parsed, refs);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_EQ(query::PlanToString(*plan, refs),
            "Scan(logs AS l, filter: bytes > 20)\n"
            "HashJoin(inner, l.user_id = u.user_id)\n"
            "  Scan(users AS u)\n"
            "HashJoin(semi, l.user_id = users.user_id)\n"
            "  Scan(users, filter: tier = gold)\n"
            "Aggregate(u.tier; c)\n"
            "SortLimit(order by c desc, limit 1)\n");
}

TEST(JoinTest, DirectPlanWithScanFilterAndToString) {
  JoinFixture f;
  f.CreateAndFill();
  auto logs_table = f.lakehouse->GetTable("logs");
  ASSERT_TRUE(logs_table.ok());
  auto info = (*logs_table)->Info();
  ASSERT_TRUE(info.ok());

  // Hand-built plan: Scan(logs, filter: province = beijing) -> Project(url).
  query::Plan plan;
  plan.scans.push_back({"logs", "logs", {}});
  plan.scans[0].filter.Add(query::Predicate::Eq(
      "province", format::Value(std::string("beijing"))));
  plan.row_schema = info->schema;
  plan.output.projection = {"url"};

  std::string rendered =
      query::PlanToString(plan, {{"logs", "logs", &info->schema}});
  EXPECT_EQ(rendered,
            "Scan(logs, filter: province = beijing)\nProject(url)\n");

  const PinnedTable pinned{*logs_table, *info};
  SelectMetrics metrics;
  auto result = RunPlan({&pinned, 1}, plan, SelectOptions{}, &metrics);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->column_names, (std::vector<std::string>{"url"}));
  EXPECT_EQ(result->rows.size(), 32u);

  // The same query through SQL agrees.
  auto via_sql =
      f.Sql("SELECT url FROM logs WHERE province = 'beijing'");
  ASSERT_TRUE(via_sql.ok());
  EXPECT_EQ(result->rows, via_sql->rows);
}

// ---------------------------------------------------------------------
// Keys with NaN, -0.0, 0.0, NULL and duplicates, in any order and any
// file split: GROUP BY, ORDER BY, MIN/MAX, an equi-join and an IN
// subquery give one result, the reference sorted by the key rule.

using KeyRow = std::vector<format::Value>;

/// `keys(k, j, v)`: every kind of double key three times; `j` has NULLs,
/// `v` numbers the rows.
std::vector<format::Row> KeyRows() {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const format::Value null{std::monostate{}};
  const KeyRow ks{format::Value(nan),  format::Value(1.5),
                  format::Value(-0.0), null,
                  format::Value(0.0),  format::Value(-2.0),
                  format::Value(-nan), format::Value(1.5),
                  null,                format::Value(3.0),
                  format::Value(0.0),  format::Value(nan)};
  std::vector<format::Row> rows;
  for (int64_t i = 0; i < 36; ++i) {
    const format::Value j = i % 4 == 3 ? null : format::Value(i % 3);
    rows.push_back(format::Row{{ks[i % ks.size()], j, format::Value(i)}});
  }
  return rows;
}

/// `builds(k, tag)`: two zeros, a NaN, a NULL and a key no probe row has.
std::vector<format::Row> BuildKeyRows() {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const KeyRow ks{format::Value(nan), format::Value(-0.0),
                  format::Value(std::monostate{}), format::Value(1.5),
                  format::Value(7.0), format::Value(0.0)};
  std::vector<format::Row> rows;
  for (size_t i = 0; i < ks.size(); ++i) {
    rows.push_back(
        format::Row{{ks[i], format::Value("b" + std::to_string(i))}});
  }
  return rows;
}

/// One key under the key rule: -0.0 and 0.0 are the same key (either may
/// stand for its group), and so are any two NaNs.
bool SameKey(const format::Value& a, const format::Value& b) {
  return a.index() == b.index() && format::CompareKeys(a, b) == 0;
}

void ExpectSameRows(const std::vector<format::Row>& got,
                    const std::vector<KeyRow>& want, const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (size_t r = 0; r < want.size(); ++r) {
    ASSERT_EQ(got[r].fields.size(), want[r].size()) << what << " row " << r;
    for (size_t c = 0; c < want[r].size(); ++c) {
      EXPECT_TRUE(SameKey(got[r].fields[c], want[r][c]))
          << what << " row " << r << " col " << c << ": "
          << format::ValueToString(got[r].fields[c]) << " vs "
          << format::ValueToString(want[r][c]);
    }
  }
}

/// `rows` stable-sorted by columns `cols` under the key rule.
std::vector<KeyRow> SortedBy(const std::vector<format::Row>& rows,
                             const std::vector<int>& cols,
                             bool descending = false) {
  std::vector<KeyRow> sorted;
  for (const format::Row& row : rows) sorted.push_back(row.fields);
  std::stable_sort(sorted.begin(), sorted.end(),
                   [&](const KeyRow& a, const KeyRow& b) {
                     for (int c : cols) {
                       const int cmp = format::CompareKeys(a[c], b[c]);
                       if (cmp != 0) return descending ? cmp > 0 : cmp < 0;
                     }
                     return false;
                   });
  return sorted;
}

/// The runs of `sorted` equal on `cols`, in order.
std::vector<std::vector<KeyRow>> Runs(const std::vector<KeyRow>& sorted,
                                      const std::vector<int>& cols) {
  std::vector<std::vector<KeyRow>> runs;
  for (const KeyRow& row : sorted) {
    const bool same =
        !runs.empty() && std::all_of(cols.begin(), cols.end(), [&](int c) {
          return format::CompareKeys(runs.back().front()[c], row[c]) == 0;
        });
    if (!same) runs.emplace_back();
    runs.back().push_back(row);
  }
  return runs;
}

/// MIN and MAX of column `col` over `rows`: NULLs skipped, NULL if none.
std::pair<format::Value, format::Value> MinMax(
    const std::vector<KeyRow>& rows, int col) {
  std::vector<format::Row> present;
  for (const KeyRow& row : rows) {
    if (!format::IsNull(row[col])) present.push_back(format::Row{row});
  }
  if (present.empty()) {
    return {format::Value(std::monostate{}), format::Value(std::monostate{})};
  }
  const std::vector<KeyRow> sorted = SortedBy(present, {col});
  return {sorted.front()[col], sorted.back()[col]};
}

TEST(KeyOrderTest, ResultsIgnoreInputOrderAndFileSplit) {
  const std::vector<format::Row> probe = KeyRows();
  const std::vector<format::Row> build = BuildKeyRows();
  constexpr int kK = 0, kJ = 1, kV = 2;

  // The reference, from the rows as listed.
  std::map<std::string, std::vector<KeyRow>> want;
  for (const auto& run : Runs(SortedBy(probe, {kK}), {kK})) {
    double sum = 0;
    for (const KeyRow& row : run) sum += std::get<int64_t>(row[kV]);
    want["group_k"].push_back(
        {run.front()[kK], format::Value(static_cast<int64_t>(run.size())),
         format::Value(sum)});
  }
  for (const auto& run : Runs(SortedBy(probe, {kK, kJ}), {kK, kJ})) {
    want["group_kj"].push_back(
        {run.front()[kK], run.front()[kJ],
         format::Value(static_cast<int64_t>(run.size()))});
  }
  for (const auto& run : Runs(SortedBy(probe, {kJ}), {kJ})) {
    auto [lo, hi] = MinMax(run, kK);
    want["minmax_by_j"].push_back({run.front()[kJ], lo, hi});
  }
  std::vector<KeyRow> all;
  for (const format::Row& row : probe) all.push_back(row.fields);
  auto [lo, hi] = MinMax(all, kK);
  want["minmax"].push_back({lo, hi});
  for (bool descending : {false, true}) {
    for (const KeyRow& row : SortedBy(probe, {kK}, descending)) {
      want[descending ? "order_desc" : "order_asc"].push_back({row[kK]});
    }
  }
  for (const format::Row& p : probe) {
    bool matched = false;
    for (const format::Row& b : build) {
      if (format::IsNull(p.fields[kK]) || format::IsNull(b.fields[0]) ||
          format::CompareKeys(p.fields[kK], b.fields[0]) != 0) {
        continue;
      }
      want["join"].push_back({p.fields[kV], b.fields[1]});
      matched = true;
    }
    if (matched) want["in"].push_back({p.fields[kV]});
  }
  std::sort(want["join"].begin(), want["join"].end(), oracle::KeyLess());
  std::sort(want["in"].begin(), want["in"].end(), oracle::KeyLess());
  ASSERT_EQ(want["group_k"].size(), 6u);  // NULL -2 0 1.5 3 NaN
  ASSERT_EQ(std::get<int64_t>(want["group_k"].back()[1]), 9);  // the NaNs
  ASSERT_EQ(want["join"].size(), 33u);  // 9 zeros x 2, 9 NaNs, 6 x 1.5
  ASSERT_EQ(want["in"].size(), 24u);

  const std::map<std::string, std::string> queries{
      {"group_k", "SELECT k, COUNT(*) AS c, SUM(v) AS s FROM keys GROUP BY k"},
      {"group_kj", "SELECT k, j, COUNT(*) AS c FROM keys GROUP BY k, j"},
      {"minmax_by_j",
       "SELECT j, MIN(k) AS lo, MAX(k) AS hi FROM keys GROUP BY j"},
      {"minmax", "SELECT MIN(k) AS lo, MAX(k) AS hi FROM keys"},
      {"order_asc", "SELECT k FROM keys ORDER BY k"},
      {"order_desc", "SELECT k FROM keys ORDER BY k DESC"},
      {"join", "SELECT p.v, b.tag FROM keys p JOIN builds b ON p.k = b.k"},
      {"in", "SELECT v FROM keys WHERE k IN (SELECT k FROM builds)"}};
  Random rng(24);
  for (int shuffle = 0; shuffle < 6; ++shuffle) {
    std::vector<format::Row> p = probe;
    std::vector<format::Row> b = build;
    if (shuffle > 0) {  // shuffle 0 keeps the listed order
      for (std::vector<format::Row>* rows : {&p, &b}) {
        for (size_t i = rows->size(); i > 1; --i) {
          std::swap((*rows)[i - 1], (*rows)[rng.Uniform(i)]);
        }
      }
    }
    for (size_t max_rows_per_file : {3, 7, 64}) {
      JoinFixture f(/*scan_threads=*/4, /*cache_bytes=*/64ULL << 20,
                    max_rows_per_file);
      for (const auto& [name, schema, rows] :
           {std::tuple{"keys",
                       format::Schema{{"k", format::DataType::kDouble},
                                      {"j", format::DataType::kInt64},
                                      {"v", format::DataType::kInt64}},
                       &p},
            std::tuple{"builds",
                       format::Schema{{"k", format::DataType::kDouble},
                                      {"tag", format::DataType::kString}},
                       &b}}) {
        auto table =
            f.lakehouse->CreateTable(name, schema, PartitionSpec::None());
        ASSERT_TRUE(table.ok()) << table.status().ToString();
        ASSERT_TRUE((*table)->Insert(*rows).ok());
      }
      for (const auto& [what, sql] : queries) {
        auto result = f.Sql(sql);
        ASSERT_TRUE(result.ok()) << sql << ": " << result.status().ToString();
        if (what == "join" || what == "in") {  // no ORDER BY: sort here
          std::sort(result->rows.begin(), result->rows.end(),
                    [](const format::Row& x, const format::Row& y) {
                      return oracle::KeyLess()(x.fields, y.fields);
                    });
        }
        ExpectSameRows(result->rows, want[what],
                       what + ", shuffle " + std::to_string(shuffle) +
                           ", files of " + std::to_string(max_rows_per_file));
      }
    }
  }
}

// ---------------------------------------------------------------------
// The hash join against a nested-loop reference: int64, double and string
// keys with NULL, NaN and ±0.0, duplicate build keys spread over files,
// and every join kind. Rows come in the reference's order: probe rows in
// scan order, each followed by its build rows in scan order.

/// The same cell, bit for bit (a double compares by its bits).
bool SameCell(const format::Value& a, const format::Value& b) {
  if (a.index() != b.index()) return false;
  if (const double* x = std::get_if<double>(&a)) {
    return std::bit_cast<uint64_t>(*x) ==
           std::bit_cast<uint64_t>(std::get<double>(b));
  }
  return a == b;
}

void ExpectIdenticalRows(const std::vector<format::Row>& got,
                         const std::vector<KeyRow>& want,
                         const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (size_t r = 0; r < want.size(); ++r) {
    ASSERT_EQ(got[r].fields.size(), want[r].size()) << what << " row " << r;
    for (size_t c = 0; c < want[r].size(); ++c) {
      EXPECT_TRUE(SameCell(got[r].fields[c], want[r][c]))
          << what << " row " << r << " col " << c << ": "
          << format::ValueToString(got[r].fields[c]) << " vs "
          << format::ValueToString(want[r][c]);
    }
  }
}

/// Join keys from small domains, so they repeat: column 0 int64, 1 double
/// (NaN of either sign, ±0.0, inf), 2 string (with "" and an embedded
/// zero); one cell in eight is NULL.
KeyRow RandomKeys(Random& rng) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const double doubles[] = {nan, -nan, -0.0, 0.0, 1.5, -2.0, inf};
  const std::string strings[] = {"", "a", std::string("a\0", 2), "ab", "b"};
  auto maybe_null = [&](format::Value v) {
    return rng.OneIn(8) ? format::Value(std::monostate{}) : v;
  };
  return {maybe_null(format::Value(rng.UniformRange(-3, 3))),
          maybe_null(format::Value(doubles[rng.Uniform(7)])),
          maybe_null(format::Value(strings[rng.Uniform(5)]))};
}

/// Rows of `name` in its scan order, as SELECT * returns them.
std::vector<KeyRow> ScanOrder(JoinFixture& f, const std::string& name) {
  auto result = f.Sql("SELECT * FROM " + name);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  std::vector<KeyRow> rows;
  if (result.ok()) {
    for (const format::Row& row : result->rows) rows.push_back(row.fields);
  }
  return rows;
}

bool KeysMatch(const format::Value& a, const format::Value& b) {
  return !format::IsNull(a) && !format::IsNull(b) &&
         format::CompareKeys(a, b) == 0;
}

TEST(JoinTest, HashJoinEqualsNestedLoopReference) {
  const format::Schema facts_schema{{"ik", format::DataType::kInt64},
                                    {"dk", format::DataType::kDouble},
                                    {"sk", format::DataType::kString},
                                    {"v", format::DataType::kInt64},
                                    {"x", format::DataType::kDouble}};
  const format::Schema dims_schema{{"ik", format::DataType::kInt64},
                                   {"dk", format::DataType::kDouble},
                                   {"sk", format::DataType::kString},
                                   {"tag", format::DataType::kString}};
  const format::Schema more_schema{{"sk", format::DataType::kString},
                                   {"w", format::DataType::kInt64}};
  const char* const kKeys[] = {"ik", "dk", "sk"};
  for (uint64_t seed : {1, 2}) {
    Random rng(seed);
    // Each table is inserted in two commits, so duplicate build keys land
    // in different files.
    std::vector<std::vector<format::Row>> facts(2), dims(2), more(2);
    for (int i = 0; i < 120; ++i) {
      KeyRow row = RandomKeys(rng);
      row.push_back(format::Value(int64_t{i}));
      row.push_back(format::Value(static_cast<double>(rng.Uniform(100))));
      facts[i % 2].push_back(format::Row{row});
    }
    for (int i = 0; i < 30; ++i) {
      KeyRow row = RandomKeys(rng);
      row.push_back(format::Value("d" + std::to_string(i)));
      dims[i % 2].push_back(format::Row{row});
    }
    for (int i = 0; i < 12; ++i) {
      more[i % 2].push_back(format::Row{
          {RandomKeys(rng)[2], format::Value(int64_t{100 + i})}});
    }
    for (int scan_threads : {0, 4}) {
      for (size_t max_rows_per_file : {5, 64}) {
        JoinFixture f(scan_threads, /*cache_bytes=*/64ULL << 20,
                      max_rows_per_file);
        for (const auto& [name, schema, commits] :
             {std::tuple{"facts", &facts_schema, &facts},
              std::tuple{"dims", &dims_schema, &dims},
              std::tuple{"more", &more_schema, &more}}) {
          auto table =
              f.lakehouse->CreateTable(name, *schema, PartitionSpec::None());
          ASSERT_TRUE(table.ok()) << table.status().ToString();
          for (const std::vector<format::Row>& rows : *commits) {
            ASSERT_TRUE((*table)->Insert(rows).ok());
          }
        }
        const std::vector<KeyRow> p = ScanOrder(f, "facts");
        const std::vector<KeyRow> b = ScanOrder(f, "dims");
        const std::vector<KeyRow> m = ScanOrder(f, "more");
        ASSERT_EQ(p.size(), 120u);
        ASSERT_EQ(b.size(), 30u);

        std::map<std::string, std::vector<KeyRow>> want;
        std::map<std::string, std::string> queries;
        for (int k = 0; k < 3; ++k) {
          const std::string key = kKeys[k];
          queries["inner " + key] = "SELECT f.v, d.tag FROM facts f JOIN dims "
                                    "d ON f." + key + " = d." + key;
          queries["in " + key] = "SELECT v FROM facts WHERE " + key +
                                 " IN (SELECT " + key + " FROM dims)";
          queries["exists " + key] =
              "SELECT f.v FROM facts f WHERE EXISTS (SELECT * FROM dims d "
              "WHERE d." + key + " = f." + key + ")";
          queries["star " + key] = "SELECT * FROM facts f JOIN dims d ON f." +
                                   key + " = d." + key;
          want["inner " + key];
          want["in " + key];
          want["exists " + key];
          want["star " + key];
          for (const KeyRow& pr : p) {
            bool matched = false;
            for (const KeyRow& br : b) {
              if (!KeysMatch(pr[k], br[k])) continue;
              matched = true;
              want["inner " + key].push_back({pr[3], br[3]});
              KeyRow star = pr;
              star.insert(star.end(), br.begin(), br.end());
              want["star " + key].push_back(star);
            }
            if (matched) {
              want["in " + key].push_back({pr[3]});
              want["exists " + key].push_back({pr[3]});
            }
          }
        }
        // A two-join chain whose second key comes from the first build
        // side, projected out of order.
        queries["chain"] =
            "SELECT m.w, f.v, d.tag FROM facts f JOIN dims d ON f.dk = d.dk "
            "JOIN more m ON d.sk = m.sk";
        want["chain"];
        for (const KeyRow& pr : p) {
          for (const KeyRow& br : b) {
            if (!KeysMatch(pr[1], br[1])) continue;
            for (const KeyRow& mr : m) {
              if (KeysMatch(br[2], mr[0])) {
                want["chain"].push_back({mr[1], pr[3], br[3]});
              }
            }
          }
        }
        // An aggregate over the join: integer-valued doubles, so every SUM
        // is exact in any order.
        queries["aggregate"] =
            "SELECT d.tag, COUNT(*) AS c, SUM(f.x) AS s, MIN(f.dk) AS lo, "
            "MAX(f.sk) AS hi FROM facts f JOIN dims d ON f.ik = d.ik "
            "GROUP BY d.tag";
        struct Agg {
          int64_t count = 0;
          double sum = 0;
          std::vector<KeyRow> rows;
        };
        std::map<format::Value, Agg, oracle::KeyLess> groups;
        for (const KeyRow& pr : p) {
          for (const KeyRow& br : b) {
            if (!KeysMatch(pr[0], br[0])) continue;
            Agg& agg = groups[br[3]];
            ++agg.count;
            agg.sum += std::get<double>(pr[4]);
            agg.rows.push_back(pr);
          }
        }
        want["aggregate"];
        for (const auto& [tag, agg] : groups) {
          auto [lo, unused_hi] = MinMax(agg.rows, 1);
          auto [unused_lo, hi] = MinMax(agg.rows, 2);
          want["aggregate"].push_back({tag, format::Value(agg.count),
                                       format::Value(agg.sum), lo, hi});
        }
        ASSERT_FALSE(want["inner dk"].empty());
        ASSERT_FALSE(want["chain"].empty());

        for (const auto& [what, sql] : queries) {
          auto result = f.Sql(sql);
          ASSERT_TRUE(result.ok()) << sql << ": "
                                   << result.status().ToString();
          const std::string where =
              what + ", seed " + std::to_string(seed) + ", " +
              std::to_string(scan_threads) + " threads, files of " +
              std::to_string(max_rows_per_file);
          if (what == "aggregate") {  // a group's MIN may be -0.0 or 0.0
            ExpectSameRows(result->rows, want[what], where);
          } else {
            ExpectIdenticalRows(result->rows, want[what], where);
          }
        }
      }
    }
  }
}

// GROUP BY over a join resolves a single dictionary group column once per
// code only when it reads side 0, the probe row, whose chunks are one
// scanned group's. A build-side column reads chunks of any build file, and
// here two build files hold different dictionaries, so one code means
// different values. Every query must equal the row-at-a-time reference
// over the nested-loop join rows, byte for byte: the first row's key cells
// (NaN payloads, -0.0) and the first of equal MIN/MAX values included.
TEST(JoinTest, GroupByOverJoinEqualsOracleOnEitherSide) {
  const format::Schema facts_schema{{"ftag", format::DataType::kString},
                                    {"fk", format::DataType::kInt64},
                                    {"fx", format::DataType::kDouble},
                                    {"fv", format::DataType::kInt64}};
  const format::Schema dims_schema{{"dk", format::DataType::kInt64},
                                   {"dtag", format::DataType::kString},
                                   {"dx", format::DataType::kDouble}};
  std::vector<format::Field> joined_fields = facts_schema.fields();
  for (const format::Field& f : dims_schema.fields()) {
    joined_fields.push_back(f);
  }
  const format::Schema joined(joined_fields);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double doubles[] = {nan, -nan, -0.0, 0.0, 1.5, -2.0};
  Random rng(27);
  auto maybe_null = [&](format::Value v, uint64_t one_in) {
    return rng.OneIn(one_in) ? format::Value(std::monostate{}) : v;
  };
  std::vector<format::Row> facts;
  for (int64_t i = 0; i < 128; ++i) {
    const char* tags[] = {"p", "q", "r"};
    facts.push_back(format::Row{
        {maybe_null(format::Value(std::string(tags[rng.Uniform(3)])), 10),
         maybe_null(format::Value(rng.UniformRange(0, 5)), 12),
         format::Value(doubles[rng.Uniform(6)]), format::Value(i)}});
  }
  // Two build commits, so two files, over different tag sets: their
  // dictionaries disagree on what each code means.
  std::vector<std::vector<format::Row>> dims(2);
  const std::vector<std::vector<std::string>> dim_tags = {{"b", "a"},
                                                          {"c", "b"}};
  for (size_t commit = 0; commit < 2; ++commit) {
    for (int i = 0; i < 40; ++i) {
      const std::vector<std::string>& tags = dim_tags[commit];
      dims[commit].push_back(format::Row{
          {format::Value(rng.UniformRange(0, 5)),
           maybe_null(format::Value(tags[rng.Uniform(tags.size())]), 10),
           format::Value(doubles[rng.Uniform(6)])}});
    }
  }

  const std::string from =
      " FROM facts f JOIN dims d ON f.fk = d.dk GROUP BY ";
  const std::string aggregates =
      ", COUNT(*) AS c, SUM(f.fv) AS s, MIN(f.fx) AS lo, MAX(d.dx) AS hi";
  for (int scan_threads : {0, 4}) {
    JoinFixture f(scan_threads, /*cache_bytes=*/64ULL << 20,
                  /*max_rows_per_file=*/64);
    auto facts_table =
        f.lakehouse->CreateTable("facts", facts_schema, PartitionSpec::None());
    ASSERT_TRUE(facts_table.ok()) << facts_table.status().ToString();
    ASSERT_TRUE((*facts_table)->Insert(facts).ok());
    auto dims_table =
        f.lakehouse->CreateTable("dims", dims_schema, PartitionSpec::None());
    ASSERT_TRUE(dims_table.ok()) << dims_table.status().ToString();
    for (const std::vector<format::Row>& rows : dims) {
      ASSERT_TRUE((*dims_table)->Insert(rows).ok());
    }
    // The join rows in the executor's order: probe rows in scan order,
    // each followed by its build rows in scan order.
    std::vector<format::Row> join_rows;
    for (const KeyRow& pr : ScanOrder(f, "facts")) {
      for (const KeyRow& br : ScanOrder(f, "dims")) {
        if (!KeysMatch(pr[1], br[0])) continue;
        KeyRow row = pr;
        row.insert(row.end(), br.begin(), br.end());
        join_rows.push_back(format::Row{row});
      }
    }
    ASSERT_GT(join_rows.size(), 200u);
    for (const auto& [qualified, column] :
         {std::pair{"f.ftag", "ftag"}, std::pair{"d.dtag", "dtag"},
          std::pair{"f.fx", "fx"}, std::pair{"d.dx", "dx"}}) {
      const std::string sql = std::string("SELECT ") + qualified + aggregates +
                              from + qualified;
      query::QuerySpec spec;
      spec.group_by = {column};
      spec.aggregates = {query::AggregateSpec::CountStar("c"),
                         query::AggregateSpec::Sum("fv", "s"),
                         query::AggregateSpec::Min("fx", "lo"),
                         query::AggregateSpec::Max("dx", "hi")};
      auto want = oracle::Execute(joined, join_rows, spec);
      ASSERT_TRUE(want.ok()) << want.status().ToString();
      auto got = f.Sql(sql);
      ASSERT_TRUE(got.ok()) << sql << ": " << got.status().ToString();
      std::vector<KeyRow> want_rows;
      for (const format::Row& row : want->rows) want_rows.push_back(row.fields);
      ExpectIdenticalRows(got->rows, want_rows,
                          sql + ", " + std::to_string(scan_threads) +
                              " threads");
    }
  }
}

TEST(JoinTest, GroupByManyGroupsEqualsKeyLessReference) {
  const format::Schema schema{{"k", format::DataType::kInt64},
                              {"s", format::DataType::kString},
                              {"x", format::DataType::kDouble}};
  Random rng(25);
  std::vector<format::Row> rows;
  for (int i = 0; i < 40000; ++i) {
    const int64_t k = static_cast<int64_t>(rng.Uniform(15000)) - 7000;
    rows.push_back(format::Row{
        {i % 97 == 0 ? format::Value(std::monostate{}) : format::Value(k),
         format::Value("g" + std::to_string(k % 7)),
         format::Value(static_cast<double>(rng.Uniform(1 << 20)) / 1024.0 +
                       1e-7 * static_cast<double>(i))}});
  }
  const std::map<std::string, std::vector<int>> queries{
      {"SELECT k, COUNT(*) AS c, SUM(x) AS t FROM grp GROUP BY k", {0}},
      {"SELECT s, k, COUNT(*) AS c, SUM(x) AS t FROM grp GROUP BY s, k",
       {1, 0}}};
  std::map<std::string, std::vector<format::Row>> first;
  for (int scan_threads : {1, 8}) {
    JoinFixture f(scan_threads, /*cache_bytes=*/64ULL << 20,
                  /*max_rows_per_file=*/4096);
    auto table = f.lakehouse->CreateTable("grp", schema, PartitionSpec::None());
    ASSERT_TRUE(table.ok()) << table.status().ToString();
    ASSERT_TRUE((*table)->Insert(rows).ok());
    for (const auto& [sql, cols] : queries) {
      std::map<KeyRow, std::pair<int64_t, double>, oracle::KeyLess> want;
      for (const format::Row& row : rows) {
        KeyRow key;
        for (int c : cols) key.push_back(row.fields[c]);
        auto& [count, sum] = want[key];
        ++count;
        sum += std::get<double>(row.fields[2]);
      }
      ASSERT_GE(want.size(), 10000u);
      auto result = f.Sql(sql);
      ASSERT_TRUE(result.ok()) << sql << ": " << result.status().ToString();
      ASSERT_EQ(result->rows.size(), want.size()) << sql;
      size_t r = 0;
      for (const auto& [key, agg] : want) {
        const format::Row& got = result->rows[r++];
        for (size_t c = 0; c < key.size(); ++c) {
          ASSERT_TRUE(SameCell(got.fields[c], key[c])) << sql << " row " << r;
        }
        ASSERT_EQ(std::get<int64_t>(got.fields[key.size()]), agg.first);
        ASSERT_NEAR(std::get<double>(got.fields[key.size() + 1]), agg.second,
                    1e-9 * agg.second + 1e-9);
      }
      // The SUMs fold in file order, so they are bit-identical across
      // thread counts.
      if (first.count(sql) == 0) {
        first[sql] = result->rows;
      } else {
        ExpectIdenticalRows(result->rows,
                            [&] {
                              std::vector<KeyRow> rows_of_1;
                              for (const format::Row& row : first[sql]) {
                                rows_of_1.push_back(row.fields);
                              }
                              return rows_of_1;
                            }(),
                            sql + ", 8 threads vs 1");
      }
    }
  }
}

}  // namespace
}  // namespace streamlake::table
