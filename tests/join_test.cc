// The query path: parser extensions (joins, subqueries, !=, BETWEEN,
// positioned errors), planner lowering to query::Plan, and the hash-join
// pipeline — golden results against hand-computed joins, parallel ==
// serial byte-identity, and multi-table snapshot pinning.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/threadpool.h"
#include "query/plan.h"
#include "query/row_less.h"
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
                       uint64_t cache_bytes = 64ULL << 20) {
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
    options.max_rows_per_file = 64;
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
// Shared row comparator.

TEST(RowLessTest, LexicographicWithShortPrefixFirst) {
  query::RowLess less;
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

  query::ValueLess vless;
  EXPECT_TRUE(vless(format::Value(int64_t{1}), format::Value(int64_t{2})));
  EXPECT_FALSE(vless(format::Value(int64_t{2}), format::Value(int64_t{1})));
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

}  // namespace
}  // namespace streamlake::table
