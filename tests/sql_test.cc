#include <gtest/gtest.h>

#include "core/streamlake.h"
#include "query/sql_parser.h"

namespace streamlake {
namespace {

using query::ParseSql;
using query::SqlStatement;

// ---------------- parser ----------------

TEST(SqlParserTest, Fig13DauQuery) {
  auto parsed = ParseSql(
      "Select COUNT(*) as DAU "
      "From TB_DPI_LOG_HOURS "
      "Where url = 'http://streamlake_fin_app.com' "
      "and start_time >= 1656806400 --July 3rd, 2022\n"
      "and start_time < 1656892800 --July 4th, 2022\n"
      "Group By province");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->kind, SqlStatement::Kind::kSelect);
  EXPECT_EQ(parsed->table, "TB_DPI_LOG_HOURS");
  ASSERT_EQ(parsed->select.aggregates.size(), 1u);
  EXPECT_EQ(parsed->select.aggregates[0].alias, "DAU");
  EXPECT_EQ(parsed->select.group_by,
            (std::vector<std::string>{"province"}));
  ASSERT_EQ(parsed->select.where.predicates().size(), 3u);
  EXPECT_EQ(parsed->select.where.predicates()[0].column, "url");
  EXPECT_EQ(parsed->select.where.predicates()[1].op, query::CompareOp::kGe);
  EXPECT_EQ(std::get<int64_t>(parsed->select.where.predicates()[2].literal),
            1656892800);
}

TEST(SqlParserTest, SelectVariants) {
  auto star = ParseSql("SELECT * FROM t");
  ASSERT_TRUE(star.ok());
  EXPECT_TRUE(star->select.projection.empty());
  EXPECT_TRUE(star->select.aggregates.empty());

  auto projection = ParseSql("SELECT a, b FROM t WHERE c IN ('x', 'y')");
  ASSERT_TRUE(projection.ok());
  EXPECT_EQ(projection->select.projection,
            (std::vector<std::string>{"a", "b"}));
  ASSERT_EQ(projection->select.where.predicates().size(), 1u);
  EXPECT_EQ(projection->select.where.predicates()[0].in_list.size(), 2u);

  auto aggs = ParseSql(
      "SELECT province, COUNT(*), SUM(bytes), AVG(bytes) AS mean "
      "FROM t GROUP BY province ORDER BY mean DESC LIMIT 10");
  ASSERT_TRUE(aggs.ok()) << aggs.status().ToString();
  EXPECT_EQ(aggs->select.aggregates.size(), 3u);
  EXPECT_EQ(aggs->select.aggregates[2].alias, "mean");
  EXPECT_EQ(aggs->select.order_by, "mean");
  EXPECT_TRUE(aggs->select.order_descending);
  EXPECT_EQ(aggs->select.limit, 10u);

  auto doubles = ParseSql("SELECT * FROM t WHERE d <= 0.05 AND b = TRUE");
  ASSERT_TRUE(doubles.ok());
  EXPECT_DOUBLE_EQ(
      std::get<double>(doubles->select.where.predicates()[0].literal), 0.05);
  EXPECT_EQ(std::get<bool>(doubles->select.where.predicates()[1].literal),
            true);
}

TEST(SqlParserTest, InsertDeleteUpdate) {
  auto insert = ParseSql(
      "INSERT INTO orders VALUES (1, 'created', 100), (2, 'shipped', 200)");
  ASSERT_TRUE(insert.ok());
  EXPECT_EQ(insert->kind, SqlStatement::Kind::kInsert);
  ASSERT_EQ(insert->insert_rows.size(), 2u);
  EXPECT_EQ(std::get<std::string>(insert->insert_rows[1][1]), "shipped");

  auto del = ParseSql("DELETE FROM orders WHERE order_id = 1");
  ASSERT_TRUE(del.ok());
  EXPECT_EQ(del->kind, SqlStatement::Kind::kDelete);
  EXPECT_EQ(del->where.predicates().size(), 1u);

  auto update = ParseSql(
      "UPDATE orders SET status = 'done' WHERE order_id >= 5");
  ASSERT_TRUE(update.ok());
  EXPECT_EQ(update->kind, SqlStatement::Kind::kUpdate);
  EXPECT_EQ(update->set_column, "status");
  EXPECT_EQ(std::get<std::string>(update->set_value), "done");
}

TEST(SqlParserTest, ErrorsAreDiagnosed) {
  EXPECT_TRUE(ParseSql("").status().IsInvalidArgument());
  EXPECT_TRUE(ParseSql("DROP TABLE t").status().IsInvalidArgument());
  EXPECT_TRUE(ParseSql("SELECT FROM t").status().IsInvalidArgument());
  EXPECT_TRUE(ParseSql("SELECT * FROM t WHERE a !! 3").status()
                  .IsInvalidArgument());
  EXPECT_TRUE(ParseSql("SELECT * FROM t WHERE a = 'unterminated").status()
                  .IsInvalidArgument());
  EXPECT_TRUE(ParseSql("SELECT SUM(*) FROM t").status().IsInvalidArgument());
  EXPECT_TRUE(ParseSql("SELECT a, COUNT(*) FROM t GROUP BY b").status()
                  .IsInvalidArgument());
  EXPECT_TRUE(ParseSql("SELECT * FROM t LIMIT ten").status()
                  .IsInvalidArgument());
  EXPECT_TRUE(ParseSql("SELECT * FROM t garbage").status()
                  .IsInvalidArgument());

  // A numeric literal must parse as a whole and fit its type: never an
  // abort, a truncation or a wrap-around. The error names the token and
  // its position.
  const std::string huge_double = "1" + std::string(400, '0') + ".0";
  const std::vector<std::pair<std::string, std::string>> bad_numbers = {
      {"SELECT * FROM t WHERE v = 99999999999999999999",
       "99999999999999999999"},
      {"SELECT * FROM t LIMIT 99999999999999999999", "99999999999999999999"},
      {"SELECT * FROM t WHERE d = " + huge_double, huge_double},
      {"SELECT * FROM t WHERE d = 1.2.3", "1.2.3"},
      {"SELECT * FROM t LIMIT -1", "-1"},
  };
  for (const auto& [sql, token] : bad_numbers) {
    auto parsed = ParseSql(sql);
    ASSERT_FALSE(parsed.ok()) << sql;
    EXPECT_TRUE(parsed.status().IsInvalidArgument()) << sql;
    EXPECT_NE(parsed.status().ToString().find(
                  "'" + token + "' at position " +
                  std::to_string(sql.find(token))),
              std::string::npos)
        << sql << ": " << parsed.status().ToString();
  }
}

// ---------------- engine ----------------

struct SqlFixture {
  core::StreamLake lake;

  SqlFixture() {
    auto created = lake.lakehouse().CreateTable(
        "TB_DPI_LOG_HOURS",
        format::Schema{{"url", format::DataType::kString},
                       {"start_time", format::DataType::kInt64},
                       {"province", format::DataType::kString},
                       {"bytes", format::DataType::kInt64}},
        table::PartitionSpec::Identity("province"));
    EXPECT_TRUE(created.ok());
  }
};

TEST(SqlEngineTest, EndToEndDau) {
  SqlFixture f;
  // Load via SQL.
  for (int i = 0; i < 40; ++i) {
    std::string url = i % 2 ? "'http://streamlake_fin_app.com'" : "'http://x'";
    std::string province = i % 4 ? "'beijing'" : "'hubei'";
    auto inserted = f.lake.Query(
        "INSERT INTO TB_DPI_LOG_HOURS VALUES (" + url + ", " +
        std::to_string(1656806400 + i) + ", " + province + ", 100)");
    ASSERT_TRUE(inserted.ok()) << inserted.status().ToString();
  }
  // The Fig. 13 query verbatim.
  auto dau = f.lake.Query(
      "SELECT COUNT(*) AS DAU FROM TB_DPI_LOG_HOURS "
      "WHERE url = 'http://streamlake_fin_app.com' "
      "AND start_time >= 1656806400 AND start_time < 1656892800 "
      "GROUP BY province");
  ASSERT_TRUE(dau.ok()) << dau.status().ToString();
  EXPECT_EQ(dau->column_names,
            (std::vector<std::string>{"province", "DAU"}));
  int64_t total = 0;
  for (const format::Row& row : dau->rows) {
    total += std::get<int64_t>(row.fields[1]);
  }
  EXPECT_EQ(total, 20);

  // UPDATE + DELETE through SQL.
  auto updated = f.lake.Query(
      "UPDATE TB_DPI_LOG_HOURS SET bytes = 999 WHERE start_time < 1656806410");
  ASSERT_TRUE(updated.ok());
  EXPECT_EQ(std::get<int64_t>(updated->rows[0].fields[0]), 10);

  auto deleted = f.lake.Query(
      "DELETE FROM TB_DPI_LOG_HOURS WHERE province = 'hubei'");
  ASSERT_TRUE(deleted.ok());
  EXPECT_EQ(std::get<int64_t>(deleted->rows[0].fields[0]), 10);

  auto remaining = f.lake.Query(
      "SELECT COUNT(*) FROM TB_DPI_LOG_HOURS");
  ASSERT_TRUE(remaining.ok());
  EXPECT_EQ(std::get<int64_t>(remaining->rows[0].fields[0]), 30);
}

TEST(SqlEngineTest, SelectWithOrderLimitAndMetrics) {
  SqlFixture f;
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(f.lake
                    .Query("INSERT INTO TB_DPI_LOG_HOURS VALUES ('u', " +
                           std::to_string(i) + ", 'p" +
                           std::to_string(i % 3) + "', " +
                           std::to_string(i * 10) + ")")
                    .ok());
  }
  table::SelectMetrics metrics;
  auto top = f.lake.Query(
      "SELECT province, SUM(bytes) AS total FROM TB_DPI_LOG_HOURS "
      "GROUP BY province ORDER BY total DESC LIMIT 2",
      &metrics);
  ASSERT_TRUE(top.ok()) << top.status().ToString();
  ASSERT_EQ(top->rows.size(), 2u);
  EXPECT_GE(std::get<double>(top->rows[0].fields[1]),
            std::get<double>(top->rows[1].fields[1]));
  EXPECT_GT(metrics.files_scanned, 0u);

  EXPECT_TRUE(f.lake.Query("SELECT * FROM missing_table").status()
                  .IsNotFound());
}

TEST(SqlEngineTest, BadLiteralsAndUnknownColumnsReturnStatus) {
  SqlFixture f;
  ASSERT_TRUE(f.lake
                  .Query("INSERT INTO TB_DPI_LOG_HOURS VALUES "
                         "('u', 1, 'beijing', 100), ('u', 2, 'hubei', 200)")
                  .ok());
  ASSERT_TRUE(f.lake.lakehouse()
                  .CreateTable("m",
                               format::Schema{{"k", format::DataType::kInt64},
                                              {"d", format::DataType::kDouble}},
                               table::PartitionSpec())
                  .ok());
  ASSERT_TRUE(f.lake.Query("INSERT INTO m VALUES (100, 0.5), (200, 2)").ok());

  // An int literal on a DOUBLE column is a double, in WHERE and in SET.
  auto doubles = f.lake.Query("SELECT * FROM m WHERE d > 1");
  ASSERT_TRUE(doubles.ok()) << doubles.status().ToString();
  ASSERT_EQ(doubles->rows.size(), 1u);
  EXPECT_EQ(std::get<double>(doubles->rows[0].fields[1]), 2.0);
  auto set = f.lake.Query("UPDATE m SET d = 7 WHERE k = 100");
  ASSERT_TRUE(set.ok()) << set.status().ToString();
  EXPECT_EQ(std::get<int64_t>(set->rows[0].fields[0]), 1);
  auto seven = f.lake.Query("SELECT COUNT(*) AS c FROM m WHERE d = 7.0");
  ASSERT_TRUE(seven.ok()) << seven.status().ToString();
  EXPECT_EQ(std::get<int64_t>(seven->rows[0].fields[0]), 1);

  // Every other mismatch, and every unknown WHERE column, is
  // InvalidArgument naming the column — never an abort, never 0 rows.
  const std::vector<std::pair<std::string, std::string>> rejected = {
      {"SELECT * FROM TB_DPI_LOG_HOURS WHERE bytes = 'x'", "bytes"},
      {"SELECT * FROM TB_DPI_LOG_HOURS WHERE bytes IN (1, 'a')", "bytes"},
      {"SELECT * FROM TB_DPI_LOG_HOURS WHERE bytes BETWEEN 1 AND 2.5",
       "bytes"},
      {"SELECT * FROM TB_DPI_LOG_HOURS t JOIN m ON t.bytes = m.k "
       "WHERE t.bytes = 'x'",
       "bytes"},
      {"DELETE FROM TB_DPI_LOG_HOURS WHERE bytes = 'x'", "bytes"},
      {"UPDATE m SET d = 'x' WHERE k = 100", "d"},
      {"UPDATE m SET k = 1.5", "k"},
      {"SELECT * FROM TB_DPI_LOG_HOURS WHERE nosuch = 1", "nosuch"},
      {"DELETE FROM TB_DPI_LOG_HOURS WHERE nosuch = 1", "nosuch"},
      {"UPDATE TB_DPI_LOG_HOURS SET bytes = 1 WHERE nosuch = 1", "nosuch"},
  };
  for (const auto& [sql, column] : rejected) {
    auto result = f.lake.Query(sql);
    ASSERT_FALSE(result.ok()) << sql;
    EXPECT_TRUE(result.status().IsInvalidArgument())
        << sql << ": " << result.status().ToString();
    EXPECT_NE(result.status().ToString().find("'" + column + "'"),
              std::string::npos)
        << sql << ": " << result.status().ToString();
  }

  // Nothing was changed by the rejected statements.
  auto count = f.lake.Query("SELECT COUNT(*) AS c FROM TB_DPI_LOG_HOURS");
  ASSERT_TRUE(count.ok()) << count.status().ToString();
  EXPECT_EQ(std::get<int64_t>(count->rows[0].fields[0]), 2);
}

/// Scan and catalog work of one query: every SelectMetrics scan counter
/// plus the metadata reads.
void ExpectSameWork(const table::SelectMetrics& sql,
                    const table::SelectMetrics& select,
                    const std::string& what) {
  EXPECT_EQ(sql.metadata.reads, select.metadata.reads) << what;
  EXPECT_EQ(sql.metadata.bytes_read, select.metadata.bytes_read) << what;
  EXPECT_EQ(sql.files_scanned, select.files_scanned) << what;
  EXPECT_EQ(sql.files_skipped, select.files_skipped) << what;
  EXPECT_EQ(sql.row_groups_scanned, select.row_groups_scanned) << what;
  EXPECT_EQ(sql.row_groups_skipped, select.row_groups_skipped) << what;
  EXPECT_EQ(sql.data_bytes_read, select.data_bytes_read) << what;
  EXPECT_EQ(sql.data_bytes_skipped, select.data_bytes_skipped) << what;
  EXPECT_EQ(sql.bytes_to_compute, select.bytes_to_compute) << what;
  EXPECT_EQ(sql.peak_memory_bytes, select.peak_memory_bytes) << what;
  EXPECT_EQ(sql.bytes_decoded, select.bytes_decoded) << what;
  EXPECT_EQ(sql.columns_decoded, select.columns_decoded) << what;
  EXPECT_EQ(sql.rows_materialized, select.rows_materialized) << what;
  EXPECT_EQ(sql.dict_code_prunes, select.dict_code_prunes) << what;
}

/// Catalog reads since process start, counted outside any per-query
/// capture: a query's own SelectMetrics can only report what happened
/// inside its capture.
uint64_t MetadataReads() {
  return table::MetadataCounters::Capture().reads;
}

TEST(SqlEngineTest, SqlDoesTheWorkOfTableSelect) {
  SqlFixture f;
  auto t = f.lake.lakehouse().GetTable("TB_DPI_LOG_HOURS");
  ASSERT_TRUE(t.ok());
  int64_t first_commit = 0;
  for (int batch = 0; batch < 3; ++batch) {
    std::vector<format::Row> rows;
    for (int i = 0; i < 40; ++i) {
      format::Row row;
      row.fields = {format::Value(std::string(i % 2 ? "a" : "b")),
                    format::Value(int64_t{batch * 40 + i}),
                    format::Value("p" + std::to_string(i % 3)),
                    format::Value(int64_t{i * 10})};
      rows.push_back(std::move(row));
    }
    ASSERT_TRUE((*t)->Insert(rows).ok());
    if (batch == 0) {
      first_commit = static_cast<int64_t>(f.lake.clock().NowSeconds());
    }
    f.lake.clock().Advance(10 * sim::kSecond);
  }

  struct Case {
    std::string sql;
    query::QuerySpec spec;
    table::SelectOptions options;
  };
  std::vector<Case> cases;
  {
    Case c{"SELECT * FROM TB_DPI_LOG_HOURS "
           "WHERE bytes >= 100 AND province = 'p1'",
           {}, {}};
    c.spec.where = query::Conjunction{
        query::Predicate::Ge("bytes", format::Value(int64_t{100})),
        query::Predicate::Eq("province", format::Value(std::string("p1")))};
    cases.push_back(std::move(c));
  }
  {
    Case c{"SELECT province, COUNT(*) AS c, SUM(bytes) AS s "
           "FROM TB_DPI_LOG_HOURS GROUP BY province",
           {}, {}};
    c.spec.group_by = {"province"};
    c.spec.aggregates = {query::AggregateSpec::CountStar("c"),
                         query::AggregateSpec::Sum("bytes", "s")};
    cases.push_back(std::move(c));
  }
  {
    Case c{"SELECT url, bytes FROM TB_DPI_LOG_HOURS WHERE start_time < 50",
           {}, {}};
    c.spec.projection = {"url", "bytes"};
    c.spec.where = query::Conjunction{
        query::Predicate::Lt("start_time", format::Value(int64_t{50}))};
    cases.push_back(std::move(c));
  }
  {
    Case c{"SELECT * FROM TB_DPI_LOG_HOURS ORDER BY start_time DESC LIMIT 5",
           {}, {}};
    c.spec.order_by = "start_time";
    c.spec.order_descending = true;
    c.spec.limit = 5;
    cases.push_back(std::move(c));
  }
  {
    Case c{"SELECT COUNT(*) AS c FROM TB_DPI_LOG_HOURS", {}, {}};
    c.spec.aggregates = {query::AggregateSpec::CountStar("c")};
    c.options.as_of_timestamp = first_commit;
    cases.push_back(std::move(c));
  }

  for (const Case& c : cases) {
    auto parsed = ParseSql(c.sql);
    ASSERT_TRUE(parsed.ok()) << c.sql;
    auto run_sql = [&](table::SelectMetrics* m) {
      return f.lake.lakehouse().Query(*parsed, c.options, m);
    };
    table::SelectMetrics sql_metrics, select_metrics;
    ASSERT_TRUE(run_sql(&sql_metrics).ok()) << c.sql;  // warm the caches
    uint64_t start = MetadataReads();
    auto via_sql = run_sql(&sql_metrics);
    uint64_t sql_reads = MetadataReads() - start;
    ASSERT_TRUE(via_sql.ok()) << c.sql << ": " << via_sql.status().ToString();
    start = MetadataReads();
    auto via_select = (*t)->Select(c.spec, c.options, &select_metrics);
    uint64_t select_reads = MetadataReads() - start;
    ASSERT_TRUE(via_select.ok()) << c.sql;
    EXPECT_EQ(sql_reads, select_reads) << c.sql;
    EXPECT_EQ(sql_metrics.metadata.reads, sql_reads) << c.sql;

    EXPECT_EQ(via_sql->column_names, via_select->column_names) << c.sql;
    EXPECT_EQ(via_sql->rows, via_select->rows) << c.sql;
    EXPECT_EQ(via_sql->rows_scanned, via_select->rows_scanned) << c.sql;
    EXPECT_EQ(via_sql->rows_matched, via_select->rows_matched) << c.sql;
    ExpectSameWork(sql_metrics, select_metrics, c.sql);
    EXPECT_GT(sql_metrics.metadata.reads, 0u) << c.sql;
  }

  // StreamLake::Query is the same call.
  table::SelectMetrics lake_metrics, select_metrics;
  auto via_lake = f.lake.Query(cases[0].sql, &lake_metrics);
  ASSERT_TRUE(via_lake.ok());
  auto via_select = (*t)->Select(cases[0].spec, {}, &select_metrics);
  ASSERT_TRUE(via_select.ok());
  EXPECT_EQ(via_lake->rows, via_select->rows);
  ExpectSameWork(lake_metrics, select_metrics, "StreamLake::Query");

  // A join reads each table's catalog entry once: exactly what its tables'
  // own Selects read together.
  auto regions = f.lake.lakehouse().CreateTable(
      "regions",
      format::Schema{{"province", format::DataType::kString},
                     {"region", format::DataType::kString}},
      table::PartitionSpec());
  ASSERT_TRUE(regions.ok());
  ASSERT_TRUE(f.lake
                  .Query("INSERT INTO regions VALUES ('p0', 'north'), "
                         "('p1', 'south')")
                  .ok());
  table::SelectMetrics join_metrics, logs_metrics, regions_metrics;
  uint64_t start = MetadataReads();
  auto join = f.lake.Query(
      "SELECT r.region, COUNT(*) AS c FROM TB_DPI_LOG_HOURS t "
      "JOIN regions r ON t.province = r.province GROUP BY r.region",
      &join_metrics);
  uint64_t join_reads = MetadataReads() - start;
  ASSERT_TRUE(join.ok()) << join.status().ToString();
  ASSERT_EQ(join->rows.size(), 2u);
  ASSERT_TRUE((*t)->Select({}, {}, &logs_metrics).ok());
  ASSERT_TRUE((*regions)->Select({}, {}, &regions_metrics).ok());
  EXPECT_EQ(join_reads,
            logs_metrics.metadata.reads + regions_metrics.metadata.reads);
  EXPECT_EQ(join_metrics.metadata.reads, join_reads);
}

}  // namespace
}  // namespace streamlake
