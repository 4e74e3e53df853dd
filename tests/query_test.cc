#include <gtest/gtest.h>

#include "query/executor.h"
#include "query/predicate.h"

namespace streamlake::query {
namespace {

format::Schema LogSchema() {
  return format::Schema{{"url", format::DataType::kString},
                        {"start_time", format::DataType::kInt64},
                        {"province", format::DataType::kString}};
}

format::Row LogRow(const std::string& url, int64_t t,
                   const std::string& province) {
  format::Row row;
  row.fields = {format::Value(url), format::Value(t), format::Value(province)};
  return row;
}

TEST(PredicateTest, AllOperators) {
  format::Value five{int64_t{5}};
  EXPECT_TRUE(Predicate::Le("x", five).Matches(format::Value(int64_t{5})));
  EXPECT_FALSE(Predicate::Lt("x", five).Matches(format::Value(int64_t{5})));
  EXPECT_TRUE(Predicate::Ge("x", five).Matches(format::Value(int64_t{5})));
  EXPECT_FALSE(Predicate::Gt("x", five).Matches(format::Value(int64_t{5})));
  EXPECT_TRUE(Predicate::Eq("x", five).Matches(format::Value(int64_t{5})));
  EXPECT_FALSE(Predicate::Eq("x", five).Matches(format::Value(int64_t{6})));
  Predicate in = Predicate::In(
      "x", {format::Value(int64_t{1}), format::Value(int64_t{3})});
  EXPECT_TRUE(in.Matches(format::Value(int64_t{3})));
  EXPECT_FALSE(in.Matches(format::Value(int64_t{2})));
}

TEST(PredicateTest, ConjunctionSemantics) {
  format::Schema schema = LogSchema();
  Conjunction where{
      Predicate::Eq("url", format::Value(std::string("http://a"))),
      Predicate::Ge("start_time", format::Value(int64_t{100})),
      Predicate::Lt("start_time", format::Value(int64_t{200}))};
  EXPECT_TRUE(where.Matches(schema, LogRow("http://a", 150, "bj")));
  EXPECT_FALSE(where.Matches(schema, LogRow("http://b", 150, "bj")));
  EXPECT_FALSE(where.Matches(schema, LogRow("http://a", 200, "bj")));
  EXPECT_TRUE(Conjunction().Matches(schema, LogRow("x", 1, "y")));
}

TEST(PredicateTest, RangePruning) {
  // Stats: start_time in [100, 200).
  format::ColumnStats stats;
  stats.min = format::Value(int64_t{100});
  stats.max = format::Value(int64_t{199});

  Conjunction overlapping{Predicate::Ge("start_time", format::Value(int64_t{150}))};
  EXPECT_TRUE(overlapping.MayMatchStats("start_time", stats));

  Conjunction below{Predicate::Lt("start_time", format::Value(int64_t{100}))};
  EXPECT_FALSE(below.MayMatchStats("start_time", stats));

  Conjunction above{Predicate::Gt("start_time", format::Value(int64_t{199}))};
  EXPECT_FALSE(above.MayMatchStats("start_time", stats));

  Conjunction eq_in{Predicate::Eq("start_time", format::Value(int64_t{150}))};
  EXPECT_TRUE(eq_in.MayMatchStats("start_time", stats));
  Conjunction eq_out{Predicate::Eq("start_time", format::Value(int64_t{500}))};
  EXPECT_FALSE(eq_out.MayMatchStats("start_time", stats));

  // Other columns don't prune.
  Conjunction other{Predicate::Eq("url", format::Value(std::string("z")))};
  EXPECT_TRUE(other.MayMatchStats("start_time", stats));

  // Missing stats: conservative.
  format::ColumnStats empty;
  EXPECT_TRUE(below.MayMatchStats("start_time", empty));
}

TEST(PredicateTest, InPruning) {
  format::ColumnStats stats;
  stats.min = format::Value(std::string("beijing"));
  stats.max = format::Value(std::string("hubei"));
  Conjunction in_hit{Predicate::In(
      "p", {format::Value(std::string("guangdong"))})};
  EXPECT_TRUE(in_hit.MayMatchStats("p", stats));
  Conjunction in_miss{Predicate::In(
      "p", {format::Value(std::string("shanghai"))})};
  EXPECT_FALSE(in_miss.MayMatchStats("p", stats));
}

TEST(ExecutorTest, DauQueryOfFig13) {
  // SELECT COUNT(*) AS DAU WHERE url = ... AND t in [a,b) GROUP BY province
  format::Schema schema = LogSchema();
  std::vector<format::Row> rows;
  for (int i = 0; i < 100; ++i) {
    rows.push_back(LogRow(i % 2 ? "http://streamlake_fin_app.com" : "http://x",
                          1656806400 + i, i % 3 ? "beijing" : "shanghai"));
  }
  QuerySpec spec;
  spec.where.Add(Predicate::Eq(
      "url", format::Value(std::string("http://streamlake_fin_app.com"))));
  spec.where.Add(Predicate::Ge("start_time", format::Value(int64_t{1656806400})));
  spec.where.Add(Predicate::Lt("start_time",
                               format::Value(int64_t{1656806400 + 100})));
  spec.group_by = {"province"};
  spec.aggregates = {AggregateSpec::CountStar("DAU")};

  auto result = Execute(schema, rows, spec);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->rows.size(), 2u);  // two provinces
  EXPECT_EQ(result->column_names[0], "province");
  EXPECT_EQ(result->column_names[1], "DAU");
  int64_t total = 0;
  for (const format::Row& row : result->rows) {
    total += std::get<int64_t>(row.fields[1]);
  }
  EXPECT_EQ(total, 50);  // half the rows match the url predicate
  EXPECT_EQ(result->rows_scanned, 100u);
  EXPECT_EQ(result->rows_matched, 50u);
}

TEST(ExecutorTest, SumMinMax) {
  format::Schema schema = LogSchema();
  std::vector<format::Row> rows = {LogRow("a", 10, "p"), LogRow("a", 30, "p"),
                                   LogRow("a", 20, "q")};
  QuerySpec spec;
  spec.aggregates = {AggregateSpec::Sum("start_time"),
                     AggregateSpec::Min("start_time"),
                     AggregateSpec::Max("start_time")};
  auto result = Execute(schema, rows, spec);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->rows.size(), 1u);
  EXPECT_DOUBLE_EQ(std::get<double>(result->rows[0].fields[0]), 60.0);
  EXPECT_EQ(std::get<int64_t>(result->rows[0].fields[1]), 10);
  EXPECT_EQ(std::get<int64_t>(result->rows[0].fields[2]), 30);
}

TEST(ExecutorTest, AvgAggregate) {
  format::Schema schema = LogSchema();
  std::vector<format::Row> rows = {LogRow("a", 10, "p"), LogRow("a", 30, "p"),
                                   LogRow("a", 20, "q")};
  QuerySpec spec;
  spec.group_by = {"province"};
  spec.aggregates = {AggregateSpec::Avg("start_time")};
  auto result = Execute(schema, rows, spec);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->rows.size(), 2u);
  EXPECT_DOUBLE_EQ(std::get<double>(result->rows[0].fields[1]), 20.0);  // p
  EXPECT_DOUBLE_EQ(std::get<double>(result->rows[1].fields[1]), 20.0);  // q

  // Global AVG over empty input is 0 by convention.
  QuerySpec empty;
  empty.aggregates = {AggregateSpec::Avg("start_time")};
  auto none = Execute(schema, {}, empty);
  ASSERT_TRUE(none.ok());
  EXPECT_DOUBLE_EQ(std::get<double>(none->rows[0].fields[0]), 0.0);
}

TEST(ExecutorTest, AggregatesSkipNullInputs) {
  // SQL: COUNT(col), SUM, AVG, MIN and MAX ignore NULL inputs; COUNT(*)
  // counts rows; MIN/MAX over no non-NULL input is NULL.
  format::Schema schema{{"g", format::DataType::kString},
                        {"x", format::DataType::kInt64},
                        {"s", format::DataType::kString}};
  const format::Value null{std::monostate{}};
  std::vector<format::Row> rows = {
      {{format::Value(std::string("a")), format::Value(int64_t{10}), null}},
      {{format::Value(std::string("a")), null, null}}};
  QuerySpec spec;
  spec.group_by = {"g"};
  spec.aggregates = {AggregateSpec::CountStar("n"),
                     {AggregateSpec::Func::kCount, "x", "cx"},
                     AggregateSpec::Avg("x", "ax"),
                     AggregateSpec::Min("s", "mins"),
                     AggregateSpec::Max("x", "maxx"),
                     AggregateSpec::Sum("x", "sx")};
  auto result = Execute(schema, rows, spec);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->rows.size(), 1u);
  const std::vector<format::Value>& r = result->rows[0].fields;
  EXPECT_EQ(std::get<int64_t>(r[1]), 2);          // COUNT(*)
  EXPECT_EQ(std::get<int64_t>(r[2]), 1);          // COUNT(x)
  EXPECT_DOUBLE_EQ(std::get<double>(r[3]), 10.0);  // AVG(x)
  EXPECT_TRUE(format::IsNull(r[4]));              // MIN(s): no input
  EXPECT_EQ(std::get<int64_t>(r[5]), 10);         // MAX(x)
  EXPECT_DOUBLE_EQ(std::get<double>(r[6]), 10.0);  // SUM(x)

  // A global MIN/MAX over an empty input is NULL too.
  QuerySpec empty;
  empty.aggregates = {AggregateSpec::Min("x"), AggregateSpec::Max("s")};
  auto none = Execute(schema, {}, empty);
  ASSERT_TRUE(none.ok());
  EXPECT_TRUE(format::IsNull(none->rows[0].fields[0]));
  EXPECT_TRUE(format::IsNull(none->rows[0].fields[1]));
}

TEST(ExecutorTest, OrderByAndLimit) {
  format::Schema schema = LogSchema();
  std::vector<format::Row> rows;
  for (int i = 0; i < 20; ++i) {
    rows.push_back(LogRow("u", (i * 7) % 20, "p" + std::to_string(i % 4)));
  }
  // Top-3 provinces by count, descending (a leaderboard query).
  QuerySpec spec;
  spec.group_by = {"province"};
  spec.aggregates = {AggregateSpec::CountStar("n")};
  spec.order_by = "n";
  spec.order_descending = true;
  spec.limit = 3;
  auto result = Execute(schema, rows, spec);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->rows.size(), 3u);
  for (size_t i = 1; i < result->rows.size(); ++i) {
    EXPECT_GE(std::get<int64_t>(result->rows[i - 1].fields[1]),
              std::get<int64_t>(result->rows[i].fields[1]));
  }

  // Plain rows sort too.
  QuerySpec plain;
  plain.projection = {"start_time"};
  plain.order_by = "start_time";
  plain.limit = 5;
  auto sorted = Execute(schema, rows, plain);
  ASSERT_TRUE(sorted.ok());
  ASSERT_EQ(sorted->rows.size(), 5u);
  for (size_t i = 1; i < sorted->rows.size(); ++i) {
    EXPECT_LE(std::get<int64_t>(sorted->rows[i - 1].fields[0]),
              std::get<int64_t>(sorted->rows[i].fields[0]));
  }

  QuerySpec bad;
  bad.order_by = "nope";
  EXPECT_TRUE(Execute(schema, rows, bad).status().IsInvalidArgument());
}

TEST(ExecutorTest, PlainSelectWithProjection) {
  format::Schema schema = LogSchema();
  std::vector<format::Row> rows = {LogRow("a", 1, "bj"), LogRow("b", 2, "sh")};
  QuerySpec spec;
  spec.projection = {"province", "start_time"};
  auto result = Execute(schema, rows, spec);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->rows.size(), 2u);
  EXPECT_EQ(result->column_names,
            (std::vector<std::string>{"province", "start_time"}));
  EXPECT_EQ(std::get<std::string>(result->rows[0].fields[0]), "bj");
  EXPECT_EQ(std::get<int64_t>(result->rows[1].fields[1]), 2);
}

TEST(ExecutorTest, UnknownColumnsRejected) {
  format::Schema schema = LogSchema();
  QuerySpec bad_group;
  bad_group.group_by = {"nope"};
  bad_group.aggregates = {AggregateSpec::CountStar()};
  EXPECT_TRUE(Execute(schema, {}, bad_group).status().IsInvalidArgument());

  QuerySpec bad_agg;
  bad_agg.aggregates = {AggregateSpec::Sum("nope")};
  EXPECT_TRUE(Execute(schema, {}, bad_agg).status().IsInvalidArgument());

  QuerySpec bad_proj;
  bad_proj.projection = {"nope"};
  EXPECT_TRUE(Execute(schema, {}, bad_proj).status().IsInvalidArgument());
}

TEST(ExecutorTest, IncrementalConsumeMatchesSingleShot) {
  format::Schema schema = LogSchema();
  std::vector<format::Row> all;
  for (int i = 0; i < 60; ++i) {
    all.push_back(LogRow("u", i, "p" + std::to_string(i % 4)));
  }
  QuerySpec spec;
  spec.group_by = {"province"};
  spec.aggregates = {AggregateSpec::CountStar()};

  Executor incremental(schema, spec);
  for (size_t i = 0; i < all.size(); i += 7) {
    std::vector<format::Row> chunk(
        all.begin() + i, all.begin() + std::min(i + 7, all.size()));
    ASSERT_TRUE(incremental.Consume(chunk).ok());
  }
  auto inc = incremental.Finalize();
  auto single = Execute(schema, all, spec);
  ASSERT_TRUE(inc.ok() && single.ok());
  ASSERT_EQ(inc->rows.size(), single->rows.size());
  for (size_t i = 0; i < inc->rows.size(); ++i) {
    EXPECT_EQ(inc->rows[i], single->rows[i]);
  }
}

}  // namespace
}  // namespace streamlake::query
