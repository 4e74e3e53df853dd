#include <gtest/gtest.h>

#include <bit>
#include <cstring>
#include <limits>

#include "common/random.h"
#include "format/lakefile.h"
#include "oracle/oracle.h"
#include "query/executor.h"
#include "query/keys.h"
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

/// `rows` as a scan hands them on: written as one LakeFile of
/// `rows_per_group`-row groups, then each group's chunks decoded.
std::vector<std::vector<format::ColumnChunkPtr>> Groups(
    const format::Schema& schema, const std::vector<format::Row>& rows,
    size_t rows_per_group) {
  std::vector<const format::Row*> pointers;
  for (const format::Row& row : rows) pointers.push_back(&row);
  format::ColumnBatch batch(schema);
  batch.AppendRows(pointers);
  format::LakeFileOptions options;
  options.rows_per_group = rows_per_group;
  auto reader = format::LakeFileReader::Open(
      format::EncodeLakeFile(schema, batch, options).bytes);
  EXPECT_TRUE(reader.ok());
  std::vector<std::vector<format::ColumnChunkPtr>> groups;
  for (size_t g = 0; reader.ok() && g < reader->num_row_groups(); ++g) {
    std::vector<format::ColumnChunkPtr>& chunks = groups.emplace_back();
    for (size_t c = 0; c < schema.num_fields(); ++c) {
      auto chunk = reader->ReadColumnChunk(g, c);
      EXPECT_TRUE(chunk.ok());
      chunks.push_back(
          std::make_shared<const format::ColumnChunkData>(std::move(*chunk)));
    }
  }
  return groups;
}

/// The rows of one group's `chunks` that `where` matches, evaluated column
/// at a time as the scan does.
std::vector<uint32_t> Selection(
    const Conjunction& where, const format::Schema& schema,
    const std::vector<format::ColumnChunkPtr>& chunks) {
  const size_t n = chunks.at(0)->num_rows;
  std::vector<char> selected(n, 1);
  auto left = BoundConjunction(where, schema)
                  .AndInto(
                      [&](size_t c) -> Result<const format::ColumnChunkData*> {
                        return chunks[c].get();
                      },
                      nullptr, &selected, n, nullptr, nullptr);
  EXPECT_TRUE(left.ok());
  std::vector<uint32_t> selection;
  for (uint32_t r = 0; r < n; ++r) {
    if (selected[r]) selection.push_back(r);
  }
  return selection;
}

/// The product Executor over `rows`, fed the way a scan feeds it: each row
/// group of their LakeFile is one batch, filtered by `spec.where`.
Result<QueryResult> Execute(const format::Schema& schema,
                            const std::vector<format::Row>& rows,
                            const QuerySpec& spec,
                            size_t rows_per_group = 8192) {
  Executor executor(schema, spec);
  const std::vector<ColumnSource> sources =
      OneSideSources(schema.num_fields());
  for (const auto& chunks : Groups(schema, rows, rows_per_group)) {
    const std::vector<uint32_t> selection =
        Selection(spec.where, schema, chunks);
    SL_RETURN_NOT_OK(executor.Consume({sources, chunks, selection, 1, {}},
                                      chunks[0]->num_rows));
  }
  return executor.Finalize();
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
  const std::vector<format::ColumnChunkPtr> chunks =
      Groups(schema,
             {LogRow("http://a", 150, "bj"), LogRow("http://b", 150, "bj"),
              LogRow("http://a", 200, "bj"), LogRow("x", 1, "y")},
             8192)
          .at(0);
  EXPECT_EQ(Selection(where, schema, chunks), (std::vector<uint32_t>{0}));
  EXPECT_EQ(Selection(Conjunction(), schema, chunks),
            (std::vector<uint32_t>{0, 1, 2, 3}));
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

  // 7-row groups: one Consume call each into the same executor.
  auto inc = Execute(schema, all, spec, /*rows_per_group=*/7);
  auto single = Execute(schema, all, spec);
  ASSERT_TRUE(inc.ok() && single.ok());
  ASSERT_EQ(inc->rows.size(), single->rows.size());
  for (size_t i = 0; i < inc->rows.size(); ++i) {
    EXPECT_EQ(inc->rows[i], single->rows[i]);
  }
}

// ---------------------------------------------------------------------------
// Normalized key bytes: memcmp order is the key rule's order.

std::string Encode(const std::vector<format::Value>& key) {
  KeyEncoder enc;
  for (const format::Value& v : key) enc.Add(v);
  return std::string(enc.bytes());
}

int Sign(int x) { return (x > 0) - (x < 0); }

/// memcmp of the encodings, as the KeyTable and its sort compare them.
int ByteSign(const std::string& a, const std::string& b) {
  int c = std::memcmp(a.data(), b.data(), std::min(a.size(), b.size()));
  if (c == 0) c = a.size() < b.size() ? -1 : (a.size() > b.size() ? 1 : 0);
  return Sign(c);
}

/// The key rule over composite keys: the first cell that differs decides.
int KeySign(const std::vector<format::Value>& a,
            const std::vector<format::Value>& b) {
  for (size_t i = 0; i < a.size() && i < b.size(); ++i) {
    const int c = format::CompareKeys(a[i], b[i]);
    if (c != 0) return Sign(c);
  }
  return Sign(static_cast<int>(a.size()) - static_cast<int>(b.size()));
}

/// Every special value of each key type, then seeded random ones; NULL is
/// in every pool (it compares with any type).
std::vector<std::vector<format::Value>> KeyPools(uint64_t seed) {
  Random rng(seed);
  const format::Value null{std::monostate{}};
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<format::Value> doubles{
      null, format::Value(0.0), format::Value(-0.0), format::Value(inf),
      format::Value(-inf), format::Value(std::numeric_limits<double>::max()),
      format::Value(std::numeric_limits<double>::lowest()),
      format::Value(std::numeric_limits<double>::denorm_min()),
      format::Value(-std::numeric_limits<double>::denorm_min()),
      format::Value(1.5), format::Value(-1.5)};
  for (int i = 0; i < 12; ++i) {
    // NaNs with either sign and any payload.
    uint64_t payload = 1 + rng.Uniform((uint64_t{1} << 52) - 1);
    uint64_t bits = 0x7FF0000000000000ULL | payload;
    if (rng.OneIn(2)) bits |= uint64_t{1} << 63;
    doubles.push_back(format::Value(std::bit_cast<double>(bits)));
  }
  for (int i = 0; i < 40; ++i) {
    double d = std::bit_cast<double>(rng.Next());
    if (std::isnan(d)) d = 0.25 * static_cast<double>(rng.Uniform(64)) - 8;
    doubles.push_back(format::Value(rng.OneIn(2) ? d : std::round(d)));
  }
  std::vector<format::Value> ints{
      null, format::Value(std::numeric_limits<int64_t>::min()),
      format::Value(std::numeric_limits<int64_t>::max()),
      format::Value(int64_t{-1}), format::Value(int64_t{0}),
      format::Value(int64_t{1}), format::Value(int64_t{255}),
      format::Value(int64_t{256})};
  for (int i = 0; i < 40; ++i) {
    ints.push_back(format::Value(static_cast<int64_t>(
        rng.OneIn(2) ? rng.Next() : rng.Uniform(600) - 300)));
  }
  std::vector<format::Value> bools{null, format::Value(false),
                                   format::Value(true)};
  std::vector<format::Value> strings{null};
  for (const char* s : {"", "a", "ab", "b", "\xff", "a\xff"}) {
    strings.push_back(format::Value(std::string(s)));
  }
  for (const std::string& s :
       {std::string(1, '\0'), std::string("a\0", 2), std::string("a\0b", 3),
        std::string("a\0\0", 3), std::string("\0\xff", 2)}) {
    strings.push_back(format::Value(s));
  }
  const char alphabet[] = {'\0', '\x01', 'a', '\xfe', '\xff'};
  for (int i = 0; i < 40; ++i) {
    std::string s;
    for (uint64_t n = rng.Uniform(5); n > 0; --n) {
      s.push_back(alphabet[rng.Uniform(sizeof(alphabet))]);
    }
    strings.push_back(format::Value(s));
  }
  return {doubles, ints, bools, strings};
}

TEST(KeyEncoderTest, MemcmpOrderEqualsKeyRule) {
  for (uint64_t seed : {1, 2, 3}) {
    for (const std::vector<format::Value>& pool : KeyPools(seed)) {
      for (const format::Value& a : pool) {
        for (const format::Value& b : pool) {
          const int want = KeySign({a}, {b});
          ASSERT_EQ(want, Sign(format::CompareKeys(a, b)));
          ASSERT_EQ(ByteSign(Encode({a}), Encode({b})), want)
              << format::ValueToString(a) << " vs "
              << format::ValueToString(b);
          // oracle::KeyLess agrees on one-cell keys.
          ASSERT_EQ(oracle::KeyLess()(a, b), want < 0);
        }
      }
    }
  }
}

TEST(KeyEncoderTest, CompositeKeysWithStringFirstStayOrdered) {
  const std::vector<std::vector<format::Value>> pools = KeyPools(4);
  const std::vector<format::Value>& strings = pools[3];
  Random rng(5);
  for (size_t second = 0; second < 3; ++second) {
    const std::vector<format::Value>& tail = pools[second];
    std::vector<std::vector<format::Value>> keys;
    for (int i = 0; i < 300; ++i) {
      keys.push_back({strings[rng.Uniform(strings.size())],
                      tail[rng.Uniform(tail.size())]});
    }
    for (const auto& a : keys) {
      for (const auto& b : keys) {
        const int want = KeySign(a, b);
        ASSERT_EQ(oracle::KeyLess()(a, b), want < 0);
        ASSERT_EQ(ByteSign(Encode(a), Encode(b)), want)
            << format::ValueToString(a[0]) << "," << format::ValueToString(a[1])
            << " vs " << format::ValueToString(b[0]) << ","
            << format::ValueToString(b[1]);
      }
    }
  }
}

TEST(KeyEncoderTest, ChunkCellsEncodeAsTheirValues) {
  const std::vector<std::vector<format::Value>> pools = KeyPools(6);
  Random rng(7);
  const format::DataType types[] = {format::DataType::kDouble,
                                    format::DataType::kInt64,
                                    format::DataType::kBool,
                                    format::DataType::kString};
  for (size_t p = 0; p < pools.size(); ++p) {
    // Rows drawn from the pool; the pool's non-NULL values double as the
    // dictionary of the dict-view chunk.
    std::vector<format::Value> dict_values(pools[p].begin() + 1,
                                           pools[p].end());
    const size_t n = 200;
    std::vector<uint32_t> codes(n);
    std::vector<uint8_t> nulls(n);
    std::vector<format::Value> rows(n);
    for (size_t r = 0; r < n; ++r) {
      codes[r] = static_cast<uint32_t>(rng.Uniform(dict_values.size()));
      nulls[r] = rng.OneIn(5) ? 1 : 0;
      rows[r] = nulls[r] ? format::Value(std::monostate{})
                         : dict_values[codes[r]];
    }
    // A NULL row carries the type's default in the value stream.
    auto column_of = [](auto sample, const std::vector<format::Value>& vs) {
      std::vector<decltype(sample)> out;
      for (const format::Value& v : vs) {
        if (format::IsNull(v)) {
          out.push_back({});
        } else if constexpr (std::is_same_v<decltype(sample), uint8_t>) {
          out.push_back(std::get<bool>(v) ? 1 : 0);
        } else {
          out.push_back(std::get<decltype(sample)>(v));
        }
      }
      return format::ColumnData(out);
    };
    auto typed = [&](const std::vector<format::Value>& vs) {
      switch (types[p]) {
        case format::DataType::kDouble:
          return column_of(0.0, vs);
        case format::DataType::kInt64:
          return column_of(int64_t{0}, vs);
        case format::DataType::kBool:
          return column_of(uint8_t{0}, vs);
        default:
          return column_of(std::string(), vs);
      }
    };
    format::ColumnChunkData plain;
    plain.type = types[p];
    plain.num_rows = n;
    plain.values = typed(rows);
    plain.null_mask = nulls;
    format::ColumnChunkData dict;
    dict.type = types[p];
    dict.num_rows = n;
    dict.dict_view = true;
    dict.dict = typed(dict_values);
    dict.codes = codes;
    dict.null_mask = nulls;
    for (size_t r = 0; r < n; ++r) {
      const std::string want = Encode({rows[r]});
      for (const format::ColumnChunkData* chunk : {&plain, &dict}) {
        KeyEncoder enc;
        enc.Add(chunk, r);
        ASSERT_EQ(std::string(enc.bytes()), want)
            << "type " << p << " row " << r << " dict " << chunk->dict_view;
      }
    }
  }
  // An absent chunk reads as NULL.
  KeyEncoder enc;
  enc.Add(nullptr, 3);
  EXPECT_EQ(std::string(enc.bytes()),
            Encode({format::Value(std::monostate{})}));
}

TEST(KeyTableTest, FindsEveryKeyAndSortsByBytes) {
  Random rng(8);
  KeyTable table;
  std::vector<std::string> keys;
  for (int i = 0; i < 5000; ++i) {
    // Keys longer than SortedIds' 16-byte prefix, most sharing it.
    KeyEncoder enc;
    enc.Add(format::Value(std::string(10, 'p') +
                          std::to_string(rng.Uniform(3))));
    enc.Add(format::Value(static_cast<int64_t>(rng.Uniform(3000)) - 1500));
    const std::string key(enc.bytes());
    auto [id, inserted] = table.Insert(key);
    const auto known = std::find(keys.begin(), keys.end(), key);
    ASSERT_EQ(inserted, known == keys.end());
    if (inserted) {
      ASSERT_EQ(id, keys.size());
      keys.push_back(key);
    } else {
      ASSERT_EQ(id, static_cast<uint32_t>(known - keys.begin()));
    }
  }
  ASSERT_EQ(table.size(), keys.size());
  for (uint32_t id = 0; id < keys.size(); ++id) {
    EXPECT_EQ(table.Find(keys[id]), id);
    EXPECT_EQ(table.key(id), keys[id]);
  }
  EXPECT_EQ(table.Find(Encode({format::Value(int64_t{99999})})),
            KeyTable::kNotFound);
  EXPECT_EQ(KeyTable().Find("x"), KeyTable::kNotFound);
  const std::vector<uint32_t> sorted = table.SortedIds();
  ASSERT_EQ(sorted.size(), keys.size());
  for (size_t i = 1; i < sorted.size(); ++i) {
    EXPECT_LT(keys[sorted[i - 1]], keys[sorted[i]]);
  }
}

}  // namespace
}  // namespace streamlake::query
