#include <gtest/gtest.h>

#include "common/random.h"
#include "format/lakefile.h"
#include "format/row_codec.h"
#include "format/schema.h"
#include "format/types.h"

namespace streamlake::format {
namespace {

Schema DpiSchema() {
  return Schema{{"url", DataType::kString},
                {"start_time", DataType::kInt64},
                {"province", DataType::kString},
                {"bytes", DataType::kInt64},
                {"roaming", DataType::kBool},
                {"score", DataType::kDouble}};
}

Row MakeDpiRow(Random* rng, int64_t t) {
  static const std::vector<std::string> kProvinces = {
      "beijing", "shanghai", "guangdong", "sichuan", "hubei"};
  Row row;
  row.fields = {Value(std::string("http://app") +
                      std::to_string(rng->Uniform(10)) + ".com"),
                Value(t),
                Value(kProvinces[rng->Uniform(kProvinces.size())]),
                Value(static_cast<int64_t>(rng->Uniform(4096))),
                Value(rng->OneIn(10)),
                Value(rng->NextDouble())};
  return row;
}

TEST(ValueTest, TypeOfAndCompare) {
  EXPECT_EQ(TypeOf(Value(true)), DataType::kBool);
  EXPECT_EQ(TypeOf(Value(int64_t{5})), DataType::kInt64);
  EXPECT_EQ(TypeOf(Value(1.5)), DataType::kDouble);
  EXPECT_EQ(TypeOf(Value(std::string("x"))), DataType::kString);

  EXPECT_LT(CompareValues(Value(int64_t{1}), Value(int64_t{2})), 0);
  EXPECT_GT(CompareValues(Value(std::string("b")), Value(std::string("a"))), 0);
  EXPECT_EQ(CompareValues(Value(1.5), Value(1.5)), 0);
}

TEST(ValueTest, EncodeDecodeAllTypes) {
  std::vector<Value> values = {Value(true), Value(int64_t{-42}), Value(2.75),
                               Value(std::string("hello"))};
  Bytes buf;
  for (const Value& v : values) EncodeValue(&buf, v);
  Decoder dec{ByteView(buf)};
  for (const Value& expected : values) {
    auto got = DecodeValue(&dec);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(CompareValues(*got, expected), 0);
  }
}

TEST(SchemaTest, FieldLookupAndValidate) {
  Schema schema = DpiSchema();
  EXPECT_EQ(schema.num_fields(), 6u);
  EXPECT_EQ(schema.FieldIndex("province"), 2);
  EXPECT_EQ(schema.FieldIndex("missing"), -1);

  Random rng(1);
  Row good = MakeDpiRow(&rng, 100);
  EXPECT_TRUE(schema.ValidateRow(good).ok());

  Row short_row;
  short_row.fields = {Value(std::string("u"))};
  EXPECT_TRUE(schema.ValidateRow(short_row).IsInvalidArgument());

  Row wrong_type = good;
  wrong_type.fields[1] = Value(std::string("not an int"));
  EXPECT_TRUE(schema.ValidateRow(wrong_type).IsInvalidArgument());
}

TEST(SchemaTest, EncodeDecodeRoundTrip) {
  Schema schema = DpiSchema();
  Bytes buf;
  schema.EncodeTo(&buf);
  Decoder dec{ByteView(buf)};
  auto decoded = Schema::DecodeFrom(&dec);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, schema);
}

TEST(RowCodecTest, RoundTrip) {
  Schema schema = DpiSchema();
  Random rng(2);
  for (int i = 0; i < 50; ++i) {
    Row row = MakeDpiRow(&rng, 1656806400 + i);
    Bytes buf;
    EncodeRow(schema, row, &buf);
    auto decoded = DecodeRow(schema, ByteView(buf));
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(*decoded, row);
  }
}

TEST(RowCodecTest, NullFieldRoundTrips) {
  // A kNull field encodes to zero bytes and decodes to NULL.
  Schema schema({{"a", DataType::kInt64}, {"n", DataType::kNull}});
  Row row;
  row.fields = {Value(int64_t{1}), Value(std::monostate{})};
  Bytes buf;
  EncodeRow(schema, row, &buf);
  EXPECT_EQ(buf.size(), 1u);
  auto decoded = DecodeRow(schema, ByteView(buf));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(*decoded, row);
}

TEST(RowCodecTest, DecodeRejectsTruncation) {
  Schema schema = DpiSchema();
  Random rng(3);
  Row row = MakeDpiRow(&rng, 1);
  Bytes buf;
  EncodeRow(schema, row, &buf);
  buf.resize(buf.size() / 2);
  EXPECT_FALSE(DecodeRow(schema, ByteView(buf)).ok());
}

TEST(LakeFileTest, WriteReadSingleGroup) {
  Schema schema = DpiSchema();
  LakeFileWriter writer(schema);
  Random rng(4);
  std::vector<Row> rows;
  for (int i = 0; i < 100; ++i) rows.push_back(MakeDpiRow(&rng, 1000 + i));
  ASSERT_TRUE(writer.AppendBatch(rows).ok());
  auto file = writer.Finish();
  ASSERT_TRUE(file.ok());

  auto reader = LakeFileReader::Open(std::move(*file));
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  EXPECT_EQ(reader->num_row_groups(), 1u);
  EXPECT_EQ(reader->num_rows(), 100u);
  EXPECT_EQ(reader->schema(), schema);

  auto all = reader->ReadAll();
  ASSERT_TRUE(all.ok());
  ASSERT_EQ(all->size(), rows.size());
  for (size_t i = 0; i < rows.size(); ++i) EXPECT_EQ((*all)[i], rows[i]);
}

TEST(LakeFileTest, MultipleRowGroupsAndStats) {
  Schema schema = DpiSchema();
  LakeFileOptions options;
  options.rows_per_group = 64;
  LakeFileWriter writer(schema, options);
  Random rng(5);
  for (int i = 0; i < 300; ++i) {
    ASSERT_TRUE(writer.Append(MakeDpiRow(&rng, 5000 + i)).ok());
  }
  auto file = writer.Finish();
  ASSERT_TRUE(file.ok());
  auto reader = LakeFileReader::Open(std::move(*file));
  ASSERT_TRUE(reader.ok());
  EXPECT_EQ(reader->num_row_groups(), 5u);  // ceil(300/64)
  EXPECT_EQ(reader->num_rows(), 300u);

  // start_time stats per group should be tight and monotone across groups.
  int time_col = schema.FieldIndex("start_time");
  for (size_t g = 0; g < reader->num_row_groups(); ++g) {
    const ColumnStats& stats = reader->row_group(g).columns[time_col].stats;
    ASSERT_TRUE(stats.min.has_value());
    ASSERT_TRUE(stats.max.has_value());
    int64_t lo = std::get<int64_t>(*stats.min);
    int64_t hi = std::get<int64_t>(*stats.max);
    EXPECT_EQ(lo, 5000 + static_cast<int64_t>(g) * 64);
    EXPECT_EQ(hi, std::min<int64_t>(5000 + 299, lo + 63));
  }
}

TEST(LakeFileTest, StatsEnableRowGroupSkipping) {
  // Count how many groups a [t0, t1) predicate can skip using stats only.
  Schema schema{{"t", DataType::kInt64}};
  LakeFileOptions options;
  options.rows_per_group = 100;
  LakeFileWriter writer(schema, options);
  for (int64_t i = 0; i < 1000; ++i) {
    Row row;
    row.fields = {Value(i)};
    ASSERT_TRUE(writer.Append(row).ok());
  }
  auto file = writer.Finish();
  ASSERT_TRUE(file.ok());
  auto reader = LakeFileReader::Open(std::move(*file));
  ASSERT_TRUE(reader.ok());
  int skipped = 0;
  for (size_t g = 0; g < reader->num_row_groups(); ++g) {
    const ColumnStats& stats = reader->row_group(g).columns[0].stats;
    int64_t lo = std::get<int64_t>(*stats.min);
    int64_t hi = std::get<int64_t>(*stats.max);
    if (hi < 500 || lo >= 600) ++skipped;  // predicate: 500 <= t < 600
  }
  EXPECT_EQ(skipped, 9);  // only one of ten groups overlaps
}

TEST(LakeFileTest, ReadSingleColumn) {
  Schema schema = DpiSchema();
  LakeFileWriter writer(schema);
  Random rng(6);
  std::vector<Row> rows;
  for (int i = 0; i < 50; ++i) rows.push_back(MakeDpiRow(&rng, i));
  ASSERT_TRUE(writer.AppendBatch(rows).ok());
  auto file = writer.Finish();
  ASSERT_TRUE(file.ok());
  auto reader = LakeFileReader::Open(std::move(*file));
  ASSERT_TRUE(reader.ok());

  auto col = reader->ReadColumnChunk(0, 1);  // start_time
  ASSERT_TRUE(col.ok());
  ASSERT_EQ(col->num_rows, 50u);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(col->ValueAt(i), Value(int64_t{i}));

  EXPECT_TRUE(reader->ReadColumnChunk(0, 99).status().IsInvalidArgument());
  EXPECT_TRUE(reader->ReadColumnChunk(9, 0).status().IsInvalidArgument());
}

TEST(LakeFileTest, ColumnarBeatsRowFormatOnSize) {
  // The row_2_col archive claim: columnar + compression is much smaller.
  Schema schema = DpiSchema();
  Random rng(7);
  std::vector<Row> rows;
  for (int i = 0; i < 5000; ++i) rows.push_back(MakeDpiRow(&rng, 100000 + i));

  Bytes row_format;
  for (const Row& r : rows) EncodeRow(schema, r, &row_format);

  LakeFileWriter writer(schema);
  ASSERT_TRUE(writer.AppendBatch(rows).ok());
  auto file = writer.Finish();
  ASSERT_TRUE(file.ok());
  EXPECT_LT(file->size() * 2, row_format.size());
}

TEST(LakeFileTest, OpenRejectsCorruptFile) {
  Schema schema{{"x", DataType::kInt64}};
  LakeFileWriter writer(schema);
  Row row;
  row.fields = {Value(int64_t{1})};
  ASSERT_TRUE(writer.Append(row).ok());
  auto file = writer.Finish();
  ASSERT_TRUE(file.ok());

  Bytes bad_magic = *file;
  bad_magic[0] = 'X';
  EXPECT_TRUE(LakeFileReader::Open(bad_magic).status().IsCorruption());

  Bytes tiny = {1, 2, 3};
  EXPECT_TRUE(LakeFileReader::Open(tiny).status().IsCorruption());
}

TEST(LakeFileTest, ChunkCrcDetectsPayloadCorruption) {
  Schema schema{{"s", DataType::kString}};
  LakeFileWriter writer(schema);
  for (int i = 0; i < 100; ++i) {
    Row row;
    row.fields = {Value(std::string("value-") + std::to_string(i))};
    ASSERT_TRUE(writer.Append(row).ok());
  }
  auto file = writer.Finish();
  ASSERT_TRUE(file.ok());
  // Flip a byte inside the first chunk (just past the 4-byte magic + header).
  Bytes corrupted = *file;
  corrupted[20] ^= 0xFF;
  auto reader = LakeFileReader::Open(std::move(corrupted));
  ASSERT_TRUE(reader.ok());  // footer still parses
  EXPECT_TRUE(reader->ReadColumnChunk(0, 0).status().IsCorruption());
}

TEST(LakeFileTest, WriterCannotBeReusedAfterFinish) {
  Schema schema{{"x", DataType::kInt64}};
  LakeFileWriter writer(schema);
  Row row;
  row.fields = {Value(int64_t{1})};
  ASSERT_TRUE(writer.Append(row).ok());
  ASSERT_TRUE(writer.Finish().ok());
  EXPECT_TRUE(writer.Append(row).IsInvalidArgument());
  EXPECT_TRUE(writer.Finish().status().IsInvalidArgument());
}

TEST(LakeFileTest, EmptyFileRoundTrips) {
  Schema schema{{"x", DataType::kInt64}};
  LakeFileWriter writer(schema);
  auto file = writer.Finish();
  ASSERT_TRUE(file.ok());
  auto reader = LakeFileReader::Open(std::move(*file));
  ASSERT_TRUE(reader.ok());
  EXPECT_EQ(reader->num_row_groups(), 0u);
  EXPECT_EQ(reader->num_rows(), 0u);
  auto all = reader->ReadAll();
  ASSERT_TRUE(all.ok());
  EXPECT_TRUE(all->empty());
}

// The rewrites gather one scanned group after another into one batch, so
// its vectors must grow geometrically: an exact reserve per call would
// reallocate, and move every value gathered so far, on each of them.
TEST(ColumnBatchTest, GatherGrowsGeometrically) {
  const Schema schema{{"id", DataType::kInt64},
                      {"score", DataType::kDouble},
                      {"tag", DataType::kString},
                      {"flag", DataType::kBool}};
  LakeFileWriter writer(schema);
  for (int64_t i = 0; i < 8; ++i) {
    ASSERT_TRUE(writer
                    .Append(Row{{Value(i), Value(0.5 * static_cast<double>(i)),
                                 Value(std::string(i % 2 ? "even" : "odd")),
                                 Value(i % 3 == 0)}})
                    .ok());
  }
  auto file = writer.Finish();
  ASSERT_TRUE(file.ok());
  auto reader = LakeFileReader::Open(std::move(*file));
  ASSERT_TRUE(reader.ok());
  std::vector<ColumnChunkPtr> chunks;
  for (size_t c = 0; c < schema.num_fields(); ++c) {
    auto chunk = reader->ReadColumnChunk(0, c);
    ASSERT_TRUE(chunk.ok());
    chunks.push_back(std::make_shared<const ColumnChunkData>(*chunk));
  }

  ColumnBatch batch(schema);
  constexpr uint32_t kAppends = 20000;
  std::vector<const void*> last(2 * schema.num_fields(), nullptr);
  std::vector<int> moves(last.size(), 0);
  for (uint32_t i = 0; i < kAppends; ++i) {
    const uint32_t row = i % 8;
    batch.AppendRows(chunks, {&row, 1});
    for (size_t c = 0; c < schema.num_fields(); ++c) {
      const ColumnBatch::Column& column = batch.columns[c];
      const void* values = std::visit(
          [](const auto& vals) -> const void* { return vals.data(); },
          column.values);
      const void* now[2] = {values, column.null_mask.data()};
      for (size_t k = 0; k < 2; ++k) {
        if (now[k] != last[2 * c + k]) ++moves[2 * c + k];
        last[2 * c + k] = now[k];
      }
    }
  }
  ASSERT_EQ(batch.num_rows, kAppends);
  for (size_t v = 0; v < moves.size(); ++v) {
    EXPECT_LT(moves[v], 40) << schema.field(v / 2).name
                            << (v % 2 ? " null mask" : " values");
  }
  EXPECT_EQ(std::get<std::vector<std::string>>(batch.columns[2].values)[3],
            "even");
}

// Parameterized sweep: every (compression, rows_per_group) combination
// round-trips and keeps correct stats.
class LakeFileParam
    : public ::testing::TestWithParam<std::pair<codec::Compression, size_t>> {
};

TEST_P(LakeFileParam, RoundTripWithStats) {
  auto [compression, rows_per_group] = GetParam();
  Schema schema = DpiSchema();
  LakeFileOptions options;
  options.compression = compression;
  options.rows_per_group = rows_per_group;
  LakeFileWriter writer(schema, options);
  Random rng(static_cast<uint64_t>(rows_per_group) * 31 +
             static_cast<uint64_t>(compression));
  std::vector<Row> rows;
  for (int i = 0; i < 333; ++i) rows.push_back(MakeDpiRow(&rng, 7000 + i));
  ASSERT_TRUE(writer.AppendBatch(rows).ok());
  auto file = writer.Finish();
  ASSERT_TRUE(file.ok());
  auto reader = LakeFileReader::Open(std::move(*file));
  ASSERT_TRUE(reader.ok());
  EXPECT_EQ(reader->num_rows(), 333u);
  EXPECT_EQ(reader->num_row_groups(),
            (333 + rows_per_group - 1) / rows_per_group);
  auto all = reader->ReadAll();
  ASSERT_TRUE(all.ok());
  for (size_t i = 0; i < rows.size(); ++i) ASSERT_EQ((*all)[i], rows[i]);
  // Per-group stats stay tight regardless of layout.
  int time_col = schema.FieldIndex("start_time");
  for (size_t g = 0; g < reader->num_row_groups(); ++g) {
    const ColumnStats& stats = reader->row_group(g).columns[time_col].stats;
    ASSERT_TRUE(stats.min.has_value());
    EXPECT_EQ(std::get<int64_t>(*stats.min),
              7000 + static_cast<int64_t>(g * rows_per_group));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Layouts, LakeFileParam,
    ::testing::Values(
        std::make_pair(codec::Compression::kNone, size_t{1}),
        std::make_pair(codec::Compression::kNone, size_t{64}),
        std::make_pair(codec::Compression::kNone, size_t{8192}),
        std::make_pair(codec::Compression::kLz, size_t{1}),
        std::make_pair(codec::Compression::kLz, size_t{64}),
        std::make_pair(codec::Compression::kLz, size_t{8192})));

// Property test: random schemas and rows round-trip through LakeFile.
TEST(LakeFileProperty, RandomTablesRoundTrip) {
  Random rng(2025);
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<Field> fields;
    size_t num_fields = 1 + rng.Uniform(6);
    for (size_t f = 0; f < num_fields; ++f) {
      fields.push_back(Field{"c" + std::to_string(f),
                             static_cast<DataType>(rng.Uniform(4))});
    }
    Schema schema(fields);
    LakeFileOptions options;
    options.rows_per_group = 1 + rng.Uniform(100);
    LakeFileWriter writer(schema, options);
    size_t num_rows = rng.Uniform(500);
    std::vector<Row> rows;
    for (size_t i = 0; i < num_rows; ++i) {
      Row row;
      for (const Field& f : schema.fields()) {
        switch (f.type) {
          case DataType::kBool:
            row.fields.emplace_back(rng.OneIn(2));
            break;
          case DataType::kInt64:
            row.fields.emplace_back(static_cast<int64_t>(rng.Next()));
            break;
          case DataType::kDouble:
            row.fields.emplace_back(rng.NextDouble());
            break;
          case DataType::kString:
            row.fields.emplace_back(rng.NextString(rng.Uniform(30)));
            break;
          case DataType::kNull:
            break;  // the schema above draws only the first four types
        }
      }
      rows.push_back(std::move(row));
    }
    ASSERT_TRUE(writer.AppendBatch(rows).ok());
    auto file = writer.Finish();
    ASSERT_TRUE(file.ok());
    auto reader = LakeFileReader::Open(std::move(*file));
    ASSERT_TRUE(reader.ok()) << "trial " << trial;
    auto all = reader->ReadAll();
    ASSERT_TRUE(all.ok()) << "trial " << trial;
    ASSERT_EQ(all->size(), rows.size());
    for (size_t i = 0; i < rows.size(); ++i) {
      EXPECT_EQ((*all)[i], rows[i]) << "trial " << trial << " row " << i;
    }
  }
}

}  // namespace
}  // namespace streamlake::format
