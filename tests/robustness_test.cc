// Robustness: decoders must reject arbitrary corrupt input with an error,
// never crash or mis-read, and concurrent use of the lakehouse must stay
// consistent. These are fuzz-style property tests with deterministic
// seeds.

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "common/coding.h"
#include "common/hash.h"
#include "common/random.h"
#include "core/streamlake.h"
#include "format/lakefile.h"
#include "format/row_codec.h"
#include "kv/write_batch.h"
#include "query/sql_parser.h"
#include "stream/stream_record.h"
#include "table/metadata.h"

namespace streamlake {
namespace {

Bytes RandomBytes(Random* rng, size_t max_len) {
  Bytes out;
  size_t n = rng->Uniform(max_len);
  for (size_t i = 0; i < n; ++i) {
    out.push_back(static_cast<uint8_t>(rng->Uniform(256)));
  }
  return out;
}

/// Flip, truncate, or splice a valid encoding.
Bytes Mutate(const Bytes& valid, Random* rng) {
  Bytes out = valid;
  switch (rng->Uniform(3)) {
    case 0:  // bit flips
      for (int i = 0; i < 4 && !out.empty(); ++i) {
        out[rng->Uniform(out.size())] ^= 1 << rng->Uniform(8);
      }
      break;
    case 1:  // truncation
      if (!out.empty()) out.resize(rng->Uniform(out.size()));
      break;
    case 2: {  // splice random garbage
      Bytes garbage = RandomBytes(rng, 64);
      size_t at = out.empty() ? 0 : rng->Uniform(out.size());
      out.insert(out.begin() + at, garbage.begin(), garbage.end());
      break;
    }
  }
  return out;
}

TEST(FuzzTest, LakeFileOpenNeverCrashes) {
  Random rng(1234);
  format::Schema schema{{"a", format::DataType::kInt64},
                        {"b", format::DataType::kString}};
  format::LakeFileWriter writer(schema);
  for (int i = 0; i < 200; ++i) {
    format::Row row;
    row.fields = {format::Value(static_cast<int64_t>(i)),
                  format::Value(rng.NextString(10))};
    ASSERT_TRUE(writer.Append(row).ok());
  }
  Bytes valid = *writer.Finish();

  for (int trial = 0; trial < 300; ++trial) {
    Bytes input = trial % 3 == 0 ? RandomBytes(&rng, 2000) : Mutate(valid, &rng);
    auto reader = format::LakeFileReader::Open(input);
    if (!reader.ok()) continue;  // rejected: fine
    // Footer happened to parse; reads must still fail cleanly or succeed.
    for (size_t g = 0; g < reader->num_row_groups(); ++g) {
      auto rows = reader->ReadRowGroup(g);
      (void)rows;  // either outcome acceptable; must not crash
    }
  }
}

/// Overwrite the chunk at `meta` in place with an LZ chunk of the same
/// size that declares `raw_len` and carries `stream` (zero-padded; the LZ
/// decoder ignores bytes after the terminator) under a valid CRC, so the
/// forged length is what reaches the decompressor.
Bytes ForgeLzChunk(Bytes file, const format::ChunkMeta& meta, uint64_t raw_len,
                   const Bytes& stream) {
  Bytes header;
  header.push_back(file[meta.offset]);  // encoding
  header.push_back(static_cast<uint8_t>(codec::Compression::kLz));
  PutVarint64(&header, raw_len);
  const size_t room = meta.size - header.size() - 4;  // data_len + data
  Bytes len_bytes;
  PutVarint64(&len_bytes, room);
  const size_t data_len = room - len_bytes.size();
  len_bytes.clear();
  PutVarint64(&len_bytes, data_len);
  Bytes payload = stream;
  EXPECT_LE(payload.size(), data_len);
  payload.resize(data_len, 0);
  Bytes chunk = header;
  AppendBytes(&chunk, ByteView(len_bytes));
  AppendBytes(&chunk, ByteView(payload));
  PutFixed32(&chunk, Crc32c(ByteView(payload)));
  EXPECT_EQ(chunk.size(), meta.size);
  std::copy(chunk.begin(), chunk.end(), file.begin() + meta.offset);
  return file;
}

TEST(FuzzTest, ForgedChunkRawLenIsRejected) {
  // raw_len sits outside the chunk CRC; a forged one must surface as
  // Corruption, never as an allocation failure.
  format::Schema schema{{"s", format::DataType::kString}};
  format::LakeFileWriter writer(schema);
  for (int i = 0; i < 2000; ++i) {
    format::Row row;
    row.fields = {format::Value("province=guangdong|seq=" +
                                std::to_string(i % 50))};
    ASSERT_TRUE(writer.Append(row).ok());
  }
  Bytes valid = *writer.Finish();
  auto reader = format::LakeFileReader::Open(valid);
  ASSERT_TRUE(reader.ok());
  const format::ChunkMeta meta = reader->row_group(0).columns[0];
  ASSERT_GT(meta.size, 64u);

  Bytes empty_stream;  // [lit 0][match 0]: a valid stream of zero bytes
  PutVarint64(&empty_stream, 0);
  PutVarint64(&empty_stream, 0);
  Bytes long_match;  // [lit 1]['x'][match 2^40][dist 1][lit 0][match 0]
  PutVarint64(&long_match, 1);
  long_match.push_back('x');
  PutVarint64(&long_match, uint64_t{1} << 40);
  PutVarint64(&long_match, 1);
  AppendBytes(&long_match, ByteView(empty_stream));

  const uint64_t kRawLens[] = {uint64_t{1} << 62, uint64_t{1} << 40, 16,
                               ~uint64_t{0}};
  for (const Bytes* stream : {&empty_stream, &long_match}) {
    for (uint64_t raw_len : kRawLens) {
      auto forged = format::LakeFileReader::Open(
          ForgeLzChunk(valid, meta, raw_len, *stream));
      ASSERT_TRUE(forged.ok());
      auto chunk = forged->ReadColumnChunk(0, 0);
      EXPECT_TRUE(chunk.status().IsCorruption())
          << "raw_len " << raw_len << ": " << chunk.status().ToString();
    }
  }
}

TEST(FuzzTest, SliceAndRowDecodersNeverCrash) {
  Random rng(77);
  format::Schema schema{{"x", format::DataType::kDouble},
                        {"y", format::DataType::kString},
                        {"z", format::DataType::kBool}};
  for (int trial = 0; trial < 500; ++trial) {
    Bytes garbage = RandomBytes(&rng, 400);
    (void)stream::DecodeSlice(ByteView(garbage));
    (void)format::DecodeRow(schema, ByteView(garbage));
    kv::WriteBatch batch;
    (void)batch.DecodeFrom(ByteView(garbage));
    (void)table::CommitFile::DecodeFrom(ByteView(garbage));
    (void)table::SnapshotMeta::DecodeFrom(ByteView(garbage));
    (void)table::TableInfo::DecodeFrom(ByteView(garbage));
  }
}

TEST(FuzzTest, MutatedCommitsRoundTripOrReject) {
  Random rng(99);
  table::CommitFile commit;
  commit.commit_seq = 42;
  commit.timestamp = 1656806400;
  for (int i = 0; i < 5; ++i) {
    table::DataFileMeta meta;
    meta.path = "/t/data/f-" + std::to_string(i);
    meta.partition = "p" + std::to_string(i % 2);
    meta.record_count = 100 + i;
    meta.file_bytes = 5000 + i;
    meta.column_stats["c"] = format::ColumnStats{
        format::Value(static_cast<int64_t>(i)),
        format::Value(static_cast<int64_t>(i + 10))};
    commit.added.push_back(meta);
  }
  Bytes valid;
  commit.EncodeTo(&valid);
  // Valid input round-trips.
  auto decoded = table::CommitFile::DecodeFrom(ByteView(valid));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->added.size(), 5u);
  // Mutations either decode to *something* or error; never crash.
  for (int trial = 0; trial < 300; ++trial) {
    Bytes mutated = Mutate(valid, &rng);
    (void)table::CommitFile::DecodeFrom(ByteView(mutated));
  }
}

/// Split SQL into words at spaces, parentheses and commas (the
/// punctuation kept as words of its own): the unit the SQL fuzzer inserts,
/// deletes and replaces.
std::vector<std::string> SqlWords(const std::string& sql) {
  std::vector<std::string> words;
  std::string word;
  for (char c : sql) {
    if (c != ' ' && c != '(' && c != ')' && c != ',') {
      word += c;
      continue;
    }
    if (!word.empty()) words.push_back(std::move(word));
    word.clear();
    if (c != ' ') words.emplace_back(1, c);
  }
  if (!word.empty()) words.push_back(std::move(word));
  return words;
}

TEST(FuzzTest, SqlNeverCrashes) {
  core::StreamLake lake;
  const format::Schema t_schema{{"k", format::DataType::kInt64},
                                {"v", format::DataType::kInt64},
                                {"d", format::DataType::kDouble},
                                {"s", format::DataType::kString}};
  const format::Schema r_schema{{"k", format::DataType::kInt64},
                                {"name", format::DataType::kString}};
  ASSERT_TRUE(lake.lakehouse()
                  .CreateTable("t", t_schema,
                               table::PartitionSpec::Identity("s"))
                  .ok());
  ASSERT_TRUE(
      lake.lakehouse().CreateTable("r", r_schema, table::PartitionSpec()).ok());
  ASSERT_TRUE(lake.Query("INSERT INTO t VALUES (1, 2, 0.5, 'a'), "
                         "(2, 5, 1.5, 'b'), (3, 9, 0.25, 'a')")
                  .ok());
  ASSERT_TRUE(lake.Query("INSERT INTO r VALUES (1, 'x'), (3, 'y')").ok());

  const std::vector<std::string> seeds = {
      "SELECT t.s, r.name FROM t JOIN r ON t.k = r.k WHERE t.v > 3",
      "SELECT * FROM t WHERE k IN (SELECT k FROM r WHERE name = 'x')",
      "SELECT COUNT(*) AS c FROM t WHERE EXISTS "
      "(SELECT * FROM r WHERE r.k = t.k)",
      "SELECT s, COUNT(*) AS c, SUM(d) AS total FROM t GROUP BY s",
      "SELECT k, v FROM t WHERE v BETWEEN 2 AND 8 AND d <= 0.5",
      "SELECT k, s FROM t WHERE s != 'x' ORDER BY k DESC LIMIT 2",
  };
  std::vector<std::string> vocabulary = {
      "SELECT", "FROM", "WHERE", "JOIN", "INNER", "ON", "IN", "EXISTS",
      "GROUP", "ORDER", "BY", "LIMIT", "AND", "BETWEEN", "AS", "DESC",
      "COUNT", "SUM", "MIN", "AVG", "*", ".", "=", "<>", "<=", ">", "(",
      ")", ",", "TRUE", "0", "-1", "1.2.3", "0.5", "'z'", "'", "t", "r",
      "x.k", "t.nosuch", "99999999999999999999", "-99999999999999999999",
      "1" + std::string(400, '0') + ".0", "--"};
  for (const std::string& seed : seeds) {
    auto result = lake.Query(seed);
    ASSERT_TRUE(result.ok()) << seed << ": " << result.status().ToString();
    for (std::string& word : SqlWords(seed)) vocabulary.push_back(word);
  }

  Random rng(4242);
  int planned = 0;
  int succeeded = 0;
  for (const std::string& seed : seeds) {
    const std::vector<std::string> seed_words = SqlWords(seed);
    for (int trial = 0; trial < 5000; ++trial) {
      std::vector<std::string> words = seed_words;
      for (uint64_t n = 1 + rng.Uniform(3); n > 0; --n) {
        const std::string& word = vocabulary[rng.Uniform(vocabulary.size())];
        size_t at = rng.Uniform(words.size() + 1);
        switch (rng.Uniform(3)) {
          case 0:  // insert
            words.insert(words.begin() + static_cast<ptrdiff_t>(at), word);
            break;
          case 1:  // delete
            if (at < words.size()) {
              words.erase(words.begin() + static_cast<ptrdiff_t>(at));
            }
            break;
          case 2:  // replace
            if (at < words.size()) words[at] = word;
            break;
        }
      }
      std::string sql;
      for (const std::string& word : words) sql += word + " ";
      // Any Status is fine; the process must not abort.
      auto parsed = query::ParseSql(sql);
      if (!parsed.ok()) continue;
      ++planned;
      if (lake.lakehouse().Query(*parsed).ok()) ++succeeded;
    }
  }
  // The mutations reach the planner and the runner, not just the parser.
  EXPECT_GT(planned, 1000);
  EXPECT_GT(succeeded, 500);
}

TEST(ConcurrencyTest, ParallelInsertersAndReaders) {
  core::StreamLake lake;
  auto created = lake.lakehouse().CreateTable(
      "t",
      format::Schema{{"k", format::DataType::kInt64},
                     {"p", format::DataType::kString}},
      table::PartitionSpec::Identity("p"));
  ASSERT_TRUE(created.ok());
  table::Table* table = *created;

  constexpr int kWriters = 4;
  constexpr int kBatches = 25;
  constexpr int kRowsPerBatch = 20;
  std::atomic<bool> stop{false};
  std::atomic<int> reader_errors{0};

  std::thread reader([&] {
    // Concurrent reads must always see a consistent snapshot: the count
    // is a multiple of the batch size (commits are atomic).
    while (!stop.load()) {
      query::QuerySpec spec;
      spec.aggregates = {query::AggregateSpec::CountStar()};
      auto result = table->Select(spec);
      if (!result.ok()) {
        ++reader_errors;
        continue;
      }
      int64_t count = std::get<int64_t>(result->rows[0].fields[0]);
      if (count % kRowsPerBatch != 0) ++reader_errors;
    }
  });

  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      for (int b = 0; b < kBatches; ++b) {
        std::vector<format::Row> rows;
        for (int i = 0; i < kRowsPerBatch; ++i) {
          format::Row row;
          row.fields = {format::Value(static_cast<int64_t>(w * 10000 + b)),
                        format::Value("p" + std::to_string(w))};
          rows.push_back(std::move(row));
        }
        ASSERT_TRUE(table->Insert(rows).ok());
      }
    });
  }
  for (auto& t : writers) t.join();
  stop.store(true);
  reader.join();

  EXPECT_EQ(reader_errors.load(), 0);
  query::QuerySpec spec;
  spec.aggregates = {query::AggregateSpec::CountStar()};
  auto final_count = table->Select(spec);
  ASSERT_TRUE(final_count.ok());
  EXPECT_EQ(std::get<int64_t>(final_count->rows[0].fields[0]),
            kWriters * kBatches * kRowsPerBatch);
}

TEST(ConcurrencyTest, ParallelProducersOneConsumerSeesEverything) {
  core::StreamLake lake;
  streaming::TopicConfig config;
  config.stream_num = 4;
  ASSERT_TRUE(lake.dispatcher().CreateTopic("t", config).ok());

  constexpr int kProducers = 4;
  constexpr int kPerProducer = 250;
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      auto producer = lake.NewProducer();
      for (int i = 0; i < kPerProducer; ++i) {
        ASSERT_TRUE(producer
                        .Send("t", streaming::Message(
                                       "key-" + std::to_string(p),
                                       std::to_string(p * 100000 + i)))
                        .ok());
      }
    });
  }
  for (auto& t : producers) t.join();

  auto consumer = lake.NewConsumer("g");
  ASSERT_TRUE(consumer.Subscribe("t").ok());
  auto polled = consumer.Poll(kProducers * kPerProducer + 100);
  ASSERT_TRUE(polled.ok());
  ASSERT_EQ(polled->size(), kProducers * kPerProducer);
  // Per-key order is preserved despite concurrency.
  std::map<std::string, int64_t> last_seen;
  for (const auto& consumed : *polled) {
    int64_t v = std::stoll(consumed.message.value);
    auto it = last_seen.find(consumed.message.key);
    if (it != last_seen.end()) {
      EXPECT_GT(v, it->second);
    }
    last_seen[consumed.message.key] = v;
  }
}

}  // namespace
}  // namespace streamlake
