#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "codec/compression.h"
#include "codec/encoding.h"
#include "common/coding.h"
#include "common/hash.h"
#include "common/random.h"
#include "workload/dpi_log.h"
#include "workload/tpch.h"

namespace streamlake::codec {
namespace {

class CompressionRoundTrip : public ::testing::TestWithParam<Compression> {};

TEST_P(CompressionRoundTrip, EmptyInput) {
  Bytes in;
  Bytes compressed = Compress(GetParam(), ByteView(in));
  auto out = Decompress(GetParam(), ByteView(compressed), 0);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_TRUE(out->empty());
}

TEST_P(CompressionRoundTrip, RepetitiveText) {
  std::string s;
  for (int i = 0; i < 500; ++i) s += "the quick brown fox jumps ";
  Bytes in = ToBytes(s);
  Bytes compressed = Compress(GetParam(), ByteView(in));
  auto out = Decompress(GetParam(), ByteView(compressed), in.size());
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(*out, in);
}

TEST_P(CompressionRoundTrip, RandomBytes) {
  Random rng(11);
  Bytes in;
  for (int i = 0; i < 10000; ++i) {
    in.push_back(static_cast<uint8_t>(rng.Uniform(256)));
  }
  Bytes compressed = Compress(GetParam(), ByteView(in));
  auto out = Decompress(GetParam(), ByteView(compressed), in.size());
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(*out, in);
}

TEST_P(CompressionRoundTrip, LongRuns) {
  Bytes in(100000, 0x7A);
  Bytes compressed = Compress(GetParam(), ByteView(in));
  auto out = Decompress(GetParam(), ByteView(compressed), in.size());
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(*out, in);
}

INSTANTIATE_TEST_SUITE_P(AllCodecs, CompressionRoundTrip,
                         ::testing::Values(Compression::kNone,
                                           Compression::kLz));

TEST(LzTest, CompressesRepetitiveDataWell) {
  std::string s;
  for (int i = 0; i < 1000; ++i) s += "province=guangdong|url=http://a.com|";
  Bytes in = ToBytes(s);
  Bytes compressed = Compress(Compression::kLz, ByteView(in));
  EXPECT_LT(compressed.size() * 5, in.size());  // at least 5x on logs
}

TEST(LzTest, DecompressRejectsCorruptStream) {
  Bytes in = ToBytes(std::string(4096, 'q') + "tail variation 123");
  Bytes compressed = Compress(Compression::kLz, ByteView(in));
  // Wrong expected size must be detected.
  EXPECT_TRUE(Decompress(Compression::kLz, ByteView(compressed), in.size() + 1)
                  .status()
                  .IsCorruption());
  // Truncated stream must be detected.
  Bytes truncated(compressed.begin(), compressed.begin() + compressed.size() / 2);
  EXPECT_FALSE(
      Decompress(Compression::kLz, ByteView(truncated), in.size()).ok());
}

TEST(LzTest, DecompressRejectsForgedUncompressedSize) {
  // A valid stream with an absurd expected size: nothing may be reserved
  // beyond what the stream can expand to.
  Bytes in = ToBytes(std::string(4096, 'q') + "tail variation 123");
  Bytes compressed = Compress(Compression::kLz, ByteView(in));
  EXPECT_TRUE(Decompress(Compression::kLz, ByteView(compressed),
                         size_t{1} << 62)
                  .status()
                  .IsCorruption());
}

TEST(LzTest, DecompressRejectsTokensBeyondExpectedSize) {
  // [lit 1]['x'][match_len 2^40][dist 1]: the match must be refused before
  // any byte of it is produced.
  Bytes stream;
  PutVarint64(&stream, 1);
  stream.push_back('x');
  PutVarint64(&stream, uint64_t{1} << 40);
  PutVarint64(&stream, 1);
  EXPECT_TRUE(
      Decompress(Compression::kLz, ByteView(stream), 16).status().IsCorruption());
  // The same holds when the match fits the expected size but is longer
  // than any match Compress emits.
  Bytes long_match;
  PutVarint64(&long_match, 1);
  long_match.push_back('x');
  PutVarint64(&long_match, (uint64_t{1} << 16) + 1);
  PutVarint64(&long_match, 1);
  PutVarint64(&long_match, 0);
  PutVarint64(&long_match, 0);
  EXPECT_TRUE(Decompress(Compression::kLz, ByteView(long_match),
                         (size_t{1} << 16) + 2)
                  .status()
                  .IsCorruption());
  // Literals beyond the expected size.
  Bytes literals;
  PutVarint64(&literals, 8);
  literals.insert(literals.end(), 8, 'y');
  PutVarint64(&literals, 0);
  EXPECT_TRUE(Decompress(Compression::kLz, ByteView(literals), 4)
                  .status()
                  .IsCorruption());
}

// Inputs of the frozen token streams below.
Bytes GoldenLogLines() {
  std::string s;
  for (int i = 0; i < 3000; ++i) {
    s += "ts=" + std::to_string(1656806400 + i) +
         " level=INFO module=dpi url=http://a.com/" + std::to_string(i % 97) +
         " msg=packet accepted\n";
  }
  return ToBytes(s);
}

Bytes GoldenPrintableText() {
  Random rng(7);
  Bytes out(100000);
  for (uint8_t& b : out) b = static_cast<uint8_t>(32 + rng.Uniform(95));
  return out;
}

// A 200000-byte run (longer than the window and than the longest match),
// then one random block repeated at distances 65536 (inside the window),
// 65537 and 70000 (outside), then another run.
Bytes GoldenLongRuns() {
  Random rng(8);
  Bytes block(4096);
  for (uint8_t& b : block) b = static_cast<uint8_t>(rng.Uniform(256));
  Bytes out(200000, 'z');
  for (size_t gap : {65536 - 4096, 65537 - 4096, 70000}) {
    out.insert(out.end(), block.begin(), block.end());
    for (size_t i = 0; i < gap; ++i) {
      out.push_back(static_cast<uint8_t>(rng.Uniform(256)));
    }
  }
  out.insert(out.end(), block.begin(), block.end());
  out.insert(out.end(), 70000, 'q');
  return out;
}

TEST(LzTest, TokenStreamIsFrozen) {
  // Compressed bytes are stored on disk, so the parse must never drift:
  // (size, CRC-32C) of Compress output, recorded from the byte-at-a-time
  // matcher.
  const struct {
    const char* name;
    Bytes input;
    size_t size;
    uint32_t crc;
  } kCases[] = {
      {"logs", GoldenLogLines(), 25374, 0xb8ad24e5u},
      {"printable", GoldenPrintableText(), 100046, 0xc7255047u},
      {"runs", GoldenLongRuns(), 205238, 0x41af7761u},
  };
  for (const auto& c : kCases) {
    Bytes compressed = Compress(Compression::kLz, ByteView(c.input));
    EXPECT_EQ(compressed.size(), c.size) << c.name;
    EXPECT_EQ(Crc32c(ByteView(compressed)), c.crc) << c.name;
    auto out = Decompress(Compression::kLz, ByteView(compressed),
                          c.input.size());
    ASSERT_TRUE(out.ok()) << c.name << ": " << out.status().ToString();
    EXPECT_EQ(*out, c.input) << c.name;
  }

  // Sizes 0-9 of a one-byte run and of a period-3 pattern.
  const uint32_t kRunCrc[] = {0xf16177d2u, 0x561b8c75u, 0xe75e3c84u,
                              0xbcd973d7u, 0x40af4ebeu, 0x7291044bu,
                              0xafd4aef3u, 0xcdf627cau, 0x10b38d72u,
                              0xfff7565eu};
  const size_t kRunSize[] = {2, 3, 4, 5, 6, 6, 6, 6, 6, 6};
  const uint32_t kPatternCrc[] = {0xf16177d2u, 0x561b8c75u, 0xd3b9941du,
                                  0x71b2834au, 0x6de2958au, 0x74de9ba4u,
                                  0x58e7a585u, 0xdd39eec4u, 0x007c447cu,
                                  0x625ecd45u};
  const size_t kPatternSize[] = {2, 3, 4, 5, 6, 7, 8, 8, 8, 8};
  for (size_t n = 0; n <= 9; ++n) {
    Bytes run = Compress(Compression::kLz,
                         ByteView(std::string("aaaaaaaaa").substr(0, n)));
    EXPECT_EQ(run.size(), kRunSize[n]) << "run " << n;
    EXPECT_EQ(Crc32c(ByteView(run)), kRunCrc[n]) << "run " << n;
    Bytes pattern = Compress(Compression::kLz,
                             ByteView(std::string("abcabcabc").substr(0, n)));
    EXPECT_EQ(pattern.size(), kPatternSize[n]) << "pattern " << n;
    EXPECT_EQ(Crc32c(ByteView(pattern)), kPatternCrc[n]) << "pattern " << n;
  }
}

// Each thread reuses one match table across calls, so a call's output must
// not depend on what the thread compressed before: every input compresses
// to the bytes a first call on a fresh thread produces.
Bytes CompressOnFreshThread(const Bytes& input) {
  Bytes out;
  std::thread([&] { out = Compress(Compression::kLz, ByteView(input)); })
      .join();
  return out;
}

TEST(LzTest, OutputIsIndependentOfCallHistory) {
  const Bytes logs = GoldenLogLines();
  ASSERT_GE(logs.size(), size_t{64} << 10);
  const std::vector<Bytes> inputs = {
      Bytes(logs.begin(), logs.begin() + 256),
      Bytes(logs.begin(), logs.begin() + 1024),
      Bytes(logs.begin() + 100, logs.begin() + 4196),
      GoldenPrintableText(),
      GoldenLongRuns(),
      logs,
      Bytes(),
  };
  std::vector<Bytes> expected;
  expected.reserve(inputs.size());
  for (const Bytes& in : inputs) expected.push_back(CompressOnFreshThread(in));
  auto matches = [&](size_t i) {
    return Compress(Compression::kLz, ByteView(inputs[i])) == expected[i];
  };

  std::thread([&] {
    for (size_t i = 0; i < inputs.size(); ++i) {
      // After a >= 64 KiB input that shares every input's content.
      Compress(Compression::kLz, ByteView(logs));
      EXPECT_TRUE(matches(i)) << "after 64 KiB, input " << i;
      // After an empty input.
      Compress(Compression::kLz, ByteView());
      EXPECT_TRUE(matches(i)) << "after empty, input " << i;
      // The same input twice in a row.
      EXPECT_TRUE(matches(i)) << "repeated, input " << i;
    }
    // Interleaved with the other inputs, in both orders.
    for (int round = 0; round < 3; ++round) {
      for (size_t k = 0; k < inputs.size(); ++k) {
        const size_t i = round % 2 == 0 ? k : inputs.size() - 1 - k;
        EXPECT_TRUE(matches(i)) << "interleaved, input " << i;
      }
    }
    // Once the positions of earlier calls pass 4 GiB the table restarts
    // (empty calls are enough to get there).
    for (int i = 0; i < 70000; ++i) Compress(Compression::kLz, ByteView());
    for (size_t i = 0; i < inputs.size(); ++i) {
      EXPECT_TRUE(matches(i)) << "after the restart, input " << i;
    }
  }).join();

  // Four threads at once, each cycling through the inputs from its own
  // starting point.
  std::vector<int> mismatches(4, 0);
  std::vector<std::thread> threads;
  threads.reserve(mismatches.size());
  for (size_t t = 0; t < mismatches.size(); ++t) {
    threads.emplace_back([&, t] {
      for (size_t round = 0; round < 3 * inputs.size(); ++round) {
        if (!matches((t + round) % inputs.size())) ++mismatches[t];
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (size_t t = 0; t < mismatches.size(); ++t) {
    EXPECT_EQ(mismatches[t], 0) << "thread " << t;
  }
}

// One province's payload column chunk of a conversion of `rows` DPI
// messages, as a LakeFile group holds it before compression: the null
// count, then the plain-encoded payloads of the rows whose province is the
// first row's.
Bytes DpiPayloadChunk(size_t rows) {
  workload::DpiLogGenerator gen;
  const std::vector<format::Row> batch = gen.NextBatch(rows);
  const format::Value& province = batch.front().fields[2];
  std::vector<std::string> payloads;
  for (const format::Row& row : batch) {
    if (row.fields[2] == province) {
      payloads.push_back(std::get<std::string>(row.fields[5]));
    }
  }
  Bytes chunk;
  PutVarint64(&chunk, 0);
  EncodeStrings(payloads, Encoding::kPlain, &chunk);
  return chunk;
}

// The columns of 450 TPC-H lineitem rows, each plain-encoded as a chunk.
std::vector<Bytes> TpchColumnChunks() {
  workload::TpchLineitemGenerator gen;
  const std::vector<format::Row> rows = gen.NextBatch(450);
  const format::Schema schema = workload::TpchLineitemGenerator::Schema();
  std::vector<Bytes> chunks;
  for (size_t c = 0; c < schema.num_fields(); ++c) {
    Bytes chunk;
    PutVarint64(&chunk, 0);
    switch (schema.field(c).type) {
      case format::DataType::kInt64: {
        std::vector<int64_t> values;
        for (const format::Row& row : rows) {
          values.push_back(std::get<int64_t>(row.fields[c]));
        }
        EncodeInt64s(values, Encoding::kPlain, &chunk);
        break;
      }
      case format::DataType::kDouble: {
        std::vector<double> values;
        for (const format::Row& row : rows) {
          values.push_back(std::get<double>(row.fields[c]));
        }
        EncodeDoubles(values, &chunk);
        break;
      }
      case format::DataType::kString: {
        std::vector<std::string> values;
        for (const format::Row& row : rows) {
          values.push_back(std::get<std::string>(row.fields[c]));
        }
        EncodeStrings(values, Encoding::kPlain, &chunk);
        break;
      }
      case format::DataType::kBool:
      case format::DataType::kNull:
        ADD_FAILURE() << "lineitem has no column of type "
                      << format::DataTypeName(schema.field(c).type);
        break;
    }
    chunks.push_back(std::move(chunk));
  }
  return chunks;
}

// Whether Compress runs the eight-position parse on this CPU.
bool CpuRunsVectorParse() {
#if defined(__x86_64__)
  __builtin_cpu_init();
  return __builtin_cpu_supports("avx512f") &&
         __builtin_cpu_supports("avx512vl") &&
         __builtin_cpu_supports("avx512cd") &&
         __builtin_cpu_supports("avx512bw") &&
         __builtin_cpu_supports("avx512vbmi");
#else
  return false;
#endif
}

TEST(LzTest, VectorParseEqualsPortable) {
  std::printf("LZ parse under test: %s\n",
              CpuRunsVectorParse()
                  ? "eight positions per step (AVX-512)"
                  : "one position per step (no AVX-512 VBMI: both calls "
                    "run the portable loop)");
  std::vector<std::pair<std::string, Bytes>> inputs;
  Random rng(41);
  Bytes random(100000);
  for (uint8_t& b : random) b = static_cast<uint8_t>(rng.Uniform(256));
  inputs.emplace_back("random", std::move(random));
  inputs.emplace_back("printable", GoldenPrintableText());
  Bytes two_letters(70000);
  for (uint8_t& b : two_letters) b = rng.OneIn(2) ? 'a' : 'b';
  inputs.emplace_back("two letters", std::move(two_letters));
  inputs.emplace_back("runs", GoldenLongRuns());
  Bytes period3(20000);
  for (size_t i = 0; i < period3.size(); ++i) period3[i] = "xyz"[i % 3];
  inputs.emplace_back("period 3", std::move(period3));
  inputs.emplace_back("dpi payload", DpiPayloadChunk(5000));
  const std::vector<Bytes> tpch = TpchColumnChunks();
  for (size_t c = 0; c < tpch.size(); ++c) {
    inputs.emplace_back("tpch column " + std::to_string(c), tpch[c]);
  }

  // Every length 0-64, and the whole input and 15-17 bytes short of it, so
  // that the last 16 bytes, where the vector steps stop and the
  // one-position loop takes over, start on different content.
  size_t calls = 0;
  for (const auto& [name, data] : inputs) {
    std::vector<size_t> lengths;
    for (size_t len = 0; len <= 64 && len <= data.size(); ++len) {
      lengths.push_back(len);
    }
    for (size_t back : {17, 16, 15, 0}) {
      if (data.size() >= back + 65) lengths.push_back(data.size() - back);
    }
    for (size_t len : lengths) {
      const ByteView view(data.data(), len);
      // Both parses share the thread's table; alternating which runs
      // first gives each call a different table history.
      Bytes vector;
      Bytes portable;
      if (++calls % 2 == 0) {
        vector = Compress(Compression::kLz, view);
        portable = internal::LzCompressPortable(view);
      } else {
        portable = internal::LzCompressPortable(view);
        vector = Compress(Compression::kLz, view);
      }
      ASSERT_EQ(vector, portable) << name << ", length " << len;
    }
    const Bytes full = Compress(Compression::kLz, ByteView(data));
    auto out = Decompress(Compression::kLz, ByteView(full), data.size());
    ASSERT_TRUE(out.ok()) << name << ": " << out.status().ToString();
    EXPECT_EQ(*out, data) << name;
  }
}

TEST(Int64EncodingTest, PlainDeltaRleRoundTrip) {
  std::vector<int64_t> sorted;
  std::vector<int64_t> runs;
  std::vector<int64_t> random_vals;
  Random rng(5);
  for (int i = 0; i < 1000; ++i) {
    sorted.push_back(1656806400 + i * 3);
    runs.push_back(i / 100);
    random_vals.push_back(static_cast<int64_t>(rng.Next()) >> 8);
  }
  for (Encoding e : {Encoding::kPlain, Encoding::kDelta, Encoding::kRle}) {
    for (const auto& vals : {sorted, runs}) {
      Bytes buf;
      EncodeInt64s(vals, e, &buf);
      auto decoded = DecodeInt64s(ByteView(buf), e, vals.size());
      ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
      EXPECT_EQ(*decoded, vals);
    }
  }
  Bytes buf;
  EncodeInt64s(random_vals, Encoding::kPlain, &buf);
  auto decoded = DecodeInt64s(ByteView(buf), Encoding::kPlain,
                              random_vals.size());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, random_vals);
}

TEST(Int64EncodingTest, ChooserPrefersDeltaForSorted) {
  std::vector<int64_t> sorted;
  for (int i = 0; i < 1000; ++i) sorted.push_back(i * 17);
  EXPECT_EQ(ChooseInt64Encoding(sorted), Encoding::kDelta);
}

TEST(Int64EncodingTest, ChooserPrefersRleForRuns) {
  std::vector<int64_t> runs(1000, 42);
  EXPECT_EQ(ChooseInt64Encoding(runs), Encoding::kRle);
}

TEST(Int64EncodingTest, ChooserPrefersPlainForRandom) {
  Random rng(6);
  std::vector<int64_t> random_vals;
  for (int i = 0; i < 1000; ++i) {
    random_vals.push_back(static_cast<int64_t>(rng.Next()));
  }
  EXPECT_EQ(ChooseInt64Encoding(random_vals), Encoding::kPlain);
}

TEST(Int64EncodingTest, DeltaBeatsPlainOnTimestamps) {
  std::vector<int64_t> ts;
  for (int i = 0; i < 10000; ++i) ts.push_back(1656806400LL * 1000 + i * 7);
  Bytes plain, delta;
  EncodeInt64s(ts, Encoding::kPlain, &plain);
  EncodeInt64s(ts, Encoding::kDelta, &delta);
  EXPECT_LT(delta.size() * 2, plain.size());
}

TEST(Int64EncodingTest, RleRejectsBadRuns) {
  Bytes buf;
  PutVarint64Signed(&buf, 7);
  PutVarint64(&buf, 100);  // run longer than requested count
  EXPECT_TRUE(DecodeInt64s(ByteView(buf), Encoding::kRle, 5)
                  .status()
                  .IsCorruption());
}

TEST(DoubleEncodingTest, RoundTrip) {
  std::vector<double> vals = {0.0, -1.5, 3.14159, 1e300, -1e-300};
  Bytes buf;
  EncodeDoubles(vals, &buf);
  auto decoded = DecodeDoubles(ByteView(buf), vals.size());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, vals);
}

TEST(StringEncodingTest, PlainAndDictRoundTrip) {
  std::vector<std::string> provinces;
  Random rng(7);
  const std::vector<std::string> kNames = {"beijing", "shanghai", "guangdong",
                                           "sichuan", "hubei"};
  for (int i = 0; i < 500; ++i) {
    provinces.push_back(kNames[rng.Uniform(kNames.size())]);
  }
  for (Encoding e : {Encoding::kPlain, Encoding::kDict}) {
    Bytes buf;
    EncodeStrings(provinces, e, &buf);
    auto decoded = DecodeStrings(ByteView(buf), e, provinces.size());
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(*decoded, provinces);
  }
}

TEST(StringEncodingTest, DictMuchSmallerForLowCardinality) {
  std::vector<std::string> vals(2000, "http://streamlake_fin_app.com");
  Bytes plain, dict;
  EncodeStrings(vals, Encoding::kPlain, &plain);
  EncodeStrings(vals, Encoding::kDict, &dict);
  EXPECT_LT(dict.size() * 10, plain.size());
  EXPECT_EQ(ChooseStringEncoding(vals), Encoding::kDict);
}

TEST(StringEncodingTest, ChooserPrefersPlainForHighCardinality) {
  Random rng(8);
  std::vector<std::string> vals;
  for (int i = 0; i < 200; ++i) vals.push_back(rng.NextString(12));
  EXPECT_EQ(ChooseStringEncoding(vals), Encoding::kPlain);
}

TEST(BoolEncodingTest, RoundTripOddCount) {
  std::vector<uint8_t> vals;
  Random rng(9);
  for (int i = 0; i < 77; ++i) vals.push_back(rng.OneIn(2) ? 1 : 0);
  Bytes buf;
  EncodeBools(vals, &buf);
  EXPECT_EQ(buf.size(), 10u);  // ceil(77/8)
  auto decoded = DecodeBools(ByteView(buf), vals.size());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, vals);
}

// Property test: random int64 columns round-trip under the chooser-selected
// encoding.
TEST(EncodingProperty, ChooserSelectedEncodingAlwaysRoundTrips) {
  Random rng(10);
  for (int trial = 0; trial < 30; ++trial) {
    std::vector<int64_t> vals;
    size_t n = 1 + rng.Uniform(2000);
    int mode = static_cast<int>(rng.Uniform(3));
    int64_t cur = static_cast<int64_t>(rng.Uniform(1000000));
    for (size_t i = 0; i < n; ++i) {
      if (mode == 0) {
        cur += static_cast<int64_t>(rng.Uniform(100));  // sorted-ish
      } else if (mode == 1) {
        if (rng.OneIn(50)) cur = static_cast<int64_t>(rng.Uniform(10));  // runs
      } else {
        cur = static_cast<int64_t>(rng.Next());  // random
      }
      vals.push_back(cur);
    }
    Encoding e = ChooseInt64Encoding(vals);
    Bytes buf;
    EncodeInt64s(vals, e, &buf);
    auto decoded = DecodeInt64s(ByteView(buf), e, vals.size());
    ASSERT_TRUE(decoded.ok()) << "trial " << trial;
    EXPECT_EQ(*decoded, vals) << "trial " << trial;
  }
}

}  // namespace
}  // namespace streamlake::codec
