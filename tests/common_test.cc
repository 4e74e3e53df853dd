#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <set>
#include <thread>
#include <vector>

#include "common/bytes.h"
#include "common/coding.h"
#include "common/hash.h"
#include "common/metrics.h"
#include "common/random.h"
#include "common/result.h"
#include "common/status.h"
#include "common/threadpool.h"

namespace streamlake {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::IOError("disk full");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsIOError());
  EXPECT_EQ(s.code(), StatusCode::kIOError);
  EXPECT_EQ(s.ToString(), "IOError: disk full");
}

TEST(StatusTest, AllFactoryPredicatesMatch) {
  EXPECT_TRUE(Status::NotFound("x").IsNotFound());
  EXPECT_TRUE(Status::AlreadyExists("x").IsAlreadyExists());
  EXPECT_TRUE(Status::InvalidArgument("x").IsInvalidArgument());
  EXPECT_TRUE(Status::Corruption("x").IsCorruption());
  EXPECT_TRUE(Status::NotSupported("x").IsNotSupported());
  EXPECT_TRUE(Status::ResourceExhausted("x").IsResourceExhausted());
  EXPECT_TRUE(Status::Conflict("x").IsConflict());
  EXPECT_TRUE(Status::QuotaExceeded("x").IsQuotaExceeded());
  EXPECT_TRUE(Status::Timeout("x").IsTimeout());
  EXPECT_TRUE(Status::Aborted("x").IsAborted());
  EXPECT_TRUE(Status::OutOfMemory("x").IsOutOfMemory());
}

TEST(StatusTest, ReturnNotOkMacro) {
  auto fails = []() -> Status {
    SL_RETURN_NOT_OK(Status::NotFound("missing"));
    return Status::OK();
  };
  EXPECT_TRUE(fails().IsNotFound());
  auto passes = []() -> Status {
    SL_RETURN_NOT_OK(Status::OK());
    return Status::AlreadyExists("reached end");
  };
  EXPECT_TRUE(passes().IsAlreadyExists());
}

TEST(StatusTest, LogIgnoredCountsErrorsOnly) {
  Counter* ignored =
      MetricsRegistry::Global().GetCounter("common.status.ignored");
  uint64_t before = ignored->Value();
  Status::OK().LogIgnored("noop");  // ok() is silent and uncounted
  EXPECT_EQ(ignored->Value(), before);
  Status::IOError("disk full").LogIgnored("test drop");
  EXPECT_EQ(ignored->Value(), before + 1);
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 7;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 7);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::NotFound("nope");
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsNotFound());
  EXPECT_EQ(std::move(r).ValueOr(-1), -1);
}

TEST(ResultTest, AssignOrReturnMacro) {
  auto inner = [](bool fail) -> Result<int> {
    if (fail) return Status::IOError("io");
    return 5;
  };
  auto outer = [&](bool fail) -> Result<int> {
    SL_ASSIGN_OR_RETURN(int v, inner(fail));
    return v * 2;
  };
  EXPECT_EQ(*outer(false), 10);
  EXPECT_TRUE(outer(true).status().IsIOError());
}

TEST(BytesTest, ViewEqualityAndConversion) {
  Bytes b = ToBytes("hello");
  ByteView v(b);
  EXPECT_EQ(v.size(), 5u);
  EXPECT_EQ(v.ToString(), "hello");
  EXPECT_EQ(v, ByteView(std::string_view("hello")));
  EXPECT_EQ(v.subview(1, 3).ToString(), "ell");
}

TEST(CodingTest, FixedRoundTrip) {
  Bytes b;
  PutFixed32(&b, 0xDEADBEEF);
  PutFixed64(&b, 0x0123456789ABCDEFULL);
  Decoder dec{ByteView(b)};
  uint32_t v32;
  uint64_t v64;
  ASSERT_TRUE(dec.GetFixed32(&v32));
  ASSERT_TRUE(dec.GetFixed64(&v64));
  EXPECT_EQ(v32, 0xDEADBEEF);
  EXPECT_EQ(v64, 0x0123456789ABCDEFULL);
  EXPECT_EQ(dec.Remaining(), 0u);
}

TEST(CodingTest, VarintRoundTripSweep) {
  Bytes b;
  std::vector<uint64_t> values = {0, 1, 127, 128, 16383, 16384,
                                  (1ULL << 32), ~0ULL};
  for (uint64_t v : values) PutVarint64(&b, v);
  Decoder dec{ByteView(b)};
  for (uint64_t expected : values) {
    uint64_t got;
    ASSERT_TRUE(dec.GetVarint(&got));
    EXPECT_EQ(got, expected);
  }
}

TEST(CodingTest, ZigZagRoundTrip) {
  for (int64_t v : {int64_t{0}, int64_t{-1}, int64_t{1}, int64_t{-123456789},
                    INT64_MIN, INT64_MAX}) {
    EXPECT_EQ(ZigZagDecode(ZigZagEncode(v)), v);
  }
}

TEST(CodingTest, LengthPrefixedRoundTrip) {
  Bytes b;
  PutLengthPrefixed(&b, std::string_view("key"));
  PutLengthPrefixed(&b, std::string_view(""));
  PutLengthPrefixed(&b, std::string_view("value with spaces"));
  Decoder dec{ByteView(b)};
  std::string s;
  ASSERT_TRUE(dec.GetString(&s));
  EXPECT_EQ(s, "key");
  ASSERT_TRUE(dec.GetString(&s));
  EXPECT_EQ(s, "");
  ASSERT_TRUE(dec.GetString(&s));
  EXPECT_EQ(s, "value with spaces");
}

TEST(CodingTest, DecoderRejectsTruncatedInput) {
  Bytes b;
  PutLengthPrefixed(&b, std::string_view("abcdef"));
  b.resize(b.size() - 2);  // chop the tail
  Decoder dec{ByteView(b)};
  ByteView out;
  EXPECT_FALSE(dec.GetBytes(&out));

  Bytes varint(10, 0xFF);  // overlong varint never terminates
  Decoder dec2{ByteView(varint)};
  uint64_t v;
  EXPECT_FALSE(dec2.GetVarint(&v));
}

TEST(HashTest, DeterministicAndSeedSensitive) {
  EXPECT_EQ(Hash64("streamlake"), Hash64("streamlake"));
  EXPECT_NE(Hash64("streamlake"), Hash64("streamlakf"));
  EXPECT_NE(Hash64("streamlake", 1), Hash64("streamlake", 2));
}

TEST(HashTest, ShardsSpreadUniformly) {
  // The DHT relies on Hash64 spreading keys across 4096 shards.
  constexpr int kShards = 4096;
  constexpr int kKeys = 200000;
  std::vector<int> counts(kShards, 0);
  for (int i = 0; i < kKeys; ++i) {
    counts[Hash64("key-" + std::to_string(i)) % kShards]++;
  }
  int nonzero = 0;
  int max_count = 0;
  for (int c : counts) {
    if (c > 0) ++nonzero;
    max_count = std::max(max_count, c);
  }
  EXPECT_GT(nonzero, kShards * 95 / 100);
  // Expected ~49 keys per shard; a factor-3 cap catches bad mixing.
  EXPECT_LT(max_count, 3 * kKeys / kShards);
}

TEST(HashTest, Crc32cKnownVector) {
  // Standard test vector: CRC-32C("123456789") = 0xE3069283.
  EXPECT_EQ(Crc32c("123456789"), 0xE3069283u);
  EXPECT_EQ(Crc32c(""), 0u);
}

TEST(HashTest, Crc32cDetectsBitFlip) {
  Bytes data = ToBytes("some payload for a plog record");
  uint32_t before = Crc32c(ByteView(data));
  data[5] ^= 0x01;
  EXPECT_NE(Crc32c(ByteView(data)), before);
}

TEST(HashTest, Crc32cMatchesPortableAtEveryLengthAndOffset) {
  // The word-at-a-time kernel must agree with the bytewise reference on
  // every tail length and every load misalignment.
  Random rng(21);
  Bytes data(1024 + 8);
  for (uint8_t& b : data) b = static_cast<uint8_t>(rng.Uniform(256));
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t len = 0; len <= 1024; ++len) {
      ByteView view(data.data() + offset, len);
      const uint32_t seed = static_cast<uint32_t>(len * 2654435761u);
      ASSERT_EQ(Crc32c(view), internal::Crc32cPortable(view))
          << "offset " << offset << " len " << len;
      ASSERT_EQ(Crc32c(view, seed), internal::Crc32cPortable(view, seed))
          << "offset " << offset << " len " << len;
    }
  }
}

TEST(HashTest, Crc32cChains) {
  Random rng(22);
  Bytes data(777);
  for (uint8_t& b : data) b = static_cast<uint8_t>(rng.Uniform(256));
  const uint32_t whole = Crc32c(ByteView(data));
  for (size_t split : {size_t{0}, size_t{1}, size_t{7}, size_t{8},
                       size_t{300}, data.size()}) {
    ByteView a(data.data(), split);
    ByteView b(data.data() + split, data.size() - split);
    EXPECT_EQ(Crc32c(b, Crc32c(a)), whole) << "split " << split;
  }
}

TEST(RandomTest, DeterministicForSeed) {
  Random a(7), b(7), c(8);
  EXPECT_EQ(a.Next(), b.Next());
  EXPECT_NE(a.Next(), c.Next());
}

TEST(RandomTest, UniformInRange) {
  Random r(1);
  for (int i = 0; i < 1000; ++i) {
    uint64_t v = r.Uniform(10);
    EXPECT_LT(v, 10u);
    int64_t w = r.UniformRange(-5, 5);
    EXPECT_GE(w, -5);
    EXPECT_LE(w, 5);
    double d = r.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RandomTest, ZipfIsSkewedTowardLowRanks) {
  Random r(3);
  constexpr int kDraws = 20000;
  int low = 0;
  for (int i = 0; i < kDraws; ++i) {
    if (r.Zipf(1000) < 100) ++low;  // top 10% of ranks
  }
  // Under uniform sampling we'd expect ~10%; Zipf should concentrate far more.
  EXPECT_GT(low, kDraws / 3);
}

TEST(ThreadPoolTest, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&counter] { counter.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, ShutdownDrainsQueue) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 50; ++i) {
      pool.Submit([&counter] { counter.fetch_add(1); });
    }
    pool.Shutdown();
  }
  EXPECT_EQ(counter.load(), 50);
}

using ThreadPoolDeathTest = ::testing::Test;

TEST(ThreadPoolDeathTest, SubmitAfterShutdownAborts) {
  ThreadPool pool(1, "test.doomed_pool");
  pool.Shutdown();
  // The task would silently never run; that is a caller lifetime bug, so
  // Submit must fail loudly with a report naming the pool.
  EXPECT_DEATH(pool.Submit([] {}),
               "ThreadPool misuse.*test\\.doomed_pool");
}

TEST(ParallelForTest, RunsEachIndexExactlyOnce) {
  ThreadPool pool(4);
  constexpr size_t kN = 1000;
  std::vector<std::atomic<int>> runs(kN);
  ParallelFor(&pool, kN, [&runs](size_t i) { runs[i].fetch_add(1); });
  for (size_t i = 0; i < kN; ++i) {
    EXPECT_EQ(runs[i].load(), 1) << "index " << i;
  }
}

TEST(ParallelForTest, RunsInlineWithoutPoolOrForOneIndex) {
  ThreadPool pool(2);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<size_t> order;
  auto record = [&](size_t i) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    order.push_back(i);
  };
  ParallelFor(nullptr, 3, record);
  EXPECT_EQ(order, (std::vector<size_t>{0, 1, 2}));
  ParallelFor(&pool, 1, record);
  EXPECT_EQ(order, (std::vector<size_t>{0, 1, 2, 0}));
  ParallelFor(&pool, 0, [](size_t) { ADD_FAILURE() << "no index to run"; });
}

TEST(ParallelForTest, CallersSharingAPoolWaitOnlyForTheirOwnTasks) {
  ThreadPool pool(2);
  std::promise<void> a_started;
  std::promise<void> release_a;
  std::shared_future<void> released = release_a.get_future().share();
  std::atomic<bool> a_done{false};
  std::thread a([&] {
    ParallelFor(&pool, 2, [&](size_t i) {
      if (i != 0) return;
      a_started.set_value();
      released.wait();
    });
    a_done = true;
  });
  // A's first task now blocks one of the two workers.
  a_started.get_future().wait();
  auto b = std::async(std::launch::async, [&pool] {
    std::atomic<int> ran{0};
    ParallelFor(&pool, 4, [&ran](size_t) { ran.fetch_add(1); });
    return ran.load();
  });
  // B's tasks run on the other worker, and B returns without waiting for
  // A's blocked task.
  bool b_returned =
      b.wait_for(std::chrono::seconds(30)) == std::future_status::ready;
  EXPECT_TRUE(b_returned);
  EXPECT_FALSE(a_done.load());
  release_a.set_value();
  a.join();
  EXPECT_TRUE(a_done.load());
  EXPECT_EQ(b.get(), 4);
}

}  // namespace
}  // namespace streamlake
