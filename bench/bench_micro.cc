// Google-benchmark microbenchmarks of StreamLake's building blocks:
// checksums, compression, encodings, erasure coding, KV, PLog appends,
// stream-object appends, LakeFile scans, and a GROUP BY Select. These back
// the cost-model calibration and catch performance regressions in the hot
// paths.

#include <benchmark/benchmark.h>

#include "bench_report.h"
#include "codec/compression.h"
#include "codec/encoding.h"
#include "common/hash.h"
#include "common/mutex.h"
#include "common/random.h"
#include "format/lakefile.h"
#include "kv/kv_store.h"
#include "storage/erasure_coding.h"
#include "storage/plog_store.h"
#include "stream/stream_object.h"
#include "table/block_cache.h"
#include "table/lakehouse.h"
#include "workload/dpi_log.h"
#include "workload/tpch.h"

namespace streamlake {
namespace {

Bytes RandomBytes(size_t n, uint64_t seed = 1) {
  Random rng(seed);
  Bytes out(n);
  for (size_t i = 0; i < n; ++i) {
    out[i] = static_cast<uint8_t>(rng.Uniform(256));
  }
  return out;
}

void BM_Crc32c(benchmark::State& state) {
  Bytes data = RandomBytes(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(Crc32c(ByteView(data)));
  }
  state.SetBytesProcessed(state.iterations() * data.size());
}
BENCHMARK(BM_Crc32c)->Arg(1024)->Arg(64 << 10);

void BM_Hash64(benchmark::State& state) {
  Bytes data = RandomBytes(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(Hash64(ByteView(data)));
  }
  state.SetBytesProcessed(state.iterations() * data.size());
}
BENCHMARK(BM_Hash64)->Arg(16)->Arg(1024);

// Log-like repetitive text.
Bytes LogText(size_t n) {
  std::string s;
  while (s.size() < n) {
    s += "ts=1656806400 level=INFO module=dpi msg=packet accepted ";
  }
  return ToBytes(s);
}

void BM_LzCompressLogs(benchmark::State& state) {
  Bytes data = LogText(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        codec::Compress(codec::Compression::kLz, ByteView(data)));
  }
  state.SetBytesProcessed(state.iterations() * data.size());
}
// The small sizes are typical LakeFile column chunks, where a per-call
// fixed cost (such as clearing the match table) would show.
BENCHMARK(BM_LzCompressLogs)
    ->Arg(256)
    ->Arg(1 << 10)
    ->Arg(4 << 10)
    ->Arg(64 << 10);

void BM_LzCompressRandomText(benchmark::State& state) {
  // Printable random bytes, like the DPI payload column: essentially
  // incompressible, so nearly every position is a rejected candidate.
  Random rng(3);
  Bytes data(state.range(0));
  for (uint8_t& b : data) b = static_cast<uint8_t>('!' + rng.Uniform(94));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        codec::Compress(codec::Compression::kLz, ByteView(data)));
  }
  state.SetBytesProcessed(state.iterations() * data.size());
}
BENCHMARK(BM_LzCompressRandomText)->Arg(64 << 10);

void BM_LzDecompress(benchmark::State& state) {
  Bytes data = LogText(state.range(0));
  Bytes compressed = codec::Compress(codec::Compression::kLz, ByteView(data));
  for (auto _ : state) {
    benchmark::DoNotOptimize(codec::Decompress(
        codec::Compression::kLz, ByteView(compressed), data.size()));
  }
  state.SetBytesProcessed(state.iterations() * data.size());
}
BENCHMARK(BM_LzDecompress)->Arg(64 << 10);

void BM_ReedSolomonEncode(benchmark::State& state) {
  storage::ReedSolomon rs(8, static_cast<int>(state.range(0)));
  Bytes data = RandomBytes(256 << 10);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rs.Encode(ByteView(data)));
  }
  state.SetBytesProcessed(state.iterations() * data.size());
}
BENCHMARK(BM_ReedSolomonEncode)->Arg(1)->Arg(2)->Arg(4);

void BM_ReedSolomonDecodeWithLoss(benchmark::State& state) {
  storage::ReedSolomon rs(8, 2);
  Bytes data = RandomBytes(256 << 10);
  std::vector<Bytes> shards = rs.Encode(ByteView(data));
  std::vector<std::optional<Bytes>> in(shards.begin(), shards.end());
  in[0] = std::nullopt;
  in[5] = std::nullopt;
  for (auto _ : state) {
    benchmark::DoNotOptimize(rs.Decode(in, data.size()));
  }
  state.SetBytesProcessed(state.iterations() * data.size());
}
BENCHMARK(BM_ReedSolomonDecodeWithLoss);

void BM_Int64Encoding(benchmark::State& state) {
  std::vector<int64_t> values;
  for (int i = 0; i < 8192; ++i) values.push_back(1656806400 + i * 3);
  auto encoding = static_cast<codec::Encoding>(state.range(0));
  for (auto _ : state) {
    Bytes out;
    codec::EncodeInt64s(values, encoding, &out);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() * values.size());
}
BENCHMARK(BM_Int64Encoding)
    ->Arg(static_cast<int>(codec::Encoding::kPlain))
    ->Arg(static_cast<int>(codec::Encoding::kDelta))
    ->Arg(static_cast<int>(codec::Encoding::kRle));

void BM_KvPut(benchmark::State& state) {
  kv::KvStore store;
  uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        store.Put("key-" + std::to_string(i++ % 100000), "value"));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_KvPut);

void BM_KvGet(benchmark::State& state) {
  kv::KvStore store;
  for (int i = 0; i < 10000; ++i) {
    SL_CHECK_OK(store.Put("key-" + std::to_string(i), "value-" + std::to_string(i)));
  }
  uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(store.Get("key-" + std::to_string(i++ % 10000)));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_KvGet);

struct PlogBench {
  sim::SimClock clock;
  storage::StoragePool pool{"ssd", sim::MediaType::kNvmeSsd, &clock};
  std::unique_ptr<storage::PlogStore> store;

  explicit PlogBench(storage::RedundancyConfig redundancy) {
    pool.AddCluster(6, 2, 8ULL << 30);
    storage::PlogStoreConfig config;
    config.num_shards = 8;
    config.plog.capacity = 256ULL << 20;
    config.plog.redundancy = redundancy;
    store = std::make_unique<storage::PlogStore>(&pool, config, &clock);
  }
};

void BM_PlogAppendReplication(benchmark::State& state) {
  PlogBench bench(storage::RedundancyConfig::Replication(3));
  Bytes record = RandomBytes(state.range(0));
  uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(bench.store->Append(i++ % 8, ByteView(record)));
  }
  state.SetBytesProcessed(state.iterations() * record.size());
}
BENCHMARK(BM_PlogAppendReplication)->Arg(1024)->Arg(256 << 10);

void BM_PlogAppendErasureCoded(benchmark::State& state) {
  PlogBench bench(storage::RedundancyConfig::ErasureCoding(4, 2));
  Bytes record = RandomBytes(state.range(0));
  uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(bench.store->Append(i++ % 8, ByteView(record)));
  }
  state.SetBytesProcessed(state.iterations() * record.size());
}
BENCHMARK(BM_PlogAppendErasureCoded)->Arg(1024)->Arg(256 << 10);

void BM_StreamObjectAppend(benchmark::State& state) {
  PlogBench bench(storage::RedundancyConfig::Replication(3));
  kv::KvStore index;
  stream::StreamObjectManager manager(bench.store.get(), &index, &bench.clock);
  uint64_t id = *manager.CreateObject({});
  stream::StreamObject* object = manager.GetObject(id);
  for (auto _ : state) {
    std::vector<stream::StreamRecord> batch(1);
    batch[0].key = "key";
    batch[0].value = Bytes(1024, 'v');
    benchmark::DoNotOptimize(object->Append(std::move(batch)));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StreamObjectAppend);

void BM_LakeFileWriteScan(benchmark::State& state) {
  workload::DpiLogGenerator gen;
  std::vector<format::Row> rows = gen.NextBatch(4096);
  for (auto _ : state) {
    format::LakeFileWriter writer(workload::DpiLogGenerator::Schema());
    SL_CHECK_OK(writer.AppendBatch(rows));
    auto file = writer.Finish();
    auto reader = format::LakeFileReader::Open(std::move(*file));
    benchmark::DoNotOptimize(reader->ReadAll());
  }
  state.SetItemsProcessed(state.iterations() * rows.size());
}
BENCHMARK(BM_LakeFileWriteScan);

// One data file of a 500-row TPC-H lineitem batch, the shape of a
// lakehouse_mixed insert: the bytes and the file-level stats, encoded from
// the caller's rows in place.
void BM_LakeFileWrite(benchmark::State& state) {
  workload::TpchLineitemGenerator gen;
  const std::vector<format::Row> rows = gen.NextBatch(500);
  std::vector<const format::Row*> pointers;
  pointers.reserve(rows.size());
  for (const format::Row& row : rows) pointers.push_back(&row);
  const format::Schema schema = workload::TpchLineitemGenerator::Schema();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        format::EncodeLakeFile(schema, pointers, format::LakeFileOptions()));
  }
  state.SetItemsProcessed(state.iterations() * rows.size());
}
BENCHMARK(BM_LakeFileWrite);

// The per-query CPU of a warm aggregate Select: GROUP BY a dictionary
// column over a 4-file TPC-H lineitem table whose decoded chunks all sit
// in the block cache, so the time is filter + aggregate, not I/O.
void BM_SelectGroupBy(benchmark::State& state) {
  sim::SimClock clock;
  storage::StoragePool pool{"ssd", sim::MediaType::kNvmeSsd, &clock};
  pool.AddCluster(3, 2, 512 << 20);
  sim::NetworkModel compute_link{sim::NetworkProfile::Rdma(), &clock};
  storage::PlogStoreConfig config;
  config.num_shards = 8;
  config.plog.capacity = 64 << 20;
  config.plog.redundancy = storage::RedundancyConfig::Replication(3);
  storage::PlogStore plogs(&pool, config, &clock);
  kv::KvStore object_index;
  kv::KvStore meta_cache;
  storage::ObjectStore objects(&plogs, &object_index);
  table::MetadataStore meta(&objects, &meta_cache,
                            table::MetadataMode::kAccelerated);
  table::DecodedBlockCache cache(64ULL << 20);
  table::TableOptions options;
  options.max_rows_per_file = 4096;
  table::LakehouseService lakehouse(&meta, &objects, &clock, &compute_link,
                                    options, /*scan_pool=*/nullptr, &cache);
  auto created = lakehouse.CreateTable(
      "lineitem", workload::TpchLineitemGenerator::Schema(),
      table::PartitionSpec::None());
  SL_CHECK_OK(created.status());
  workload::TpchLineitemGenerator gen;
  SL_CHECK_OK((*created)->Insert(gen.NextBatch(4 * 4096)));
  query::QuerySpec spec;
  spec.where.Add(query::Predicate::Le("l_discount", format::Value(0.05)));
  spec.group_by = {"l_shipmode"};
  spec.aggregates = {query::AggregateSpec::CountStar("c"),
                     query::AggregateSpec::Sum("l_quantity", "q")};
  SL_CHECK_OK((*created)->Select(spec).status());  // warm the cache
  for (auto _ : state) {
    benchmark::DoNotOptimize((*created)->Select(spec));
  }
  state.SetItemsProcessed(state.iterations() * 4 * 4096);
}
BENCHMARK(BM_SelectGroupBy);

// Uncontended lock/unlock round trip. The interesting comparison is the
// default preset (lock-order checking on) against the release preset
// (checking compiled out): release must match a bare std::mutex, i.e. the
// ranked wrapper costs nothing when the checker is off.
void BM_MutexLockUnlock(benchmark::State& state) {
  Mutex mu{LockRank::kKvStore, "bench.mutex"};
  for (auto _ : state) {
    MutexLock lock(&mu);
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MutexLockUnlock);

// Nested pair in legal descending order: the checker's worst case (every
// inner acquisition checks the held stack and records a graph edge).
void BM_MutexNestedPair(benchmark::State& state) {
  Mutex outer{LockRank::kLakehouse, "bench.outer"};
  Mutex inner{LockRank::kKvStore, "bench.inner"};
  for (auto _ : state) {
    MutexLock lo(&outer);
    MutexLock li(&inner);
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MutexNestedPair);

void BM_SharedMutexReadLock(benchmark::State& state) {
  SharedMutex mu{LockRank::kKvStore, "bench.shared"};
  for (auto _ : state) {
    ReaderMutexLock lock(&mu);
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SharedMutexReadLock);

}  // namespace
}  // namespace streamlake

// BENCHMARK_MAIN() expanded by hand so --json_out can be peeled off before
// google-benchmark's flag parser rejects it. The written report carries only
// the registry snapshot (side effect of the KV/PLog/stream benchmarks above);
// wall-clock timings stay in google-benchmark's own --benchmark_format=json
// output, which is machine-noise and deliberately not CI-gated.
int main(int argc, char** argv) {
  streamlake::bench::BenchReport report("micro", &argc, argv);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return report.WriteIfRequested() ? 0 : 1;
}
