// Google-benchmark microbenchmarks of StreamLake's building blocks:
// checksums, compression, encodings, erasure coding, KV, PLog appends,
// stream-object appends, LakeFile scans, GROUP BY Selects and a hash join.
// These back the cost-model calibration and catch performance regressions
// in the hot paths.

#include <benchmark/benchmark.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench_report.h"
#include "codec/compression.h"
#include "codec/encoding.h"
#include "common/coding.h"
#include "common/hash.h"
#include "common/logging.h"
#include "common/mutex.h"
#include "common/random.h"
#include "format/lakefile.h"
#include "kv/kv_store.h"
#include "query/sql_parser.h"
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
BENCHMARK(BM_Crc32c)->Arg(1024)->Arg(64 << 10)->Arg(1 << 20);

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

void BM_LzCompressDpiPayload(benchmark::State& state) {
  // One province's payload column chunk of a 5000-message conversion (the
  // ingest path's largest chunks): the null count, then the plain-encoded
  // payloads of the rows whose province is the first row's.
  workload::DpiLogGenerator gen;
  const std::vector<format::Row> rows = gen.NextBatch(5000);
  std::vector<std::string> payloads;
  for (const format::Row& row : rows) {
    if (row.fields[2] == rows.front().fields[2]) {
      payloads.push_back(std::get<std::string>(row.fields[5]));
    }
  }
  Bytes data;
  PutVarint64(&data, 0);
  codec::EncodeStrings(payloads, codec::Encoding::kPlain, &data);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        codec::Compress(codec::Compression::kLz, ByteView(data)));
  }
  state.SetBytesProcessed(state.iterations() * data.size());
}
BENCHMARK(BM_LzCompressDpiPayload);

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

// One data file of an N-row TPC-H lineitem batch: 500 rows is the shape of
// a lakehouse_mixed insert, 8192 one full row group. Each iteration
// transposes the caller's rows once, as Table::Insert does, then encodes
// the bytes and the file-level stats.
void BM_LakeFileWrite(benchmark::State& state) {
  workload::TpchLineitemGenerator gen;
  const std::vector<format::Row> rows =
      gen.NextBatch(static_cast<size_t>(state.range(0)));
  std::vector<const format::Row*> pointers;
  pointers.reserve(rows.size());
  for (const format::Row& row : rows) pointers.push_back(&row);
  const format::Schema schema = workload::TpchLineitemGenerator::Schema();
  for (auto _ : state) {
    format::ColumnBatch batch(schema);
    batch.AppendRows(pointers);
    benchmark::DoNotOptimize(
        format::EncodeLakeFile(schema, batch, format::LakeFileOptions()));
  }
  state.SetItemsProcessed(state.iterations() * rows.size());
}
BENCHMARK(BM_LakeFileWrite)->Arg(500)->Arg(8192);

// One converter insert of the ingest workload: 1667 DPI rows (5000 messages
// over 3 streams) cut into one file per province, each transposed once and
// encoded on the calling thread.
void BM_LakeFileWriteDpi(benchmark::State& state) {
  workload::DpiLogGenerator gen;
  const std::vector<format::Row> rows = gen.NextBatch(1667);
  const format::Schema schema = workload::DpiLogGenerator::Schema();
  const int province = schema.FieldIndex("province");
  std::map<std::string, std::vector<const format::Row*>> files;
  for (const format::Row& row : rows) {
    files[std::get<std::string>(row.fields[province])].push_back(&row);
  }
  for (auto _ : state) {
    for (const auto& [name, file] : files) {
      format::ColumnBatch batch(schema);
      batch.AppendRows(file);
      benchmark::DoNotOptimize(
          format::EncodeLakeFile(schema, batch, format::LakeFileOptions()));
    }
  }
  state.SetItemsProcessed(state.iterations() * rows.size());
}
BENCHMARK(BM_LakeFileWriteDpi);

// A lakehouse on one simulated cluster whose decoded chunks all fit its
// 64 MiB block cache and whose scans run on the calling thread, so a warm
// query's time is filter, join and aggregate CPU, not I/O.
struct WarmLakehouse {
  sim::SimClock clock;
  storage::StoragePool pool{"ssd", sim::MediaType::kNvmeSsd, &clock};
  sim::NetworkModel compute_link{sim::NetworkProfile::Rdma(), &clock};
  std::unique_ptr<storage::PlogStore> plogs;
  kv::KvStore object_index;
  kv::KvStore meta_cache;
  std::unique_ptr<storage::ObjectStore> objects;
  std::unique_ptr<table::MetadataStore> meta;
  table::DecodedBlockCache cache{64ULL << 20};
  std::unique_ptr<table::LakehouseService> lakehouse;

  WarmLakehouse() {
    pool.AddCluster(3, 2, 512 << 20);
    storage::PlogStoreConfig config;
    config.num_shards = 8;
    config.plog.capacity = 64 << 20;
    config.plog.redundancy = storage::RedundancyConfig::Replication(3);
    plogs = std::make_unique<storage::PlogStore>(&pool, config, &clock);
    objects =
        std::make_unique<storage::ObjectStore>(plogs.get(), &object_index);
    meta = std::make_unique<table::MetadataStore>(
        objects.get(), &meta_cache, table::MetadataMode::kAccelerated);
    table::TableOptions options;
    options.max_rows_per_file = 4096;
    lakehouse = std::make_unique<table::LakehouseService>(
        meta.get(), objects.get(), &clock, &compute_link, options,
        /*scan_pool=*/nullptr, &cache);
  }

  table::Table* Create(const std::string& name, const format::Schema& schema,
                       const std::vector<format::Row>& rows) {
    auto created = lakehouse->CreateTable(name, schema,
                                          table::PartitionSpec::None());
    SL_CHECK_OK(created.status());
    SL_CHECK_OK((*created)->Insert(rows));
    return *created;
  }

  /// Runs `sql` once to warm the cache; returns the parsed statement.
  query::SqlStatement Warm(const std::string& sql) {
    auto parsed = query::ParseSql(sql);
    SL_CHECK_OK(parsed.status());
    SL_CHECK_OK(lakehouse->Query(*parsed).status());
    return *parsed;
  }
};

// CompactPartition over one day of N 256-row TPC-H lineitem files, with
// one merge-on-read delete (one row in fifty) outstanding, into one file:
// the rewrite gathers every file's surviving rows into one column batch.
// Reported per input row; the set-up of each iteration is untimed.
void BM_CompactPartition(benchmark::State& state) {
  constexpr int64_t kDay = 86400;
  constexpr size_t kRowsPerFile = 256;
  const auto files = static_cast<size_t>(state.range(0));
  const int64_t rows = static_cast<int64_t>(files * kRowsPerFile);
  const int64_t day = workload::TpchLineitemGenerator::kShipDateMin / kDay;
  workload::TpchLineitemGenerator gen;
  std::vector<std::vector<format::Row>> batches(files);
  for (size_t b = 0; b < batches.size(); ++b) {
    batches[b] = gen.NextBatch(kRowsPerFile);
    for (size_t i = 0; i < batches[b].size(); ++i) {
      const auto slot = static_cast<int64_t>(b * kRowsPerFile + i);
      batches[b][i].fields[5] = format::Value(day * kDay + slot * kDay / rows);
    }
  }
  query::Conjunction where;
  where.Add(query::Predicate::Eq("l_quantity", format::Value(int64_t{7})));
  const std::string partition = "day=" + std::to_string(day);
  table::TableOptions options;
  options.max_rows_per_file = 4096;
  options.delete_mode = table::DeleteMode::kMergeOnRead;
  options.target_file_bytes = 1ULL << 30;  // one bin takes every file
  for (auto _ : state) {
    state.PauseTiming();
    WarmLakehouse lake;
    auto table = lake.lakehouse->CreateTable(
        "lineitem", workload::TpchLineitemGenerator::Schema(),
        table::PartitionSpec::Day("l_shipdate"), &options);
    SL_CHECK_OK(table.status());
    for (const std::vector<format::Row>& batch : batches) {
      SL_CHECK_OK((*table)->Insert(batch));
    }
    SL_CHECK_OK((*table)->Delete(where).status());
    state.ResumeTiming();
    auto compacted = (*table)->CompactPartition(partition);
    SL_CHECK_OK(compacted.status());
    SL_CHECK(compacted->files_before == files && compacted->files_after == 1);
  }
  // Time per input row, printed with an SI prefix (e.g. 550ns).
  state.counters["per_row"] = benchmark::Counter(
      static_cast<double>(rows), benchmark::Counter::kIsIterationInvariantRate |
                                     benchmark::Counter::kInvert);
}
BENCHMARK(BM_CompactPartition)
    ->Arg(8)
    ->Arg(32)
    ->Arg(128)
    ->Unit(benchmark::kMillisecond);

// The per-query CPU of a warm aggregate Select: GROUP BY a dictionary
// column over a 4-file TPC-H lineitem table.
void BM_SelectGroupBy(benchmark::State& state) {
  WarmLakehouse lake;
  workload::TpchLineitemGenerator gen;
  table::Table* lineitem = lake.Create(
      "lineitem", workload::TpchLineitemGenerator::Schema(),
      gen.NextBatch(4 * 4096));
  query::QuerySpec spec;
  spec.where.Add(query::Predicate::Le("l_discount", format::Value(0.05)));
  spec.group_by = {"l_shipmode"};
  spec.aggregates = {query::AggregateSpec::CountStar("c"),
                     query::AggregateSpec::Sum("l_quantity", "q")};
  SL_CHECK_OK(lineitem->Select(spec).status());  // warm the cache
  for (auto _ : state) {
    benchmark::DoNotOptimize(lineitem->Select(spec));
  }
  state.SetItemsProcessed(state.iterations() * 4 * 4096);
}
BENCHMARK(BM_SelectGroupBy);

// GROUP BY over 100k groups of 200k rows: the many-group case a
// dictionary key never reaches. Arg 0 groups by an int64 key, arg 1 by a
// string key.
void BM_GroupByHighCardinality(benchmark::State& state) {
  constexpr int kRows = 200000;
  constexpr int kGroups = 100000;
  WarmLakehouse lake;
  Random rng(11);
  std::vector<format::Row> rows;
  rows.reserve(kRows);
  for (int i = 0; i < kRows; ++i) {
    const int64_t k = static_cast<int64_t>(rng.Uniform(kGroups));
    rows.push_back(format::Row{{format::Value(k),
                                format::Value("key-" + std::to_string(k)),
                                format::Value(static_cast<double>(i % 1000))}});
  }
  lake.Create("t",
              format::Schema{{"ik", format::DataType::kInt64},
                             {"sk", format::DataType::kString},
                             {"x", format::DataType::kDouble}},
              rows);
  const std::string key = state.range(0) == 0 ? "ik" : "sk";
  const query::SqlStatement statement = lake.Warm(
      "SELECT " + key + ", COUNT(*) AS c, SUM(x) AS s FROM t GROUP BY " + key);
  for (auto _ : state) {
    benchmark::DoNotOptimize(lake.lakehouse->Query(statement));
  }
  state.SetItemsProcessed(state.iterations() * kRows);
}
BENCHMARK(BM_GroupByHighCardinality)->Arg(0)->Arg(1)->Unit(
    benchmark::kMillisecond);

// An aggregate over a join: 100k probe rows against a 20k-row build side,
// half of the probe keys matching, grouped by a build column. Arg 0 joins
// on an int64 key, arg 1 on a string key.
void BM_HashJoinProbe(benchmark::State& state) {
  constexpr int kFacts = 100000;
  constexpr int kDims = 20000;
  WarmLakehouse lake;
  Random rng(12);
  std::vector<format::Row> facts;
  facts.reserve(kFacts);
  for (int i = 0; i < kFacts; ++i) {
    const int64_t k = static_cast<int64_t>(rng.Uniform(2 * kDims));
    facts.push_back(format::Row{{format::Value(k),
                                 format::Value("part-" + std::to_string(k)),
                                 format::Value(int64_t{i % 50})}});
  }
  std::vector<format::Row> dims;
  dims.reserve(kDims);
  for (int64_t k = 0; k < 2 * kDims; k += 2) {
    dims.push_back(format::Row{
        {format::Value(k), format::Value("part-" + std::to_string(k)),
         format::Value("brand-" + std::to_string(k % 25))}});
  }
  lake.Create("facts",
              format::Schema{{"ik", format::DataType::kInt64},
                             {"sk", format::DataType::kString},
                             {"v", format::DataType::kInt64}},
              facts);
  lake.Create("dims",
              format::Schema{{"ik", format::DataType::kInt64},
                             {"sk", format::DataType::kString},
                             {"brand", format::DataType::kString}},
              dims);
  const std::string key = state.range(0) == 0 ? "ik" : "sk";
  const query::SqlStatement statement = lake.Warm(
      "SELECT d.brand, COUNT(*) AS c, SUM(f.v) AS s FROM facts f JOIN dims d "
      "ON f." + key + " = d." + key + " GROUP BY d.brand");
  for (auto _ : state) {
    benchmark::DoNotOptimize(lake.lakehouse->Query(statement));
  }
  state.SetItemsProcessed(state.iterations() * kFacts);
}
BENCHMARK(BM_HashJoinProbe)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

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
