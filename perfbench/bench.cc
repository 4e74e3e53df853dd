#include "bench.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <numeric>

#include "common/metrics.h"

namespace perfbench {

using streamlake::MetricsRegistry;

uint64_t DeriveSeed(uint64_t seed, uint64_t stream) {
  // splitmix64 over (seed, stream): distinct streams never collide.
  uint64_t z = seed + 0x9E3779B97F4A7C15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

double Samples::Quantile(double q) const {
  if (values_.empty()) return 0;
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  size_t rank = static_cast<size_t>(std::ceil(q * sorted.size()));
  rank = std::clamp<size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

double Samples::Sum() const {
  return std::accumulate(values_.begin(), values_.end(), 0.0);
}

double Samples::Mean() const {
  return values_.empty() ? 0 : Sum() / values_.size();
}

// ---------------------------------------------------------------------------
// Tracer

Tracer::Span::Span(Tracer* tracer, const char* name) : tracer_(tracer) {
  if (!tracer_->active_) return;
  index_ = static_cast<int64_t>(tracer_->records_.size());
  int64_t parent = tracer_->open_.empty() ? -1 : tracer_->open_.back();
  tracer_->records_.push_back({name, WallNanos(), 0, tracer_->op_id_, parent});
  tracer_->open_.push_back(index_);
}

Tracer::Span::~Span() {
  if (index_ < 0) return;
  tracer_->records_[index_].end_ns = WallNanos();
  tracer_->open_.pop_back();
}

void Tracer::BeginOp(uint64_t n) {
  op_id_ = n;
  // A hashed coin rather than plain alternation, so that periodic
  // operations (every 50th batch converts, ...) are traced too.
  active_ = enabled_ && (DeriveSeed(n, 0) & 1) == 1;
}

Samples Tracer::Durations(const std::string& name) const {
  Samples out;
  for (const Record& r : records_) {
    if (name == r.name) out.Add((r.end_ns - r.start_ns) / 1e6);
  }
  return out;
}

std::map<std::string, Tracer::SelfTime> Tracer::SelfTimes() const {
  std::vector<uint64_t> child_ns(records_.size(), 0);
  for (const Record& r : records_) {
    if (r.parent >= 0) child_ns[r.parent] += r.end_ns - r.start_ns;
  }
  std::map<std::string, SelfTime> out;
  for (size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    SelfTime& s = out[r.name];
    uint64_t total = r.end_ns - r.start_ns;
    s.calls += 1;
    s.total_ms += total / 1e6;
    s.self_ms += (total - std::min(total, child_ns[i])) / 1e6;
  }
  return out;
}

bool Tracer::WriteSpans(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  uint64_t origin = records_.empty() ? 0 : records_.front().start_ns;
  for (size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    std::fprintf(f,
                 "{\"id\": %zu, \"name\": \"%s\", \"start_ns\": %llu, "
                 "\"end_ns\": %llu, \"op\": %llu, \"parent\": %lld}\n",
                 i, r.name, static_cast<unsigned long long>(r.start_ns - origin),
                 static_cast<unsigned long long>(r.end_ns - origin),
                 static_cast<unsigned long long>(r.op_id),
                 static_cast<long long>(r.parent));
  }
  return std::fclose(f) == 0;
}

// ---------------------------------------------------------------------------
// Probes

uint64_t CounterValue(const std::string& name) {
  return MetricsRegistry::Global().CounterValue(name);
}

CounterSample CounterSample::Take() {
  CounterSample s;
  s.values_ = MetricsRegistry::Global().Snapshot().counters;
  return s;
}

uint64_t CounterSample::Delta(const CounterSample& start,
                              const std::string& name) const {
  auto now = values_.find(name);
  if (now == values_.end()) return 0;
  auto then = start.values_.find(name);
  return now->second - (then == start.values_.end() ? 0 : then->second);
}

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto secs = [](const timeval& tv) { return tv.tv_sec + tv.tv_usec / 1e6; };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss / 1024.0;  // ru_maxrss is in KiB on Linux
}

std::string Fingerprint::ToString() const {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "inputs=%d sim_ns=%llu live_physical_bytes=%llu "
                "user_bytes=%llu plog_append_ops=%llu kv_write_ops=%llu "
                "commits=%llu",
                input_set,
                static_cast<unsigned long long>(sim_ns),
                static_cast<unsigned long long>(live_physical_bytes),
                static_cast<unsigned long long>(user_bytes),
                static_cast<unsigned long long>(plog_append_ops),
                static_cast<unsigned long long>(kv_write_ops),
                static_cast<unsigned long long>(commits));
  return buf;
}

void Outcome::Op(const streamlake::Status& status, const std::string& what) {
  ++attempted;
  if (status.ok()) return;
  ++failed;
  if (problems.size() < 8) problems.push_back(what + ": " + status.ToString());
}

void Outcome::Check(bool ok, const std::string& what) {
  if (ok) return;
  ++failed;
  if (problems.size() < 8) problems.push_back("wrong result: " + what);
}

DeploymentProbe DeploymentProbe::Take(streamlake::core::StreamLake& lake) {
  DeploymentProbe p;
  auto report = lake.Report();
  p.device_bytes_written =
      report.ssd_io.bytes_written + report.hdd_io.bytes_written;
  for (const std::string& name : lake.lakehouse().ListTables()) {
    auto table = lake.lakehouse().GetTable(name);
    if (!table.ok()) continue;
    auto info = (*table)->Info();
    if (info.ok()) p.commits += info->next_commit_seq - 1;
  }
  return p;
}

EpochStart EpochStart::Take() {
  return EpochStart{CounterValue("storage.plog.append_ops"),
                    CounterValue("kv.write.ops")};
}

Fingerprint TakeFingerprint(streamlake::core::StreamLake& lake,
                            const EpochStart& start, int input_set,
                            uint64_t user_bytes) {
  Fingerprint fp;
  fp.input_set = input_set;
  fp.sim_ns = lake.clock().NowNanos();
  fp.live_physical_bytes = lake.plogs().TotalLivePhysicalBytes();
  fp.user_bytes = user_bytes;
  fp.plog_append_ops =
      CounterValue("storage.plog.append_ops") - start.plog_append_ops;
  fp.kv_write_ops = CounterValue("kv.write.ops") - start.kv_write_ops;
  fp.commits = DeploymentProbe::Take(lake).commits;
  return fp;
}

void LayerWindow::Begin(streamlake::core::StreamLake& lake) {
  probe_ = DeploymentProbe::Take(lake);
  counters_ = CounterSample::Take();
  cpu_ = ProcessCpuSeconds();
  wall_ns_ = WallNanos();
}

void LayerWindow::End(streamlake::core::StreamLake& lake) {
  wall_s += (WallNanos() - wall_ns_) / 1e9;
  cpu_s += ProcessCpuSeconds() - cpu_;
  CounterSample now = CounterSample::Take();
  for (const auto& [name, value] : now.values()) {
    deltas_[name] += now.Delta(counters_, name);
  }
  DeploymentProbe probe = DeploymentProbe::Take(lake);
  device_bytes_written +=
      probe.device_bytes_written - probe_.device_bytes_written;
  commits += probe.commits - probe_.commits;
}

uint64_t LayerWindow::Delta(const std::string& counter) const {
  auto it = deltas_.find(counter);
  return it == deltas_.end() ? 0 : it->second;
}

// ---------------------------------------------------------------------------
// Per-layer metrics

const std::vector<std::pair<std::string, std::string>>& PerLayerNames() {
  static const std::vector<std::pair<std::string, std::string>> names = [] {
    std::vector<std::pair<std::string, std::string>> v{
        // streaming / stream / storage
        {"streaming.send_batch.wall_us", "us"},
        {"streaming.poll.wall_us", "us"},
        {"stream.object.slices_persisted", "count/op"},
        {"stream.scm_cache.hit_ratio", "ratio"},
        {"storage.plog.append_ops", "count/op"},
        {"storage.plog.append_bytes_per_user_byte", "B/B"},
        {"storage.plog.stripe_contention", "count/op"},
        {"storage.device.bytes_written_per_user_byte", "B/B"},
        {"sim.produce_ns", "ns"},
        // convert / format / codec
        {"convert.run.wall_ms", "ms"},
        {"convert.rows_per_s", "1/s"},
        {"table.insert.wall_ms", "ms"},
        {"table.file_bytes_per_row", "B"},
        // table catalog / metadata / kv
        {"table.catalog.replay_wall_us", "us"},
        {"table.metadata.reads_per_query", "count"},
        {"table.metadata.bytes_read_per_query", "B"},
        {"table.metadata.cache_hit_ratio", "ratio"},
        {"kv.get.ops_per_query", "count"},
        {"kv.write.ops_per_commit", "count"},
        {"table.compact.wall_ms", "ms"},
        {"table.rewrite_manifest.wall_ms", "ms"},
        {"table.expire_snapshots.wall_ms", "ms"},
        {"table.compact.bytes_rewritten", "B"},
        // table scan / block cache
        {"table.select.bytes_decoded_per_query", "B"},
        {"table.select.rows_materialized_per_query", "count"},
        {"table.block_cache.hit_ratio", "ratio"},
        {"table.block_cache.evictions", "count/op"},
        {"storage.plog.read_bytes_per_query", "B"},
        {"process.cpu_per_wall", "ratio"},
        // sql / query
        {"query.parse.wall_us", "us"},
        {"query.execute.wall_ms", "ms"},
        {"query.rows_scanned_per_matched", "ratio"},
        {"query.join.build_ms", "ms"},
        {"query.join.probe_ms", "ms"},
        // tracing itself
        {"trace.overhead_pct", "%"},
    };
    for (const std::string& span : TracedSpanNames()) {
      v.emplace_back("self_us." + span, "us");
    }
    return v;
  }();
  return names;
}

const std::vector<std::string>& TracedSpanNames() {
  static const std::vector<std::string> names = {
      "setup.load",          "client.produce",
      "client.query",        "client.insert",
      "client.select",       "client.delete",
      "client.compact",      "client.maintenance",
      "streaming.send_batch", "streaming.poll",
      "convert.run",         "table.insert",
      "table.select",        "table.delete",
      "table.catalog.live_files", "query.parse",
      "query.execute",       "table.compact",
      "table.rewrite_manifest", "table.expire_snapshots",
      "core.background_work",
  };
  return names;
}

namespace {

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

}  // namespace

void SetLayer(Outcome* out, const std::string& name, double value) {
  for (const auto& [n, unit] : PerLayerNames()) {
    if (n == name) {
      out->per_layer[name] = Metric{value, unit};
      return;
    }
  }
  std::fprintf(stderr, "perfbench: unknown per-layer metric %s\n",
               name.c_str());
  std::abort();
}

void FillPerLayer(const LayerWindow& w, const Tracer& tracer, Outcome* out) {
  auto d = [&](const char* name) { return static_cast<double>(w.Delta(name)); };
  auto set = [&](const std::string& name, double value) {
    SetLayer(out, name, value);
  };
  auto p50 = [&](const char* span, double scale) {
    return tracer.Durations(span).Quantile(0.5) * scale;
  };
  const double ops = static_cast<double>(w.ops);
  const double queries = static_cast<double>(w.queries);
  const double commits = static_cast<double>(w.commits);

  set("streaming.send_batch.wall_us", p50("streaming.send_batch", 1e3));
  set("streaming.poll.wall_us", p50("streaming.poll", 1e3));
  set("stream.object.slices_persisted",
      Ratio(d("stream.object.slices_persisted"), ops));
  set("stream.scm_cache.hit_ratio",
      Ratio(d("stream.scm_cache.hits"),
            d("stream.scm_cache.hits") + d("stream.scm_cache.misses")));
  set("storage.plog.append_ops", Ratio(d("storage.plog.append_ops"), ops));
  set("storage.plog.append_bytes_per_user_byte",
      Ratio(d("storage.plog.append_bytes"), w.user_bytes));
  set("storage.plog.stripe_contention",
      Ratio(d("storage.plog.stripe_contention"), ops));
  set("storage.device.bytes_written_per_user_byte",
      Ratio(static_cast<double>(w.device_bytes_written), w.user_bytes));
  set("convert.run.wall_ms", p50("convert.run", 1));
  set("table.insert.wall_ms", p50("table.insert", 1));
  set("table.catalog.replay_wall_us", p50("table.catalog.live_files", 1e3));
  set("table.metadata.reads_per_query", Ratio(d("table.metadata.reads"), queries));
  set("table.metadata.bytes_read_per_query",
      Ratio(d("table.metadata.bytes_read"), queries));
  set("table.metadata.cache_hit_ratio",
      Ratio(d("table.metadata.cache_hits"),
            d("table.metadata.cache_hits") + d("table.metadata.cache_misses")));
  set("kv.get.ops_per_query", Ratio(d("kv.get.ops"), queries));
  set("kv.write.ops_per_commit", Ratio(d("kv.write.ops"), commits));
  set("table.compact.wall_ms", p50("table.compact", 1));
  set("table.rewrite_manifest.wall_ms", p50("table.rewrite_manifest", 1));
  set("table.expire_snapshots.wall_ms", p50("table.expire_snapshots", 1));
  set("table.select.bytes_decoded_per_query",
      Ratio(d("table.select.bytes_decoded"), queries));
  set("table.select.rows_materialized_per_query",
      Ratio(d("table.select.rows_materialized"), queries));
  set("table.block_cache.hit_ratio",
      Ratio(d("table.block_cache.hits"),
            d("table.block_cache.hits") + d("table.block_cache.misses")));
  set("table.block_cache.evictions",
      Ratio(d("table.block_cache.evictions"), ops));
  set("storage.plog.read_bytes_per_query",
      Ratio(d("storage.plog.read_bytes"), queries));
  set("process.cpu_per_wall", Ratio(w.cpu_s, w.wall_s));
  set("query.parse.wall_us", p50("query.parse", 1e3));
  set("query.execute.wall_ms", p50("query.execute", 1));
  set("query.rows_scanned_per_matched",
      Ratio(d("query.rows_scanned"), d("query.rows_matched")));
  set("query.join.build_ms",
      Ratio(d("query.join.build_ns") / 1e6, w.join_queries));
  set("query.join.probe_ms",
      Ratio(d("query.join.probe_ns") / 1e6, w.join_queries));

  std::map<std::string, Tracer::SelfTime> self = tracer.SelfTimes();
  for (const std::string& span : TracedSpanNames()) {
    auto it = self.find(span);
    set("self_us." + span,
        it == self.end() ? 0 : it->second.self_ms * 1e3 / it->second.calls);
  }
  // Metrics a workload does not set report 0.
  for (const auto& [name, unit] : PerLayerNames()) {
    out->per_layer.emplace(name, Metric{0, unit});
  }
}

}  // namespace perfbench
