#include "common/metrics.h"

#include <bit>
#include <cinttypes>
#include <cstdio>

#include "common/logging.h"

namespace streamlake {

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

size_t Histogram::BucketIndex(uint64_t value) {
  constexpr uint64_t kSubBuckets = 1ULL << kSubBucketBits;
  if (value < kSubBuckets) return static_cast<size_t>(value);  // exact
  int msb = 63 - std::countl_zero(value);
  size_t group = static_cast<size_t>(msb) - (kSubBucketBits - 1);
  uint64_t sub = (value >> (msb - kSubBucketBits)) & (kSubBuckets - 1);
  return (group << kSubBucketBits) + static_cast<size_t>(sub);
}

uint64_t Histogram::BucketMidpoint(size_t index) {
  constexpr uint64_t kSubBuckets = 1ULL << kSubBucketBits;
  if (index < kSubBuckets) return index;  // exact buckets are their value
  size_t group = index >> kSubBucketBits;
  uint64_t sub = index & (kSubBuckets - 1);
  int msb = static_cast<int>(group) + (kSubBucketBits - 1);
  uint64_t width = 1ULL << (msb - kSubBucketBits);
  uint64_t lower = (1ULL << msb) + sub * width;
  return lower + (width - 1) / 2;
}

void Histogram::Record(uint64_t value) {
  buckets_[BucketIndex(value)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(value, std::memory_order_relaxed);
  uint64_t observed = min_.load(std::memory_order_relaxed);
  while (value < observed &&
         !min_.compare_exchange_weak(observed, value,
                                     std::memory_order_relaxed)) {
  }
  observed = max_.load(std::memory_order_relaxed);
  while (value > observed &&
         !max_.compare_exchange_weak(observed, value,
                                     std::memory_order_relaxed)) {
  }
}

uint64_t Histogram::Min() const {
  uint64_t v = min_.load(std::memory_order_relaxed);
  return v == ~0ULL ? 0 : v;
}

uint64_t Histogram::ValueAtQuantile(double q) const {
  uint64_t total = Count();
  if (total == 0) return 0;
  if (q < 0) q = 0;
  if (q > 1) q = 1;
  auto target = static_cast<uint64_t>(q * static_cast<double>(total - 1)) + 1;
  uint64_t seen = 0;
  for (size_t i = 0; i < kNumBuckets; ++i) {
    seen += buckets_[i].load(std::memory_order_relaxed);
    if (seen >= target) {
      uint64_t mid = BucketMidpoint(i);
      // Concurrent Record()s can make bucket sums momentarily disagree
      // with count_; clamping keeps the answer inside the observed range.
      uint64_t lo = Min();
      uint64_t hi = Max();
      return mid < lo ? lo : (mid > hi ? hi : mid);
    }
  }
  return Max();
}

void Histogram::Reset() {
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
  min_.store(~0ULL, std::memory_order_relaxed);
  max_.store(0, std::memory_order_relaxed);
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// MetricsRegistry
// ---------------------------------------------------------------------------

MetricsRegistry& MetricsRegistry::Global() {
  // Leaked singleton: metric pointers cached in function-local statics
  // must stay valid through static destruction.
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

const char* MetricsRegistry::KindName(Kind kind) const {
  switch (kind) {
    case Kind::kCounter:
      return "counter";
    case Kind::kGauge:
      return "gauge";
    case Kind::kHistogram:
      return "histogram";
  }
  return "?";
}

Counter* MetricsRegistry::GetCounter(const std::string& name) {
  MutexLock lock(&mu_);
  auto [it, inserted] = kinds_.emplace(name, Kind::kCounter);
  if (!inserted && it->second != Kind::kCounter) {
    SL_LOG(Error) << "metric name '" << name << "' already registered as a "
                  << KindName(it->second) << ", requested as a counter";
    SL_CHECK(it->second == Kind::kCounter);
  }
  auto& slot = counters_[name];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return slot.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name) {
  MutexLock lock(&mu_);
  auto [it, inserted] = kinds_.emplace(name, Kind::kGauge);
  if (!inserted && it->second != Kind::kGauge) {
    SL_LOG(Error) << "metric name '" << name << "' already registered as a "
                  << KindName(it->second) << ", requested as a gauge";
    SL_CHECK(it->second == Kind::kGauge);
  }
  auto& slot = gauges_[name];
  if (slot == nullptr) slot = std::make_unique<Gauge>();
  return slot.get();
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name) {
  MutexLock lock(&mu_);
  auto [it, inserted] = kinds_.emplace(name, Kind::kHistogram);
  if (!inserted && it->second != Kind::kHistogram) {
    SL_LOG(Error) << "metric name '" << name << "' already registered as a "
                  << KindName(it->second) << ", requested as a histogram";
    SL_CHECK(it->second == Kind::kHistogram);
  }
  auto& slot = histograms_[name];
  if (slot == nullptr) slot = std::make_unique<Histogram>();
  return slot.get();
}

uint64_t MetricsRegistry::CounterValue(const std::string& name) const {
  MutexLock lock(&mu_);
  auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second->Value();
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  MetricsSnapshot snapshot;
  MutexLock lock(&mu_);
  for (const auto& [name, counter] : counters_) {
    snapshot.counters[name] = counter->Value();
  }
  for (const auto& [name, gauge] : gauges_) {
    snapshot.gauges[name] = gauge->Value();
  }
  for (const auto& [name, histogram] : histograms_) {
    HistogramSnapshot h;
    h.count = histogram->Count();
    h.sum = histogram->Sum();
    h.min = histogram->Min();
    h.max = histogram->Max();
    h.p50 = histogram->ValueAtQuantile(0.50);
    h.p90 = histogram->ValueAtQuantile(0.90);
    h.p99 = histogram->ValueAtQuantile(0.99);
    snapshot.histograms[name] = h;
  }
  return snapshot;
}

namespace {

// Metric names follow the [a-z0-9._] convention (DESIGN.md), but escape
// defensively so a stray name can't produce unparseable JSON.
std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out.push_back(c);
  }
  return out;
}

void AppendJsonKey(std::string* out, const std::string& name) {
  out->append("\"").append(JsonEscape(name)).append("\": ");
}

}  // namespace

std::string MetricsRegistry::JsonReport() const {
  MetricsSnapshot snapshot = Snapshot();
  std::string out = "{\n  \"counters\": {";
  char buf[64];
  bool first = true;
  for (const auto& [name, value] : snapshot.counters) {
    out += first ? "\n    " : ",\n    ";
    first = false;
    AppendJsonKey(&out, name);
    std::snprintf(buf, sizeof(buf), "%" PRIu64, value);
    out += buf;
  }
  out += "\n  },\n  \"gauges\": {";
  first = true;
  for (const auto& [name, value] : snapshot.gauges) {
    out += first ? "\n    " : ",\n    ";
    first = false;
    AppendJsonKey(&out, name);
    std::snprintf(buf, sizeof(buf), "%" PRId64, value);
    out += buf;
  }
  out += "\n  },\n  \"histograms\": {";
  first = true;
  for (const auto& [name, h] : snapshot.histograms) {
    out += first ? "\n    " : ",\n    ";
    first = false;
    AppendJsonKey(&out, name);
    char line[256];
    std::snprintf(line, sizeof(line),
                  "{\"count\": %" PRIu64 ", \"sum\": %" PRIu64
                  ", \"min\": %" PRIu64 ", \"max\": %" PRIu64
                  ", \"p50\": %" PRIu64 ", \"p90\": %" PRIu64
                  ", \"p99\": %" PRIu64 "}",
                  h.count, h.sum, h.min, h.max, h.p50, h.p90, h.p99);
    out += line;
  }
  out += "\n  }\n}";
  return out;
}

void MetricsRegistry::ResetForTest() {
  MutexLock lock(&mu_);
  for (auto& [name, counter] : counters_) counter->Reset();
  for (auto& [name, gauge] : gauges_) gauge->Reset();
  for (auto& [name, histogram] : histograms_) histogram->Reset();
}

}  // namespace streamlake
