#ifndef STREAMLAKE_COMMON_METRICS_H_
#define STREAMLAKE_COMMON_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "common/mutex.h"

namespace streamlake {

/// \brief Process-wide observability layer (ROADMAP: "as fast as the
/// hardware allows" is unenforceable until perf is recorded per PR).
///
/// Every subsystem reports through one MetricsRegistry under stable
/// dotted names — `<subsystem>.<component>.<metric>` with unit suffixes
/// (`_bytes`, `_records`, `_ops`, `_ns`); the full per-subsystem table
/// lives in DESIGN.md ("Observability"). Bench binaries embed a registry
/// snapshot in their `BENCH_<name>.json` reports, which the CI
/// bench-regression gate compares against bench/baseline.json.
///
/// Hot-path idiom — one registry lookup per call site per process, then a
/// single relaxed atomic add per event:
///
///   static Counter* appends =
///       MetricsRegistry::Global().GetCounter("stream.object.append_records");
///   appends->Increment(batch.size());

/// \brief Monotonic event counter. Increment is one relaxed atomic add;
/// safe from any thread, while holding any lock.
class Counter {
 public:
  void Increment(uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  uint64_t Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  friend class MetricsRegistry;
  void Reset() { value_.store(0, std::memory_order_relaxed); }
  std::atomic<uint64_t> value_{0};
};

/// \brief Point-in-time level (queue depth, cache occupancy). Unlike
/// Counter it can move both ways.
class Gauge {
 public:
  void Set(int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void Add(int64_t delta) { value_.fetch_add(delta, std::memory_order_relaxed); }
  int64_t Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  friend class MetricsRegistry;
  void Reset() { value_.store(0, std::memory_order_relaxed); }
  std::atomic<int64_t> value_{0};
};

/// \brief Lock-free log-linear bucketed histogram (HdrHistogram-style)
/// for latency/size distributions. Values 0..15 get exact buckets; above
/// that each power of two splits into 16 linear sub-buckets, so any
/// recorded value is reconstructed to within one sub-bucket (~6% relative
/// error) — plenty for p50/p90/p99 regression tracking. Record() is a few
/// relaxed atomic adds; no locking anywhere.
class Histogram {
 public:
  static constexpr int kSubBucketBits = 4;  // 16 sub-buckets per octave
  // Groups run 0 (exact values 0..15) through 63 - (kSubBucketBits - 1),
  // 16 sub-buckets each — covers all of uint64_t.
  static constexpr size_t kNumBuckets =
      ((64 - kSubBucketBits + 1) << kSubBucketBits);

  void Record(uint64_t value);

  uint64_t Count() const { return count_.load(std::memory_order_relaxed); }
  uint64_t Sum() const { return sum_.load(std::memory_order_relaxed); }
  /// 0 when empty.
  uint64_t Min() const;
  uint64_t Max() const { return max_.load(std::memory_order_relaxed); }
  /// Value at quantile q in [0, 1] (q=0.5 is the median), reconstructed
  /// from bucket midpoints. 0 when empty.
  uint64_t ValueAtQuantile(double q) const;

 private:
  friend class MetricsRegistry;
  static size_t BucketIndex(uint64_t value);
  static uint64_t BucketMidpoint(size_t index);
  void Reset();

  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_{0};
  std::atomic<uint64_t> min_{~0ULL};
  std::atomic<uint64_t> max_{0};
  std::array<std::atomic<uint64_t>, kNumBuckets> buckets_{};
};

/// Point-in-time copy of one histogram's summary statistics.
struct HistogramSnapshot {
  uint64_t count = 0;
  uint64_t sum = 0;
  uint64_t min = 0;
  uint64_t max = 0;
  uint64_t p50 = 0;
  uint64_t p90 = 0;
  uint64_t p99 = 0;
};

/// Point-in-time copy of every registered metric, keyed by name.
struct MetricsSnapshot {
  std::map<std::string, uint64_t> counters;
  std::map<std::string, int64_t> gauges;
  std::map<std::string, HistogramSnapshot> histograms;
};

/// \brief The process-wide metric registry. Get*() registers on first use
/// and returns a stable pointer (metrics are never destroyed), so call
/// sites cache it in a function-local static. Registering the same name
/// as two different metric types is a bug and aborts — names are the
/// public observability contract (DESIGN.md) and must stay unambiguous.
class MetricsRegistry {
 public:
  static MetricsRegistry& Global();

  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  Histogram* GetHistogram(const std::string& name);

  /// Current value of a counter, 0 if it was never registered. This is
  /// the sampling primitive behind delta-style per-operation metrics
  /// (table::MetadataCounters::Capture).
  uint64_t CounterValue(const std::string& name) const;

  MetricsSnapshot Snapshot() const;

  /// JSON object {"counters": {...}, "gauges": {...}, "histograms":
  /// {name: {count, sum, min, max, p50, p90, p99}}} — the "registry"
  /// section of every BENCH_<name>.json report.
  std::string JsonReport() const;

  /// Zero every registered metric, keeping registrations (and therefore
  /// all cached pointers) valid. Tests only: process-global, so
  /// concurrent use outside a test fixture races with live increments.
  void ResetForTest();

 private:
  MetricsRegistry() = default;

  enum class Kind { kCounter, kGauge, kHistogram };
  const char* KindName(Kind kind) const;

  mutable Mutex mu_{LockRank::kMetricsRegistry, "common.metrics_registry"};
  std::map<std::string, Kind> kinds_ GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Counter>> counters_ GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Gauge>> gauges_ GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Histogram>> histograms_
      GUARDED_BY(mu_);
};

}  // namespace streamlake

#endif  // STREAMLAKE_COMMON_METRICS_H_
