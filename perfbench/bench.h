// Shared plumbing of the end-to-end benchmark runner: run options, latency
// samples, the span tracer, registry/process probes, and the outcome every
// workload hands back to main.cc for printing.
#ifndef STREAMLAKE_PERFBENCH_BENCH_H_
#define STREAMLAKE_PERFBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/streamlake.h"

namespace perfbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string spans_out;  // where the traced run writes its spans
};

/// Wall-clock nanoseconds on the steady clock.
inline uint64_t WallNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Seed of one generator, derived from the run seed and a fixed stream tag
/// so that every generator of a run draws an independent sequence.
uint64_t DeriveSeed(uint64_t seed, uint64_t stream);

/// Epoch schedule of the replaying workloads: epochs run in pairs, both
/// epochs of pair k replay input set k on fresh deployments (so their
/// deterministic counts must match), and a run stops after the pair during
/// which its timed windows reach `seconds`.
inline bool MoreEpochs(int epoch, double timed_s, double seconds) {
  return epoch < 2 || epoch % 2 == 1 || timed_s < seconds;
}
inline int InputSetOf(int epoch) { return epoch / 2; }

/// Latency samples of one operation class, in milliseconds.
class Samples {
 public:
  void Add(double ms) { values_.push_back(ms); }
  size_t count() const { return values_.size(); }
  /// Nearest-rank quantile; 0 when empty.
  double Quantile(double q) const;
  double Mean() const;
  double Sum() const;

 private:
  std::vector<double> values_;
};

/// \brief In-memory span recorder of the traced run. Each span carries its
/// name, start and end, the client operation it belongs to, and its parent
/// span; spans are only recorded while the tracer is active, which is true
/// for half of the client operations so that the untraced half measures
/// the tracing overhead.
class Tracer {
 public:
  struct Record {
    const char* name;
    uint64_t start_ns;
    uint64_t end_ns;
    uint64_t op_id;
    int64_t parent;  // index into records, -1 for a root span
  };

  /// RAII span: records [construction, destruction) when the tracer was
  /// active at construction.
  class Span {
   public:
    Span(Tracer* tracer, const char* name);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    Tracer* tracer_;
    int64_t index_ = -1;
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  bool active() const { return active_; }
  /// Start client operation `n` of the run: a traced run traces about
  /// half of its operations, picked by a deterministic coin per `n`.
  void BeginOp(uint64_t n);
  void SetActive(bool active) { active_ = enabled_ && active; }

  /// Durations (ms) of every recorded span called `name`.
  Samples Durations(const std::string& name) const;

  struct SelfTime {
    uint64_t calls = 0;
    double total_ms = 0;
    double self_ms = 0;
  };
  /// Per span name: calls, total time, and self time (total minus the time
  /// of direct children).
  std::map<std::string, SelfTime> SelfTimes() const;

  /// Write every span as one JSON object per line.
  bool WriteSpans(const std::string& path) const;

 private:
  bool enabled_;
  bool active_ = false;
  uint64_t op_id_ = 0;
  std::vector<Record> records_;
  std::vector<int64_t> open_;  // stack of open span indices
};

/// Value of a registry counter (0 when never registered).
uint64_t CounterValue(const std::string& name);

/// Registry counters sampled at one point; Delta() subtracts an earlier
/// sample.
class CounterSample {
 public:
  static CounterSample Take();
  uint64_t Delta(const CounterSample& start, const std::string& name) const;
  const std::map<std::string, uint64_t>& values() const { return values_; }

 private:
  std::map<std::string, uint64_t> values_;
};

/// Process CPU seconds (user + system, all threads).
double ProcessCpuSeconds();
/// Peak resident set of the process in MiB.
double PeakRssMb();

/// Deterministic counts of one epoch. With a single client every field
/// must repeat exactly whenever the same inputs are replayed on a fresh
/// deployment in the same process; main.cc asserts this across the epochs
/// of a run that share an input set. (Across processes sim_ns can differ:
/// data file names embed a stack address, see README.md.)
struct Fingerprint {
  int input_set = 0;
  uint64_t sim_ns = 0;
  uint64_t live_physical_bytes = 0;
  uint64_t user_bytes = 0;
  uint64_t plog_append_ops = 0;
  uint64_t kv_write_ops = 0;
  uint64_t commits = 0;

  bool operator==(const Fingerprint& o) const {
    return sim_ns == o.sim_ns && live_physical_bytes == o.live_physical_bytes &&
           user_bytes == o.user_bytes && plog_append_ops == o.plog_append_ops &&
           kv_write_ops == o.kv_write_ops && commits == o.commits;
  }
  std::string ToString() const;
};

/// Registry counts at the start of an epoch, the base of its fingerprint.
struct EpochStart {
  uint64_t plog_append_ops = 0;
  uint64_t kv_write_ops = 0;
  static EpochStart Take();
};

/// The fingerprint of an epoch that started at `start` on `lake`.
Fingerprint TakeFingerprint(streamlake::core::StreamLake& lake,
                            const EpochStart& start, int input_set,
                            uint64_t user_bytes);

/// One reported metric; `samples` is set for percentiles.
struct Metric {
  double value = 0;
  std::string unit;
  size_t samples = 0;
};

/// The p99 of `s` as a metric, carrying its sample count.
inline Metric P99(const Samples& s) {
  return Metric{s.Quantile(0.99), "ms", s.count()};
}

/// What a workload run hands back to main.cc.
struct Outcome {
  uint64_t attempted = 0;
  uint64_t failed = 0;           // non-OK Status or wrong result
  std::vector<std::string> problems;  // first few failure descriptions
  bool deterministic = true;     // fingerprints of equal inputs matched
  std::vector<Fingerprint> fingerprints;
  Samples setup_s;               // one sample per deployment set-up

  /// End-to-end metrics under the names of BENCHMARK.json.
  std::map<std::string, Metric> end_to_end;
  /// The same numbers under the workload's own names (produce_p50_ms,
  /// query_p50_ms, ...), printed for humans.
  std::vector<std::pair<std::string, Metric>> named;
  /// Per-layer metrics of the traced run.
  std::map<std::string, Metric> per_layer;
  /// Sizes and ratios worth recording next to the numbers.
  std::vector<std::pair<std::string, std::string>> notes;

  /// Count one operation; a non-OK status counts as failed.
  void Op(const streamlake::Status& status, const std::string& what);
  /// Count one result check; a false `ok` counts as failed.
  void Check(bool ok, const std::string& what);
};

/// Deployment-wide byte and commit probes shared by the workloads.
struct DeploymentProbe {
  uint64_t device_bytes_written = 0;
  uint64_t commits = 0;  // table commits so far, summed over every table
  static DeploymentProbe Take(streamlake::core::StreamLake& lake);
};

/// Counter, device, CPU and wall deltas summed over the timed windows of
/// every epoch of a run (set-up and checks excluded). The workload adds
/// its op, query and byte counts.
class LayerWindow {
 public:
  void Begin(streamlake::core::StreamLake& lake);
  void End(streamlake::core::StreamLake& lake);

  uint64_t Delta(const std::string& counter) const;

  uint64_t device_bytes_written = 0;
  uint64_t commits = 0;
  double wall_s = 0;
  double cpu_s = 0;
  uint64_t ops = 0;
  uint64_t queries = 0;
  uint64_t join_queries = 0;
  uint64_t user_bytes = 0;

 private:
  std::map<std::string, uint64_t> deltas_;
  CounterSample counters_;
  DeploymentProbe probe_;
  uint64_t wall_ns_ = 0;
  double cpu_ = 0;
};

/// Set one per-layer metric under its registered unit.
void SetLayer(Outcome* out, const std::string& name, double value);

/// Fill the per-layer metrics every workload shares from the window's
/// deltas and the tracer's spans; unset metrics report 0.
void FillPerLayer(const LayerWindow& window, const Tracer& tracer,
                  Outcome* out);

/// Names of every per-layer metric, in BENCHMARK.json order; workloads
/// that leave one unset report 0.
const std::vector<std::pair<std::string, std::string>>& PerLayerNames();
/// Span names whose self time is reported as per-layer metrics.
const std::vector<std::string>& TracedSpanNames();

Outcome RunIngest(const RunOptions& options, Tracer* tracer);
Outcome RunAnalytics(const RunOptions& options, Tracer* tracer);
Outcome RunLakehouseMixed(const RunOptions& options, Tracer* tracer);

}  // namespace perfbench

#endif  // STREAMLAKE_PERFBENCH_BENCH_H_
