#ifndef STREAMLAKE_ACCESS_ADMISSION_H_
#define STREAMLAKE_ACCESS_ADMISSION_H_

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/admission_gate.h"
#include "common/metrics.h"
#include "common/mutex.h"
#include "common/token_bucket.h"
#include "sim/clock.h"

namespace streamlake::access {

/// Per-tenant quota: operation and byte rates with their burst allowances.
/// A zero rate with zero burst is a legal "deny everything" quota.
struct TenantQuota {
  double ops_per_sec = 1000;
  double bytes_per_sec = 16.0 * (1 << 20);
  double burst_ops = 100;
  double burst_bytes = 1 << 20;
};

/// Configuration of the admission layer (plumbed through
/// `core::StreamLakeOptions::admission`).
struct AdmissionConfig {
  /// Disabled: every request is admitted immediately with no accounting.
  bool enabled = false;

  /// Quota applied to every tenant on first contact.
  TenantQuota default_quota;

  /// When false, per-tenant buckets are bypassed and only the cluster
  /// buckets meter traffic — the "no isolation" ablation of
  /// bench_cluster_scale, where a hot tenant's flood queues everyone.
  bool per_tenant_isolation = true;

  /// Aggregate cluster capacity; 0 = unmetered. When both this and
  /// isolation are active, per-tenant quotas should sum to at most the
  /// cluster rate so the per-tenant buckets clip first.
  double cluster_ops_per_sec = 0;
  double cluster_bytes_per_sec = 0;
  double cluster_burst_ops = 1000;
  double cluster_burst_bytes = 16.0 * (1 << 20);

  /// Bounded admission queue, in operations: a request that would have to
  /// wait behind more than this many quota-paced ops (equivalently,
  /// longer than max_queue_depth / ops_per_sec seconds of virtual time)
  /// is shed with kResourceExhausted instead of queued. Also bounds the
  /// number of concurrently blocked AdmitBlocking callers per tenant.
  uint64_t max_queue_depth = 64;

  /// Per-tenant registry metrics (`tenant.<id>.*`) are created for the
  /// first this-many distinct tenants only; later tenants keep exact
  /// stats (TenantStats) but stay out of the registry, so a million-tenant
  /// simulation cannot flood the metric namespace.
  size_t max_tracked_tenants = 8;

  /// Wall-clock safety valve for AdmitBlocking: give up with kTimeout if
  /// the throttle window has not passed after this long (a stuck clock in
  /// a test must fail, not hang CI).
  uint64_t max_blocking_wall_ms = 30000;

  /// When true (default) the core facade hands the gate to the S3
  /// gateway, block service, and producers so every in-path request is
  /// metered where it enters. A front end that meters at its own door
  /// with explicit event times — workload::ClusterDriver — sets this
  /// false so each request pays admission exactly once.
  bool gate_access_layer = true;
};

/// \brief Per-tenant admission control with bounded queues — the QoS gate
/// in front of every access-layer entry point (S3 gateway, block service,
/// producers, the cluster driver's query/convert traffic).
///
/// Each tenant gets an ops bucket and a bytes bucket (`common::TokenBucket`)
/// refilled on the simulated clock; an optional cluster-wide pair meters
/// aggregate capacity. A request reserves tokens from every applicable
/// bucket: available now → admitted (wait 0); available within the
/// bounded queue window → admitted with a positive virtual wait the
/// caller charges to its latency (throttled); beyond the window → shed
/// with kResourceExhausted and nothing consumed. `AdmitBlocking` is the
/// closed-loop variant (producer backpressure): it waits for the window
/// on the simulated clock instead of reserving ahead, and sheds
/// immediately when the tenant's waiter queue is full.
///
/// Decisions are a pure function of the presented (tenant, time, cost)
/// sequence, so per-tenant counters are bit-deterministic for any driver
/// that feeds per-tenant-monotonic virtual times — the property the CI
/// fairness gate relies on.
///
/// Metrics: `access.admission.{admitted_ops,shed_ops,throttled_ops,
/// admitted_bytes,shed_bytes}`, histogram `access.admission.queue_wait_ns`,
/// gauge `access.admission.waiters`; per-tenant `tenant.<id>.{admitted_ops,
/// shed_ops,queue_wait_ns,latency_ns}` capped to the tracked-tenant set.
class AdmissionController : public AdmissionGate {
 public:
  AdmissionController(const AdmissionConfig& config, sim::SimClock* clock);

  /// Non-blocking gate at the current simulated time.
  Result<AdmitTicket> Admit(const std::string& tenant, AdmitOp op,
                            uint64_t ops, uint64_t bytes) override;

  /// Non-blocking gate at an explicit virtual time — the open-loop driver
  /// path: each arrival is judged at its own (per-tenant monotonic) event
  /// time, which keeps decisions independent of driver threading.
  Result<AdmitTicket> AdmitAt(const std::string& tenant, AdmitOp op,
                              uint64_t ops, uint64_t bytes, uint64_t now_ns);

  /// Blocking gate (backpressure). Re-checks the buckets at the simulated
  /// clock each wakeup; call Poll() after advancing the clock.
  Result<AdmitTicket> AdmitBlocking(const std::string& tenant, AdmitOp op,
                                    uint64_t ops, uint64_t bytes) override;

  /// Wake blocked AdmitBlocking callers to re-check their buckets (call
  /// after advancing the simulated clock past a throttle window).
  void Poll();

  /// Record one admitted request's end-to-end latency (queue wait plus
  /// service) against the tenant's tracked histogram, if tracked.
  void RecordLatency(const std::string& tenant, uint64_t latency_ns);

  /// Exact per-tenant totals, kept for every tenant regardless of the
  /// tracked-metric cap.
  struct TenantStats {
    uint64_t offered_ops = 0;
    uint64_t admitted_ops = 0;
    uint64_t shed_ops = 0;
    uint64_t throttled_ops = 0;  // admitted with a positive queue wait
    uint64_t admitted_bytes = 0;
    uint64_t shed_bytes = 0;
    uint64_t wait_ns_total = 0;
  };
  TenantStats GetStats(const std::string& tenant) const;
  std::map<std::string, TenantStats> AllStats() const;

  const AdmissionConfig& config() const { return config_; }

 private:
  struct TenantState {
    std::unique_ptr<TokenBucket> ops_bucket;    // null when !isolation
    std::unique_ptr<TokenBucket> bytes_bucket;  // null when !isolation
    uint64_t queue_ceiling_ns = 0;  // max_queue_depth in virtual time
    uint64_t waiters = 0;           // blocked AdmitBlocking callers
    TenantStats stats;
    // Registry metrics; null beyond the tracked-tenant cap.
    Counter* admitted_metric = nullptr;
    Counter* shed_metric = nullptr;
    Histogram* wait_metric = nullptr;
    Histogram* latency_metric = nullptr;
  };

  /// One bucket a request draws from, with its cost and queue ceiling.
  struct Charge {
    TokenBucket* bucket = nullptr;
    double cost = 0;
    uint64_t ceiling_ns = 0;
  };
  /// The buckets a request draws from, in order: tenant ops, tenant bytes
  /// (if bytes > 0), cluster ops, cluster bytes (if bytes > 0); absent
  /// buckets are skipped.
  struct Charges {
    std::array<Charge, 4> items;
    size_t size = 0;
    /// Give back the first `n` charges (a refusal's reserved prefix).
    void RefundFirst(size_t n) const;
  };

  TenantState* GetTenantLocked(const std::string& tenant) REQUIRES(mu_);
  Charges ChargesLocked(const TenantState* t, uint64_t ops,
                        uint64_t bytes) const REQUIRES(mu_);
  /// Reserve from every charged bucket in order, rolling back on a
  /// queue-full refusal. Returns kNever on refusal, else the max wait
  /// across buckets.
  uint64_t ReserveAllLocked(TenantState* t, uint64_t ops, uint64_t bytes,
                            uint64_t now_ns) REQUIRES(mu_);
  /// All-or-nothing immediate consume (blocking path re-checks).
  bool TryConsumeAllLocked(TenantState* t, uint64_t ops, uint64_t bytes,
                           uint64_t now_ns) REQUIRES(mu_);
  void CountAdmittedLocked(TenantState* t, uint64_t ops, uint64_t bytes,
                           uint64_t wait_ns) REQUIRES(mu_);
  void CountShedLocked(TenantState* t, uint64_t ops, uint64_t bytes)
      REQUIRES(mu_);
  static std::string MetricName(const std::string& tenant,
                                const char* metric);

  const AdmissionConfig config_;
  sim::SimClock* const clock_;
  const uint64_t cluster_queue_ceiling_ns_;

  // Process-wide roll-ups; registered once in the constructor.
  Counter* const admitted_ops_metric_;
  Counter* const shed_ops_metric_;
  Counter* const throttled_ops_metric_;
  Counter* const admitted_bytes_metric_;
  Counter* const shed_bytes_metric_;
  Histogram* const wait_metric_;
  Gauge* const waiters_metric_;

  mutable Mutex mu_{LockRank::kAdmission, "access.admission"};
  CondVar throttle_cv_;
  std::unique_ptr<TokenBucket> cluster_ops_ GUARDED_BY(mu_);
  std::unique_ptr<TokenBucket> cluster_bytes_ GUARDED_BY(mu_);
  std::map<std::string, TenantState> tenants_ GUARDED_BY(mu_);
  size_t tracked_tenants_ GUARDED_BY(mu_) = 0;
};

}  // namespace streamlake::access

#endif  // STREAMLAKE_ACCESS_ADMISSION_H_
