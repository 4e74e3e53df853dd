#include "access/admission.h"

#include <algorithm>
#include <chrono>

namespace streamlake::access {

namespace {

/// Virtual-time length of a `depth`-operation queue paced at `rate` ops/s.
uint64_t QueueCeilingNs(uint64_t depth, double rate) {
  if (rate <= 0) return 0;  // a rateless bucket cannot drain a queue
  double ns = depth / rate * 1e9;
  return ns > 1e18 ? static_cast<uint64_t>(1e18) : static_cast<uint64_t>(ns);
}

}  // namespace

AdmissionController::AdmissionController(const AdmissionConfig& config,
                                         sim::SimClock* clock)
    : config_(config),
      clock_(clock),
      cluster_queue_ceiling_ns_(
          QueueCeilingNs(config.max_queue_depth, config.cluster_ops_per_sec)),
      admitted_ops_metric_(MetricsRegistry::Global().GetCounter(
          "access.admission.admitted_ops")),
      shed_ops_metric_(
          MetricsRegistry::Global().GetCounter("access.admission.shed_ops")),
      throttled_ops_metric_(MetricsRegistry::Global().GetCounter(
          "access.admission.throttled_ops")),
      admitted_bytes_metric_(MetricsRegistry::Global().GetCounter(
          "access.admission.admitted_bytes")),
      shed_bytes_metric_(
          MetricsRegistry::Global().GetCounter("access.admission.shed_bytes")),
      wait_metric_(MetricsRegistry::Global().GetHistogram(
          "access.admission.queue_wait_ns")),
      waiters_metric_(
          MetricsRegistry::Global().GetGauge("access.admission.waiters")) {
  if (config_.cluster_ops_per_sec > 0) {
    cluster_ops_ = std::make_unique<TokenBucket>(config_.cluster_ops_per_sec,
                                                 config_.cluster_burst_ops);
  }
  if (config_.cluster_bytes_per_sec > 0) {
    cluster_bytes_ = std::make_unique<TokenBucket>(
        config_.cluster_bytes_per_sec, config_.cluster_burst_bytes);
  }
}

std::string AdmissionController::MetricName(const std::string& tenant,
                                            const char* metric) {
  std::string safe = tenant;
  for (char& c : safe) {
    if (c == '.' || c == ' ') c = '_';
  }
  return "tenant." + safe + "." + metric;
}

AdmissionController::TenantState* AdmissionController::GetTenantLocked(
    const std::string& tenant) {
  auto it = tenants_.find(tenant);
  if (it != tenants_.end()) return &it->second;
  TenantState state;
  if (config_.per_tenant_isolation) {
    state.ops_bucket = std::make_unique<TokenBucket>(
        config_.default_quota.ops_per_sec, config_.default_quota.burst_ops);
    state.bytes_bucket = std::make_unique<TokenBucket>(
        config_.default_quota.bytes_per_sec,
        config_.default_quota.burst_bytes);
    state.queue_ceiling_ns = QueueCeilingNs(config_.max_queue_depth,
                                            config_.default_quota.ops_per_sec);
  }
  if (tracked_tenants_ < config_.max_tracked_tenants) {
    ++tracked_tenants_;
    MetricsRegistry& registry = MetricsRegistry::Global();
    state.admitted_metric =
        registry.GetCounter(MetricName(tenant, "admitted_ops"));
    state.shed_metric = registry.GetCounter(MetricName(tenant, "shed_ops"));
    state.wait_metric =
        registry.GetHistogram(MetricName(tenant, "queue_wait_ns"));
    state.latency_metric =
        registry.GetHistogram(MetricName(tenant, "latency_ns"));
  }
  return &tenants_.emplace(tenant, std::move(state)).first->second;
}

AdmissionController::Charges AdmissionController::ChargesLocked(
    const TenantState* t, uint64_t ops, uint64_t bytes) const {
  Charges charges;
  auto add = [&](TokenBucket* bucket, uint64_t cost, uint64_t ceiling_ns) {
    if (bucket != nullptr) {
      charges.items[charges.size++] = {bucket, static_cast<double>(cost),
                                       ceiling_ns};
    }
  };
  add(t->ops_bucket.get(), ops, t->queue_ceiling_ns);
  if (bytes > 0) add(t->bytes_bucket.get(), bytes, t->queue_ceiling_ns);
  add(cluster_ops_.get(), ops, cluster_queue_ceiling_ns_);
  if (bytes > 0) add(cluster_bytes_.get(), bytes, cluster_queue_ceiling_ns_);
  return charges;
}

void AdmissionController::Charges::RefundFirst(size_t n) const {
  for (size_t i = 0; i < n; ++i) items[i].bucket->Refund(items[i].cost);
}

uint64_t AdmissionController::ReserveAllLocked(TenantState* t, uint64_t ops,
                                               uint64_t bytes,
                                               uint64_t now_ns) {
  const Charges charges = ChargesLocked(t, ops, bytes);
  uint64_t wait = 0;
  for (size_t i = 0; i < charges.size; ++i) {
    const Charge& c = charges.items[i];
    uint64_t w = c.bucket->Reserve(now_ns, c.cost, c.ceiling_ns);
    if (w == TokenBucket::kNever) {
      charges.RefundFirst(i);
      return TokenBucket::kNever;
    }
    wait = std::max(wait, w);
  }
  return wait;
}

bool AdmissionController::TryConsumeAllLocked(TenantState* t, uint64_t ops,
                                              uint64_t bytes,
                                              uint64_t now_ns) {
  const Charges charges = ChargesLocked(t, ops, bytes);
  for (size_t i = 0; i < charges.size; ++i) {
    const Charge& c = charges.items[i];
    if (!c.bucket->TryConsume(now_ns, c.cost)) {
      charges.RefundFirst(i);
      return false;
    }
  }
  return true;
}

void AdmissionController::CountAdmittedLocked(TenantState* t, uint64_t ops,
                                              uint64_t bytes,
                                              uint64_t wait_ns) {
  t->stats.offered_ops += ops;
  t->stats.admitted_ops += ops;
  t->stats.admitted_bytes += bytes;
  t->stats.wait_ns_total += wait_ns;
  admitted_ops_metric_->Increment(ops);
  admitted_bytes_metric_->Increment(bytes);
  wait_metric_->Record(wait_ns);
  if (wait_ns > 0) {
    t->stats.throttled_ops += ops;
    throttled_ops_metric_->Increment(ops);
  }
  if (t->admitted_metric != nullptr) t->admitted_metric->Increment(ops);
  if (t->wait_metric != nullptr) t->wait_metric->Record(wait_ns);
}

void AdmissionController::CountShedLocked(TenantState* t, uint64_t ops,
                                          uint64_t bytes) {
  t->stats.offered_ops += ops;
  t->stats.shed_ops += ops;
  t->stats.shed_bytes += bytes;
  shed_ops_metric_->Increment(ops);
  shed_bytes_metric_->Increment(bytes);
  if (t->shed_metric != nullptr) t->shed_metric->Increment(ops);
}

Result<AdmitTicket> AdmissionController::Admit(const std::string& tenant,
                                               AdmitOp op, uint64_t ops,
                                               uint64_t bytes) {
  return AdmitAt(tenant, op, ops, bytes, clock_->NowNanos());
}

Result<AdmitTicket> AdmissionController::AdmitAt(const std::string& tenant,
                                                 AdmitOp op, uint64_t ops,
                                                 uint64_t bytes,
                                                 uint64_t now_ns) {
  if (!config_.enabled) return AdmitTicket{};
  MutexLock lock(&mu_);
  TenantState* state = GetTenantLocked(tenant);
  uint64_t wait = ReserveAllLocked(state, ops, bytes, now_ns);
  if (wait == TokenBucket::kNever) {
    CountShedLocked(state, ops, bytes);
    return Status::ResourceExhausted("admission queue full: tenant '" +
                                     tenant + "' " + AdmitOpName(op));
  }
  CountAdmittedLocked(state, ops, bytes, wait);
  return AdmitTicket{wait};
}

Result<AdmitTicket> AdmissionController::AdmitBlocking(
    const std::string& tenant, AdmitOp op, uint64_t ops, uint64_t bytes) {
  if (!config_.enabled) return AdmitTicket{};
  const uint64_t start_ns = clock_->NowNanos();
  const auto wall_deadline =
      std::chrono::steady_clock::now() +
      std::chrono::milliseconds(config_.max_blocking_wall_ms);
  MutexLock lock(&mu_);
  TenantState* state = GetTenantLocked(tenant);
  if (state->waiters >= config_.max_queue_depth) {
    // The waiter queue is full: shed right away rather than pile on — a
    // caller must never hang behind an unbounded crowd.
    CountShedLocked(state, ops, bytes);
    return Status::ResourceExhausted("admission waiters full: tenant '" +
                                     tenant + "' " + AdmitOpName(op));
  }
  // A request no refill can ever back (cost above burst, or a rateless
  // empty bucket) must shed, not block until the wall timeout.
  uint64_t probe_ns = clock_->NowNanos();
  const Charges charges = ChargesLocked(state, ops, bytes);
  bool never = false;
  for (size_t i = 0; i < charges.size && !never; ++i) {
    never = charges.items[i].bucket->NanosUntilAvailable(
                probe_ns, charges.items[i].cost) == TokenBucket::kNever;
  }
  if (never) {
    CountShedLocked(state, ops, bytes);
    return Status::ResourceExhausted("request exceeds quota burst: tenant '" +
                                     tenant + "' " + AdmitOpName(op));
  }
  bool waiting = false;
  for (;;) {
    uint64_t now = clock_->NowNanos();
    if (TryConsumeAllLocked(state, ops, bytes, now)) {
      if (waiting) {
        --state->waiters;
        waiters_metric_->Add(-1);
      }
      uint64_t wait_ns = now - start_ns;
      CountAdmittedLocked(state, ops, bytes, wait_ns);
      return AdmitTicket{wait_ns};
    }
    if (!waiting) {
      waiting = true;
      ++state->waiters;
      waiters_metric_->Add(1);
    }
    if (std::chrono::steady_clock::now() >= wall_deadline) {
      --state->waiters;
      waiters_metric_->Add(-1);
      CountShedLocked(state, ops, bytes);
      return Status::Timeout("admission backpressure wall timeout: tenant '" +
                             tenant + "' " + AdmitOpName(op));
    }
    // Re-check on every Poll() (clock advanced) or millisecond tick; the
    // wait releases mu_, so pollers and other admitters make progress.
    throttle_cv_.WaitFor(&mu_, std::chrono::milliseconds(1));
  }
}

void AdmissionController::Poll() { throttle_cv_.NotifyAll(); }

void AdmissionController::RecordLatency(const std::string& tenant,
                                        uint64_t latency_ns) {
  MutexLock lock(&mu_);
  auto it = tenants_.find(tenant);
  if (it == tenants_.end()) return;
  if (it->second.latency_metric != nullptr) {
    it->second.latency_metric->Record(latency_ns);
  }
}

AdmissionController::TenantStats AdmissionController::GetStats(
    const std::string& tenant) const {
  MutexLock lock(&mu_);
  auto it = tenants_.find(tenant);
  return it == tenants_.end() ? TenantStats{} : it->second.stats;
}

std::map<std::string, AdmissionController::TenantStats>
AdmissionController::AllStats() const {
  MutexLock lock(&mu_);
  std::map<std::string, TenantStats> out;
  for (const auto& [tenant, state] : tenants_) out.emplace(tenant, state.stats);
  return out;
}

}  // namespace streamlake::access
