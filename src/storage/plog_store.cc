#include "storage/plog_store.h"

#include <algorithm>
#include <utility>

#include "common/hash.h"
#include "common/metrics.h"

namespace streamlake::storage {

PlogStore::PlogStore(StoragePool* pool, PlogStoreConfig config,
                     sim::SimClock* clock)
    : pool_(pool), config_(std::move(config)), clock_(clock) {
  uint32_t stripes = config_.num_stripes;
  if (stripes == 0) stripes = 1;
  if (stripes > config_.num_shards) stripes = config_.num_shards;
  if (stripes == 0) stripes = 1;  // num_shards == 0: one empty stripe
  stripes_.reserve(stripes);
  for (uint32_t i = 0; i < stripes; ++i) {
    // Stripe i owns shards {i, i + stripes, i + 2*stripes, ...}.
    size_t shard_count = config_.num_shards / stripes +
                         (i < config_.num_shards % stripes ? 1 : 0);
    stripes_.push_back(std::make_unique<Stripe>(i, shard_count));
  }
}

uint32_t PlogStore::ShardOf(ByteView key) const {
  return static_cast<uint32_t>(Hash64(key) % config_.num_shards);
}

Result<PlogAddress> PlogStore::Append(uint32_t shard, ByteView record) {
  if (shard >= config_.num_shards) {
    return Status::InvalidArgument("shard out of range");
  }
  static Counter* append_ops =
      MetricsRegistry::Global().GetCounter("storage.plog.append_ops");
  static Counter* append_bytes =
      MetricsRegistry::Global().GetCounter("storage.plog.append_bytes");
  static Counter* seals =
      MetricsRegistry::Global().GetCounter("storage.plog.seals");
  static Counter* stripe_contention =
      MetricsRegistry::Global().GetCounter("storage.plog.stripe_contention");
  Stripe& stripe = StripeFor(shard);
  bool contended = false;
  MutexLock lock(&stripe.mu, &contended);
  if (contended) stripe_contention->Increment();
  Shard& s = stripe.shards[LocalIndex(shard)];
  // Open the first PLog lazily; roll over when the active one fills up.
  for (int attempt = 0; attempt < 2; ++attempt) {
    if (s.chain.empty() || s.chain.back()->sealed()) {
      SL_ASSIGN_OR_RETURN(
          auto plog, Plog::Create(pool_, config_.plog, clock_->NowNanos()));
      s.chain.push_back(std::move(plog));
    }
    Plog* active = s.chain.back().get();
    auto offset = active->Append(record);
    if (offset.ok()) {
      active->set_last_append_ns(clock_->NowNanos());
      if (config_.io_delay_hook) config_.io_delay_hook(shard);
      append_ops->Increment();
      append_bytes->Increment(record.size());
      PlogAddress address;
      address.shard = shard;
      address.plog_index = static_cast<uint32_t>(s.chain.size() - 1);
      address.offset = *offset;
      return address;
    }
    if (!offset.status().IsResourceExhausted()) return offset.status();
    // Active PLog full: seal and retry on a fresh one.
    SL_RETURN_NOT_OK(active->Seal());
    seals->Increment();
  }
  return Status::ResourceExhausted("record larger than plog capacity");
}

Result<Plog*> PlogStore::FindLocked(const Stripe& stripe, uint32_t shard,
                                     uint32_t index) const {
  if (shard >= config_.num_shards) {
    return Status::InvalidArgument("shard out of range");
  }
  const Shard& s = stripe.shards[LocalIndex(shard)];
  if (index >= s.chain.size()) {
    return Status::NotFound("plog index out of range");
  }
  return s.chain[index].get();
}

template <typename Fn>
uint64_t PlogStore::SumPlogs(Fn&& fn) const {
  uint64_t total = 0;
  for (const auto& stripe : stripes_) {
    MutexLock lock(&stripe->mu);
    for (const Shard& s : stripe->shards) {
      for (const auto& plog : s.chain) total += fn(*plog);
    }
  }
  return total;
}

Result<Bytes> PlogStore::Read(const PlogAddress& address) const {
  static Counter* read_ops =
      MetricsRegistry::Global().GetCounter("storage.plog.read_ops");
  static Counter* read_bytes =
      MetricsRegistry::Global().GetCounter("storage.plog.read_bytes");
  static Counter* stripe_contention =
      MetricsRegistry::Global().GetCounter("storage.plog.stripe_contention");
  Stripe& stripe = StripeFor(address.shard);
  bool contended = false;
  MutexLock lock(&stripe.mu, &contended);
  if (contended) stripe_contention->Increment();
  SL_ASSIGN_OR_RETURN(Plog * plog,
                      FindLocked(stripe, address.shard, address.plog_index));
  auto data = plog->ReadRecord(address.offset);
  if (data.ok()) {
    if (config_.io_read_delay_hook) config_.io_read_delay_hook(address.shard);
    read_ops->Increment();
    read_bytes->Increment(data->size());
  }
  return data;
}

Status PlogStore::MarkGarbage(const PlogAddress& address,
                              uint64_t payload_bytes) {
  static Counter* stripe_contention =
      MetricsRegistry::Global().GetCounter("storage.plog.stripe_contention");
  Stripe& stripe = StripeFor(address.shard);
  bool contended = false;
  MutexLock lock(&stripe.mu, &contended);
  if (contended) stripe_contention->Increment();
  SL_ASSIGN_OR_RETURN(Plog * plog,
                      FindLocked(stripe, address.shard, address.plog_index));
  plog->AddGarbage(payload_bytes);
  if (plog->sealed() && plog->live_bytes() == 0) return plog->Free();
  return Status::OK();
}

Status PlogStore::FlushAll() {
  // One stripe at a time (ascending stripe index): appends on other
  // stripes proceed while this stripe's tails flush — no store-wide
  // stop-the-world point.
  for (const auto& stripe : stripes_) {
    MutexLock lock(&stripe->mu);
    for (Shard& s : stripe->shards) {
      if (!s.chain.empty() && !s.chain.back()->sealed()) {
        SL_RETURN_NOT_OK(s.chain.back()->Flush());
      }
    }
  }
  return Status::OK();
}

void PlogStore::ForEachPlog(
    const std::function<void(uint32_t, uint32_t, Plog*)>& fn) const {
  // Snapshot (shard, index, plog) triples stripe by stripe, then invoke
  // the callback with no lock held: Plog* pointers are stable for the
  // store's lifetime (chains only grow), and callbacks are free to
  // re-enter the store or take their own locks without rank inversions.
  struct Entry {
    uint32_t shard;
    uint32_t index;
    Plog* plog;
  };
  std::vector<Entry> snapshot;
  const uint32_t stripes = static_cast<uint32_t>(stripes_.size());
  for (uint32_t si = 0; si < stripes; ++si) {
    const Stripe& stripe = *stripes_[si];
    MutexLock lock(&stripe.mu);
    for (uint32_t local = 0; local < stripe.shards.size(); ++local) {
      const Shard& s = stripe.shards[local];
      uint32_t shard = local * stripes + si;
      for (uint32_t i = 0; i < s.chain.size(); ++i) {
        snapshot.push_back(Entry{shard, i, s.chain[i].get()});
      }
    }
  }
  // Visit in global shard order, matching the pre-striping iteration
  // order consumers (tiering, stats) observed.
  std::sort(snapshot.begin(), snapshot.end(),
            [](const Entry& a, const Entry& b) {
              return a.shard != b.shard ? a.shard < b.shard
                                        : a.index < b.index;
            });
  for (const Entry& e : snapshot) fn(e.shard, e.index, e.plog);
}

Status PlogStore::MigratePlog(uint32_t shard, uint32_t index,
                              StoragePool* target) {
  Plog* plog = nullptr;
  {
    Stripe& stripe = StripeFor(shard);
    MutexLock lock(&stripe.mu);
    SL_ASSIGN_OR_RETURN(plog, FindLocked(stripe, shard, index));
  }
  // Migration happens with no stripe lock held: only sealed (immutable)
  // plogs migrate, so concurrent appends to the same shard are unaffected.
  if (!plog->sealed()) {
    return Status::InvalidArgument("only sealed plogs migrate");
  }
  return plog->MigrateTo(target);
}

uint64_t PlogStore::TotalLogicalBytes() const {
  return SumPlogs([](const Plog& plog) { return plog.size(); });
}

uint64_t PlogStore::TotalLiveBytes() const {
  return SumPlogs([](const Plog& plog) { return plog.live_bytes(); });
}

uint64_t PlogStore::TotalLivePhysicalBytes() const {
  double amplification = config_.plog.redundancy.Amplification();
  return static_cast<uint64_t>(TotalLiveBytes() * amplification);
}

uint64_t PlogStore::TotalPlogs() const {
  return SumPlogs([](const Plog&) { return uint64_t{1}; });
}

}  // namespace streamlake::storage
