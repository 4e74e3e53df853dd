#include "common/mutex.h"
#include "kv/kv_store.h"

#include <algorithm>

#include "common/hash.h"
#include "common/metrics.h"

namespace streamlake::kv {

KvStore::KvStore(KvOptions options) : options_(options) {
  stripes_.reserve(kStripes);
  for (size_t i = 0; i < kStripes; ++i) {
    stripes_.push_back(std::make_unique<Stripe>(static_cast<uint32_t>(i)));
  }
}

size_t KvStore::StripeOf(std::string_view key) const {
  return static_cast<size_t>(Hash64(ByteView(key)) % stripes_.size());
}

// Dynamic lock set (one writer lock per touched stripe, ascending index
// order): invisible to Clang's static analysis, validated at runtime by
// the ranked-mutex checker via the stripe sub-rank.
Status KvStore::Write(const WriteBatch& batch) NO_THREAD_SAFETY_ANALYSIS {
  if (batch.empty()) return Status::OK();
  static Counter* batches =
      MetricsRegistry::Global().GetCounter("kv.write.batches");
  static Counter* ops = MetricsRegistry::Global().GetCounter("kv.write.ops");
  static Counter* bytes =
      MetricsRegistry::Global().GetCounter("kv.write.bytes");
  static Counter* stripe_contention =
      MetricsRegistry::Global().GetCounter("kv.stripe_contention");
  Bytes record;
  batch.EncodeTo(&record);
  const size_t record_size = record.size();
  batches->Increment();
  ops->Increment(batch.ops().size());
  bytes->Increment(record_size);

  // Group the commit by stripe: sorted unique indices, acquired ascending
  // (the only order the lock-rank checker permits for same-rank stripes),
  // so two batches touching overlapping stripe sets can never ABBA.
  std::vector<size_t> touched;
  touched.reserve(batch.ops().size());
  for (const WriteBatch::Op& op : batch.ops()) {
    touched.push_back(StripeOf(op.key));
  }
  std::sort(touched.begin(), touched.end());
  touched.erase(std::unique(touched.begin(), touched.end()), touched.end());

  for (size_t si : touched) {
    if (stripes_[si]->mu.LockCounted()) stripe_contention->Increment();
  }
  // Every op is applied while every touched stripe is writer-held (see
  // the Stripe invariant in the header), so scans never observe a partial
  // batch.
  const uint64_t seq = sequence_.fetch_add(1) + 1;
  for (const WriteBatch::Op& op : batch.ops()) {
    Stripe& stripe = *stripes_[StripeOf(op.key)];
    if (op.is_delete) {
      stripe.table.erase(op.key);
    } else {
      stripe.table.insert_or_assign(op.key, op.value);
    }
  }
  // The whole batch is one WAL record, segmented onto the lowest touched
  // stripe; WalContents() k-way merges segments back into commit order.
  stripes_[touched.front()]->wal.emplace_back(seq, std::move(record));
  for (auto it = touched.rbegin(); it != touched.rend(); ++it) {
    stripes_[*it]->mu.Unlock();
  }

  if (options_.wal_device != nullptr) {
    options_.wal_device->ChargeWrite(record_size);
  }
  return Status::OK();
}

Status KvStore::Put(std::string_view key, std::string_view value) {
  WriteBatch batch;
  batch.Put(std::string(key), std::string(value));
  return Write(batch);
}

Status KvStore::Delete(std::string_view key) {
  WriteBatch batch;
  batch.Delete(std::string(key));
  return Write(batch);
}

Result<std::string> KvStore::Get(std::string_view key) const {
  static Counter* gets = MetricsRegistry::Global().GetCounter("kv.get.ops");
  static Counter* hits = MetricsRegistry::Global().GetCounter("kv.get.hits");
  static Counter* misses =
      MetricsRegistry::Global().GetCounter("kv.get.misses");
  static Counter* stripe_contention =
      MetricsRegistry::Global().GetCounter("kv.stripe_contention");
  gets->Increment();
  if (options_.read_device != nullptr) {
    options_.read_device->ChargeRead(key.size() + 64);
  }
  const Stripe& stripe = *stripes_[StripeOf(key)];
  bool contended = false;
  ReaderMutexLock lock(&stripe.mu, &contended);
  if (contended) stripe_contention->Increment();
  auto it = stripe.table.find(key);
  if (it == stripe.table.end()) {
    misses->Increment();
    return Status::NotFound(std::string(key));
  }
  hits->Increment();
  return it->second;
}

// Dynamic lock set (every stripe's reader lock, ascending index order), as
// in Write: validated at runtime by the ranked-mutex checker.
std::vector<std::pair<std::string, std::string>> KvStore::Scan(
    std::string_view prefix, size_t limit) const NO_THREAD_SAFETY_ANALYSIS {
  static Counter* scans = MetricsRegistry::Global().GetCounter("kv.scan.ops");
  static Counter* rows = MetricsRegistry::Global().GetCounter("kv.scan.rows");
  scans->Increment();
  // Every key lives in exactly one stripe, so the global first-`limit` keys
  // are among the stripes' first-`limit` keys: collect those, then sort.
  // All reader locks are held until the collection ends, so a batch that
  // spans stripes is seen whole or not at all.
  std::vector<std::pair<std::string, std::string>> out;
  for (const auto& stripe : stripes_) stripe->mu.LockShared();
  for (const auto& stripe : stripes_) {
    size_t taken = 0;
    for (auto it = stripe->table.lower_bound(prefix);
         it != stripe->table.end() && it->first.starts_with(prefix) &&
         taken < limit;
         ++it, ++taken) {
      out.emplace_back(it->first, it->second);
    }
  }
  for (auto it = stripes_.rbegin(); it != stripes_.rend(); ++it) {
    (*it)->mu.UnlockShared();
  }
  std::sort(out.begin(), out.end());
  if (out.size() > limit) out.resize(limit);
  if (options_.read_device != nullptr) {
    size_t bytes = 0;
    for (const auto& [k, v] : out) bytes += k.size() + v.size();
    options_.read_device->ChargeRead(bytes + 64);
  }
  rows->Increment(out.size());
  return out;
}

size_t KvStore::LiveKeyCount() const {
  size_t count = 0;
  for (const auto& stripe : stripes_) {
    ReaderMutexLock lock(&stripe->mu);
    count += stripe->table.size();
  }
  return count;
}

uint64_t KvStore::LatestSequence() const {
  return sequence_.load(std::memory_order_acquire);
}

Bytes KvStore::WalContents() const {
  // Each stripe holds a WAL segment of (sequence, record) pairs; merge by
  // global commit sequence so replay order equals commit order (the torn-
  // tail guarantee: truncation always clips the NEWEST commit).
  std::vector<std::pair<uint64_t, Bytes>> entries;
  for (const auto& stripe : stripes_) {
    ReaderMutexLock lock(&stripe->mu);
    entries.insert(entries.end(), stripe->wal.begin(), stripe->wal.end());
  }
  std::sort(entries.begin(), entries.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  Bytes out;
  for (const auto& [seq, rec] : entries) {
    AppendBytes(&out, ByteView(rec));
  }
  return out;
}

Result<size_t> KvStore::Recover(ByteView wal) {
  // Checked by sequence, not by contents: a store whose keys were all
  // deleted is empty but has committed batches.
  if (LatestSequence() != 0) {
    return Status::InvalidArgument("Recover requires an empty store");
  }
  size_t applied = 0;
  size_t offset = 0;
  while (offset < wal.size()) {
    WriteBatch batch;
    size_t consumed =
        batch.DecodeFrom(wal.subview(offset, wal.size() - offset));
    if (consumed == 0) break;  // torn tail; stop cleanly like a real WAL
    SL_RETURN_NOT_OK(Write(batch));
    offset += consumed;
    ++applied;
  }
  return applied;
}

}  // namespace streamlake::kv
