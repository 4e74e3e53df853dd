#include "stream/stream_object.h"

#include <algorithm>

#include "common/metrics.h"

namespace streamlake::stream {

// ---------------- ScmSliceCache ----------------

const std::vector<StreamRecord>* ScmSliceCache::Get(uint64_t object_id,
                                                    uint64_t slice_seq) {
  // Per-instance hits_/misses_ back the cache's own accessors; the
  // registry counters aggregate across instances for observability.
  static Counter* cache_hits =
      MetricsRegistry::Global().GetCounter("stream.scm_cache.hits");
  static Counter* cache_misses =
      MetricsRegistry::Global().GetCounter("stream.scm_cache.misses");
  MutexLock lock(&mu_);
  auto it = index_.find({object_id, slice_seq});
  if (it == index_.end()) {
    ++misses_;
    cache_misses->Increment();
    return nullptr;
  }
  ++hits_;
  cache_hits->Increment();
  lru_.splice(lru_.begin(), lru_, it->second);  // move to front
  if (pmem_ != nullptr) pmem_->ChargeRead(it->second->bytes);
  return &it->second->records;
}

void ScmSliceCache::Put(uint64_t object_id, uint64_t slice_seq,
                        std::vector<StreamRecord> records) {
  MutexLock lock(&mu_);
  Key key{object_id, slice_seq};
  if (index_.count(key)) return;
  Entry entry;
  entry.key = key;
  entry.bytes = 0;
  for (const StreamRecord& r : records) entry.bytes += r.ByteSize();
  entry.records = std::move(records);
  if (pmem_ != nullptr) pmem_->ChargeWrite(entry.bytes);
  lru_.push_front(std::move(entry));
  index_[key] = lru_.begin();
  while (lru_.size() > capacity_) {
    index_.erase(lru_.back().key);
    lru_.pop_back();
  }
}

// ---------------- StreamObject ----------------

StreamObject::StreamObject(uint64_t id, storage::PlogStore* plogs,
                           kv::KvStore* index, sim::SimClock* clock,
                           StreamObjectOptions options, ScmSliceCache* cache,
                           ThreadPool* io_pool)
    : id_(id),
      plogs_(plogs),
      index_(index),
      clock_(clock),
      options_(options),
      cache_(cache),
      io_pool_(io_pool),
      quota_epoch_ns_(clock->NowNanos()) {}

namespace {

std::string ObjectMetaKey(uint64_t object_id) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "so/%016llu/meta",
                static_cast<unsigned long long>(object_id));
  return buf;
}

void EncodeObjectOptions(const StreamObjectOptions& options, Bytes* dst) {
  dst->push_back(options.redundancy.scheme ==
                         storage::RedundancyConfig::Scheme::kReplication
                     ? 0
                     : 1);
  PutVarint64(dst, options.redundancy.replicas);
  PutVarint64(dst, options.redundancy.ec_data);
  PutVarint64(dst, options.redundancy.ec_parity);
  PutVarint64(dst, options.io_quota_records_per_sec);
  dst->push_back(options.io_aggregation ? 1 : 0);
  PutVarint64(dst, options.records_per_slice);
  dst->push_back(options.use_scm_cache ? 1 : 0);
}

Result<StreamObjectOptions> DecodeObjectOptions(ByteView data) {
  Decoder dec(data);
  StreamObjectOptions options;
  if (dec.Remaining() < 1) return Status::Corruption("object options");
  uint8_t scheme = *dec.position();
  dec.Skip(1);
  uint64_t replicas, ec_data, ec_parity;
  if (!dec.GetVarint(&replicas) || !dec.GetVarint(&ec_data) ||
      !dec.GetVarint(&ec_parity) ||
      !dec.GetVarint(&options.io_quota_records_per_sec)) {
    return Status::Corruption("object options fields");
  }
  options.redundancy =
      scheme == 0 ? storage::RedundancyConfig::Replication(
                        static_cast<int>(replicas))
                  : storage::RedundancyConfig::ErasureCoding(
                        static_cast<int>(ec_data),
                        static_cast<int>(ec_parity));
  if (dec.Remaining() < 1) return Status::Corruption("aggregation flag");
  options.io_aggregation = *dec.position() != 0;
  dec.Skip(1);
  uint64_t per_slice;
  if (!dec.GetVarint(&per_slice)) return Status::Corruption("slice size");
  options.records_per_slice = per_slice;
  if (dec.Remaining() < 1) return Status::Corruption("scm flag");
  options.use_scm_cache = *dec.position() != 0;
  return options;
}

}  // namespace

std::string StreamObject::IndexKey(uint64_t slice_seq) const {
  // Zero-padded so KV range scans return slices in order.
  char buf[64];
  std::snprintf(buf, sizeof(buf), "so/%016llu/slice/%016llu",
                static_cast<unsigned long long>(id_),
                static_cast<unsigned long long>(slice_seq));
  return buf;
}

Status StreamObject::CheckQuotaLocked(size_t incoming) {
  if (options_.io_quota_records_per_sec == 0) return Status::OK();
  uint64_t now = clock_->NowNanos();
  if (now - quota_epoch_ns_ >= sim::kSecond) {
    quota_epoch_ns_ = now;
    quota_consumed_ = 0;
  }
  if (quota_consumed_ + incoming > options_.io_quota_records_per_sec) {
    return Status::QuotaExceeded("stream object " + std::to_string(id_) +
                                 " rate limit");
  }
  quota_consumed_ += incoming;
  return Status::OK();
}

void StreamObject::WaitAppendIdleLocked() {
  while (append_inflight_) append_cv_.Wait(&mu_);
}

void StreamObject::RunSliceJob(SliceJob* job) {
  static Counter* slices_persisted =
      MetricsRegistry::Global().GetCounter("stream.object.slices_persisted");
  static Histogram* slice_bytes =
      MetricsRegistry::Global().GetHistogram("stream.object.slice_bytes");
  Bytes encoded;
  EncodeSlice(&encoded, job->records);
  slices_persisted->Increment();
  slice_bytes->Record(encoded.size());
  job->payload_bytes = encoded.size();
  std::string route =
      "so/" + std::to_string(id_) + "/" + std::to_string(job->seq);
  auto address = plogs_->AppendKeyed(ByteView(route), ByteView(encoded));
  if (!address.ok()) {
    job->status = address.status();
    return;
  }
  job->address = *address;
}

// Three phases under explicit lock management (the static analysis cannot
// follow a lock released mid-function; the runtime checker still can):
//   1. mu_ held:     dedupe into active_, carve slice jobs, set inflight.
//   2. mu_ RELEASED: encode + PLog-append every job, fanned out on the
//                    shared I/O pool when available.
//   3. mu_ held:     commit index entries in slice order (or roll back),
//                    clear inflight, wake queued mutators.
Result<uint64_t> StreamObject::Append(std::vector<StreamRecord> records,
                                      bool flush) NO_THREAD_SAFETY_ANALYSIS {
  // Unflushed and flushed appends keep separate counters: per-message
  // produces versus SendBatch's per-stream-object group appends.
  static Counter* append_batches =
      MetricsRegistry::Global().GetCounter("stream.object.append_batches");
  static Counter* group_appends =
      MetricsRegistry::Global().GetCounter("stream.object.group_appends");
  static Counter* append_records =
      MetricsRegistry::Global().GetCounter("stream.object.append_records");
  static Counter* append_bytes =
      MetricsRegistry::Global().GetCounter("stream.object.append_bytes");

  mu_.Lock();
  WaitAppendIdleLocked();
  if (destroyed_) {
    mu_.Unlock();
    return Status::InvalidArgument("stream object destroyed");
  }
  if (!records.empty()) {
    Status quota = CheckQuotaLocked(records.size());
    if (!quota.ok()) {
      mu_.Unlock();
      return quota;
    }
    (flush ? group_appends : append_batches)->Increment();
  }
  const uint64_t start_offset = frontier_;
  for (StreamRecord& record : records) {
    // Idempotent writes: drop producer retries ("duplicate messages sent
    // by the producer can be identified").
    if (record.producer_id != 0) {
      auto [it, inserted] =
          producer_last_seq_.emplace(record.producer_id, record.producer_seq);
      if (!inserted) {
        if (record.producer_seq <= it->second) continue;  // duplicate
        it->second = record.producer_seq;
      }
    }
    append_records->Increment();
    append_bytes->Increment(record.key.size() + record.value.size());
    active_.push_back(std::move(record));
    ++frontier_;
  }
  // Carve the unpersisted tail into slice jobs: every full slice, plus the
  // partial last one when flushing. Jobs view their records in place;
  // active_ keeps holding them until commit, so reads of the in-flight
  // window stay valid and a failed persist leaves them buffered.
  const size_t per_slice =
      options_.io_aggregation && options_.records_per_slice > 0
          ? options_.records_per_slice
          : 1;
  const size_t carved =
      flush ? active_.size() : active_.size() - active_.size() % per_slice;
  std::vector<SliceJob> jobs;
  for (size_t begin = 0; begin < carved; begin += per_slice) {
    SliceJob job;
    job.seq = next_slice_seq_++;
    job.records = std::span<const StreamRecord>(active_).subspan(
        begin, std::min(per_slice, carved - begin));
    jobs.push_back(job);
  }
  if (jobs.empty()) {
    mu_.Unlock();
    return start_offset;
  }
  append_inflight_ = true;
  mu_.Unlock();

  // Phase 2: device I/O with no stream lock held. Slices hash to different
  // PLog shards, so the pool's workers land on different store stripes
  // and genuinely overlap.
  ParallelFor(io_pool_, jobs.size(),
              [this, &jobs](size_t i) { RunSliceJob(&jobs[i]); });
  mu_.Lock();

  // Phase 3: commit in slice order up to the first failure. The durable
  // slice index ("we use key-value databases to serve as indexes for
  // PLogs for fast record lookup") makes a slice readable after recovery.
  Status status = Status::OK();
  size_t committed = 0;
  size_t committed_records = 0;
  for (; committed < jobs.size(); ++committed) {
    const SliceJob& job = jobs[committed];
    status = job.status;
    if (!status.ok()) break;
    SliceMeta meta{job.seq, persisted_,
                   static_cast<uint32_t>(job.records.size()), job.address,
                   job.payload_bytes};
    Bytes index_value;
    PutVarint64(&index_value, meta.start_offset);
    PutVarint64(&index_value, meta.count);
    PutVarint64(&index_value, meta.address.shard);
    PutVarint64(&index_value, meta.address.plog_index);
    PutVarint64(&index_value, meta.address.offset);
    status = index_->Put(IndexKey(meta.seq), BytesToString(index_value));
    if (!status.ok()) break;
    persisted_ += meta.count;
    if (cache_ != nullptr) {
      auto first = active_.begin() + static_cast<long>(committed_records);
      cache_->Put(id_, meta.seq,
                  std::vector<StreamRecord>(
                      std::make_move_iterator(first),
                      std::make_move_iterator(first + meta.count)));
    }
    committed_records += meta.count;
    slices_.push_back(meta);
  }
  active_.erase(active_.begin(),
                active_.begin() + static_cast<long>(committed_records));
  // Roll back: orphan the PLog appends of every uncommitted slice, so no
  // slice half-exists (payload durable but unreachable through the
  // index). Its records stay in active_, and the next Append or Flush
  // re-persists them under fresh slice seqs.
  for (size_t i = committed; i < jobs.size(); ++i) {
    if (jobs[i].status.ok()) {
      plogs_->MarkGarbage(jobs[i].address, jobs[i].payload_bytes)
          .LogIgnored("slice rollback");
    }
  }
  append_inflight_ = false;
  append_cv_.NotifyAll();
  mu_.Unlock();
  if (!status.ok()) return status;
  return start_offset;
}

Result<std::vector<StreamRecord>> StreamObject::Read(
    uint64_t offset, size_t max_records) const {
  static Counter* read_ops =
      MetricsRegistry::Global().GetCounter("stream.object.read_ops");
  static Counter* read_records =
      MetricsRegistry::Global().GetCounter("stream.object.read_records");
  read_ops->Increment();
  MutexLock lock(&mu_);
  if (destroyed_) return Status::InvalidArgument("stream object destroyed");
  if (offset > frontier_) {
    return Status::InvalidArgument("read past stream frontier");
  }
  if (offset < trimmed_until_) {
    return Status::NotFound("offset below trim point");
  }
  std::vector<StreamRecord> out;
  uint64_t pos = offset;
  while (pos < frontier_ && out.size() < max_records) {
    if (pos >= persisted_) {
      // Buffered tail.
      const StreamRecord& record = active_[pos - persisted_];
      out.push_back(record);
      ++pos;
      continue;
    }
    // Find the slice containing `pos` (slices sorted by start_offset).
    auto it = std::upper_bound(
        slices_.begin(), slices_.end(), pos,
        [](uint64_t v, const SliceMeta& s) { return v < s.start_offset; });
    const SliceMeta& slice = *(it - 1);
    const std::vector<StreamRecord>* records = nullptr;
    std::vector<StreamRecord> decoded;
    if (cache_ != nullptr) {
      records = cache_->Get(id_, slice.seq);
    }
    if (records == nullptr) {
      SL_ASSIGN_OR_RETURN(Bytes raw, plogs_->Read(slice.address));
      SL_ASSIGN_OR_RETURN(decoded, DecodeSlice(ByteView(raw)));
      if (cache_ != nullptr) {
        cache_->Put(id_, slice.seq, decoded);
      }
      records = &decoded;
    }
    for (uint64_t i = pos - slice.start_offset;
         i < records->size() && out.size() < max_records; ++i) {
      out.push_back((*records)[i]);
      ++pos;
    }
  }
  read_records->Increment(out.size());
  return out;
}

Result<uint64_t> StreamObject::FindOffsetByTimestamp(int64_t timestamp) const {
  MutexLock lock(&mu_);
  if (destroyed_) return Status::InvalidArgument("stream object destroyed");

  // Takes the address by value so the lambda body touches no mu_-guarded
  // state (thread-safety analysis treats lambdas as separate functions).
  auto load_slice =
      [this](storage::PlogAddress address) -> Result<std::vector<StreamRecord>> {
    SL_ASSIGN_OR_RETURN(Bytes raw, plogs_->Read(address));
    return DecodeSlice(ByteView(raw));
  };

  // Binary search over persisted slices by their last record's timestamp
  // (timestamps are non-decreasing across the log).
  size_t lo = first_live_slice_;
  size_t hi = slices_.size();
  while (lo < hi) {
    size_t mid = lo + (hi - lo) / 2;
    SL_ASSIGN_OR_RETURN(auto records, load_slice(slices_[mid].address));
    if (!records.empty() && records.back().timestamp >= timestamp) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  if (lo < slices_.size()) {
    SL_ASSIGN_OR_RETURN(auto records, load_slice(slices_[lo].address));
    for (size_t i = 0; i < records.size(); ++i) {
      if (records[i].timestamp >= timestamp) {
        return slices_[lo].start_offset + i;
      }
    }
  }
  // The buffered tail.
  for (size_t i = 0; i < active_.size(); ++i) {
    if (active_[i].timestamp >= timestamp) return persisted_ + i;
  }
  return frontier_;
}

uint64_t StreamObject::frontier() const {
  MutexLock lock(&mu_);
  return frontier_;
}

uint64_t StreamObject::persisted() const {
  MutexLock lock(&mu_);
  return persisted_;
}

Status StreamObject::Flush() { return Append({}, /*flush=*/true).status(); }

Status StreamObject::RecoverFromIndex() {
  MutexLock lock(&mu_);
  WaitAppendIdleLocked();
  if (destroyed_) return Status::InvalidArgument("stream object destroyed");
  if (!slices_.empty() || frontier_ != 0) {
    return Status::InvalidArgument("recovery requires a fresh object");
  }
  char prefix[64];
  std::snprintf(prefix, sizeof(prefix), "so/%016llu/slice/",
                static_cast<unsigned long long>(id_));
  std::string start(prefix);
  std::string end = start;
  end.back() = end.back() + 1;
  // Slice keys are zero-padded, so the scan returns them in append order.
  for (const auto& [key, value] : index_->Scan(start, end)) {
    Decoder dec{ByteView(value)};
    SliceMeta meta;
    meta.seq = std::stoull(key.substr(start.size()));
    uint64_t count, shard, plog_index;
    if (!dec.GetVarint(&meta.start_offset) || !dec.GetVarint(&count) ||
        !dec.GetVarint(&shard) || !dec.GetVarint(&plog_index) ||
        !dec.GetVarint(&meta.address.offset)) {
      return Status::Corruption("slice index entry " + key);
    }
    meta.count = static_cast<uint32_t>(count);
    meta.address.shard = static_cast<uint32_t>(shard);
    meta.address.plog_index = static_cast<uint32_t>(plog_index);
    slices_.push_back(meta);
  }
  if (!slices_.empty()) {
    const SliceMeta& last = slices_.back();
    next_slice_seq_ = last.seq + 1;
    persisted_ = last.start_offset + last.count;
    frontier_ = persisted_;
    trimmed_until_ = slices_.front().start_offset;
  }
  return Status::OK();
}

Status StreamObject::TrimTo(uint64_t offset) {
  MutexLock lock(&mu_);
  WaitAppendIdleLocked();
  if (destroyed_) return Status::InvalidArgument("stream object destroyed");
  if (offset > persisted_) {
    // Only persisted slices can be reclaimed; cap at the persisted bound.
    offset = persisted_;
  }
  // Release whole slices entirely below the trim point.
  while (first_live_slice_ < slices_.size()) {
    const SliceMeta& slice = slices_[first_live_slice_];
    if (slice.start_offset + slice.count > offset) break;
    SL_RETURN_NOT_OK(plogs_->MarkGarbage(slice.address, slice.payload_bytes));
    SL_RETURN_NOT_OK(index_->Delete(IndexKey(slice.seq)));
    ++first_live_slice_;
  }
  trimmed_until_ = std::max(trimmed_until_, offset);
  return Status::OK();
}

uint64_t StreamObject::trimmed_until() const {
  MutexLock lock(&mu_);
  return trimmed_until_;
}

Status StreamObject::Destroy() {
  MutexLock lock(&mu_);
  WaitAppendIdleLocked();
  if (destroyed_) return Status::OK();
  destroyed_ = true;
  for (size_t i = first_live_slice_; i < slices_.size(); ++i) {
    SL_RETURN_NOT_OK(
        plogs_->MarkGarbage(slices_[i].address, slices_[i].payload_bytes));
    SL_RETURN_NOT_OK(index_->Delete(IndexKey(slices_[i].seq)));
  }
  slices_.clear();
  active_.clear();
  return Status::OK();
}

// ---------------- StreamObjectManager ----------------

StreamObjectManager::StreamObjectManager(storage::PlogStore* plogs,
                                         kv::KvStore* index,
                                         sim::SimClock* clock,
                                         sim::DeviceModel* pmem,
                                         size_t cache_capacity_slices,
                                         ThreadPool* io_pool)
    : plogs_(plogs), index_(index), clock_(clock), io_pool_(io_pool) {
  if (pmem != nullptr) {
    cache_ = std::make_unique<ScmSliceCache>(pmem, cache_capacity_slices);
  }
}

Result<uint64_t> StreamObjectManager::CreateObject(
    const StreamObjectOptions& options) {
  MutexLock lock(&mu_);
  uint64_t id = next_id_++;
  // Persist the options so RecoverAll() can rebuild the object.
  Bytes encoded;
  EncodeObjectOptions(options, &encoded);
  SL_RETURN_NOT_OK(index_->Put(ObjectMetaKey(id), BytesToString(encoded)));
  ScmSliceCache* cache = options.use_scm_cache ? cache_.get() : nullptr;
  objects_[id] = std::make_unique<StreamObject>(id, plogs_, index_, clock_,
                                                options, cache, io_pool_);
  return id;
}

Result<size_t> StreamObjectManager::RecoverAll() {
  MutexLock lock(&mu_);
  if (!objects_.empty()) {
    return Status::InvalidArgument("recovery requires an empty manager");
  }
  size_t recovered = 0;
  for (const auto& [key, value] : index_->Scan("so/", "so0")) {
    // Keys: so/<id16>/meta and so/<id16>/slice/<seq16>.
    if (key.size() < 24 || key.compare(19, 5, "/meta") != 0) continue;
    uint64_t id = std::stoull(key.substr(3, 16));
    SL_ASSIGN_OR_RETURN(StreamObjectOptions options,
                        DecodeObjectOptions(ByteView(value)));
    ScmSliceCache* cache = options.use_scm_cache ? cache_.get() : nullptr;
    auto object = std::make_unique<StreamObject>(id, plogs_, index_, clock_,
                                                 options, cache, io_pool_);
    SL_RETURN_NOT_OK(object->RecoverFromIndex());
    objects_[id] = std::move(object);
    next_id_ = std::max(next_id_, id + 1);
    ++recovered;
  }
  return recovered;
}

StreamObject* StreamObjectManager::GetObject(uint64_t object_id) {
  MutexLock lock(&mu_);
  auto it = objects_.find(object_id);
  return it == objects_.end() ? nullptr : it->second.get();
}

Status StreamObjectManager::DestroyObject(uint64_t object_id) {
  // Detach the object under the manager lock, destroy it outside:
  // Destroy() waits for an in-flight append (a condition wait) and
  // issues index deletes, and doing that under mu_ would park every other
  // manager operation behind one object's drain.
  std::unique_ptr<StreamObject> object;
  {
    MutexLock lock(&mu_);
    auto it = objects_.find(object_id);
    if (it == objects_.end()) {
      return Status::NotFound("stream object " + std::to_string(object_id));
    }
    object = std::move(it->second);
    objects_.erase(it);
  }
  SL_RETURN_NOT_OK(object->Destroy());
  return index_->Delete(ObjectMetaKey(object_id));
}

size_t StreamObjectManager::num_objects() const {
  MutexLock lock(&mu_);
  return objects_.size();
}

}  // namespace streamlake::stream
