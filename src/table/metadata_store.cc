#include "table/metadata_store.h"

#include "common/metrics.h"

namespace streamlake::table {

// Registry handles for the metadata hot path (names: DESIGN.md,
// "Observability"). Function-scope statics would also work, but the
// read path has several call sites sharing these.
namespace {

struct MetadataMetrics {
  Counter* reads;
  Counter* bytes_read;
  Counter* small_ios;
  Counter* cache_hits;
  Counter* cache_misses;
  Counter* writes;
  Counter* flush_batches;
  Counter* flush_entries;
  Gauge* pending_flushes;

  static const MetadataMetrics& Get() {
    static const MetadataMetrics m = [] {
      auto& r = MetricsRegistry::Global();
      return MetadataMetrics{
          r.GetCounter("table.metadata.reads"),
          r.GetCounter("table.metadata.bytes_read"),
          r.GetCounter("table.metadata.small_ios"),
          r.GetCounter("table.metadata.cache_hits"),
          r.GetCounter("table.metadata.cache_misses"),
          r.GetCounter("table.metadata.writes"),
          r.GetCounter("table.metadata.flush_batches"),
          r.GetCounter("table.metadata.flush_entries"),
          r.GetGauge("table.metadata.pending_flushes"),
      };
    }();
    return m;
  }
};

}  // namespace

MetadataCounters MetadataCounters::Capture() {
  auto& registry = MetricsRegistry::Global();
  MetadataCounters sample;
  sample.reads = registry.CounterValue("table.metadata.reads");
  sample.bytes_read = registry.CounterValue("table.metadata.bytes_read");
  sample.small_ios = registry.CounterValue("table.metadata.small_ios");
  return sample;
}

MetadataCounters MetadataCounters::operator-(
    const MetadataCounters& start) const {
  MetadataCounters delta;
  delta.reads = reads - start.reads;
  delta.bytes_read = bytes_read - start.bytes_read;
  delta.small_ios = small_ios - start.small_ios;
  return delta;
}

std::string MetadataStore::CatalogKey(const std::string& name) {
  return "catalog/" + name;
}
std::string MetadataStore::CommitKey(const std::string& path, uint64_t seq) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016llu",
                static_cast<unsigned long long>(seq));
  return "meta/" + path + "/commit/" + buf;
}
std::string MetadataStore::SnapshotKey(const std::string& path, uint64_t id) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016llu",
                static_cast<unsigned long long>(id));
  return "meta/" + path + "/snapshot/" + buf;
}
std::string MetadataStore::CommitFilePath(const std::string& path,
                                          uint64_t seq) {
  return path + "/metadata/commit-" + std::to_string(seq);
}
std::string MetadataStore::SnapshotFilePath(const std::string& path,
                                            uint64_t id) {
  return path + "/metadata/snapshot-" + std::to_string(id);
}
std::string MetadataStore::CatalogFilePath(const std::string& name) {
  return "/catalog/" + name;
}

Status MetadataStore::WriteEntry(const std::string& cache_key,
                                 const std::string& file_path, ByteView data) {
  const auto& metrics = MetadataMetrics::Get();
  metrics.writes->Increment();
  if (mode_ == MetadataMode::kFileBased) {
    // Every metadata update is a small object-store write.
    return objects_->Write(file_path, data);
  }
  // Accelerated: write to the KV cache; the file write is deferred to the
  // MetaFresher (FlushPending).
  SL_RETURN_NOT_OK(cache_->Put(cache_key, ByteView(data).ToStringView()));
  metrics.pending_flushes->Add(1);
  MutexLock lock(&mu_);
  pending_.emplace_back(cache_key, file_path);
  return Status::OK();
}

Result<Bytes> MetadataStore::ReadEntry(const std::string& cache_key,
                                       const std::string& file_path) {
  const auto& metrics = MetadataMetrics::Get();
  if (mode_ == MetadataMode::kAccelerated) {
    auto cached = cache_->Get(cache_key);
    if (cached.ok()) {
      metrics.cache_hits->Increment();
      metrics.reads->Increment();
      metrics.bytes_read->Increment(cached->size());
      return ToBytes(*cached);
    }
    metrics.cache_misses->Increment();
    // Fall through to the persistent layer (entry evicted or pre-dating
    // the cache).
  }
  auto data = objects_->Read(file_path);
  if (data.ok()) {
    metrics.reads->Increment();
    metrics.small_ios->Increment();
    metrics.bytes_read->Increment(data->size());
  }
  return data;
}

Status MetadataStore::DeleteEntry(const std::string& cache_key,
                                  const std::string& file_path) {
  if (mode_ == MetadataMode::kAccelerated) {
    // Drop Table Hard ordering: "the operation to delete the metadata will
    // first clear it from the cache, and then delete it from the disk."
    // A failed cache drop must abort the disk delete, or a reader could
    // resurrect the entry from the stale cache.
    SL_RETURN_NOT_OK(cache_->Delete(cache_key));
    MutexLock lock(&mu_);
    for (auto it = pending_.begin(); it != pending_.end();) {
      if (it->first == cache_key) {
        it = pending_.erase(it);
        MetadataMetrics::Get().pending_flushes->Add(-1);
      } else {
        ++it;
      }
    }
  }
  if (objects_->Exists(file_path)) {
    return objects_->Delete(file_path);
  }
  return Status::OK();
}

Status MetadataStore::PutTableInfo(const TableInfo& info) {
  Bytes encoded;
  info.EncodeTo(&encoded);
  return WriteEntry(CatalogKey(info.name), CatalogFilePath(info.name),
                    ByteView(encoded));
}

Result<TableInfo> MetadataStore::GetTableInfo(const std::string& name) {
  SL_ASSIGN_OR_RETURN(Bytes data,
                      ReadEntry(CatalogKey(name), CatalogFilePath(name)));
  return TableInfo::DecodeFrom(ByteView(data));
}

Status MetadataStore::DeleteTableInfo(const std::string& name) {
  return DeleteEntry(CatalogKey(name), CatalogFilePath(name));
}

std::vector<std::string> MetadataStore::ListTables() const {
  std::vector<std::string> names;
  if (mode_ == MetadataMode::kAccelerated) {
    for (const auto& [key, value] : cache_->Scan("catalog/")) {
      names.push_back(key.substr(8));
    }
  } else {
    for (const std::string& path : objects_->List("/catalog/")) {
      names.push_back(path.substr(9));
    }
  }
  return names;
}

Status MetadataStore::PutCommit(const std::string& table_path,
                                const CommitFile& commit) {
  Bytes encoded;
  commit.EncodeTo(&encoded);
  return WriteEntry(CommitKey(table_path, commit.commit_seq),
                    CommitFilePath(table_path, commit.commit_seq),
                    ByteView(encoded));
}

Result<Bytes> MetadataStore::ReadCommit(const std::string& table_path,
                                        uint64_t seq) {
  return ReadEntry(CommitKey(table_path, seq), CommitFilePath(table_path, seq));
}

Status MetadataStore::DeleteCommit(const std::string& table_path,
                                   uint64_t seq) {
  return DeleteEntry(CommitKey(table_path, seq),
                     CommitFilePath(table_path, seq));
}

Status MetadataStore::PutSnapshot(const std::string& table_path,
                                  const SnapshotMeta& snap) {
  Bytes encoded;
  snap.EncodeTo(&encoded);
  return WriteEntry(SnapshotKey(table_path, snap.snapshot_id),
                    SnapshotFilePath(table_path, snap.snapshot_id),
                    ByteView(encoded));
}

Result<SnapshotMeta> MetadataStore::GetSnapshot(const std::string& table_path,
                                                uint64_t id) {
  SL_ASSIGN_OR_RETURN(Bytes data, ReadEntry(SnapshotKey(table_path, id),
                                            SnapshotFilePath(table_path, id)));
  return SnapshotMeta::DecodeFrom(ByteView(data));
}

Status MetadataStore::DeleteSnapshot(const std::string& table_path,
                                     uint64_t id) {
  return DeleteEntry(SnapshotKey(table_path, id),
                     SnapshotFilePath(table_path, id));
}

Result<size_t> MetadataStore::FlushPending() {
  std::deque<std::pair<std::string, std::string>> to_flush;
  {
    MutexLock lock(&mu_);
    to_flush.swap(pending_);
  }
  const auto& metrics = MetadataMetrics::Get();
  metrics.pending_flushes->Add(-static_cast<int64_t>(to_flush.size()));
  if (!to_flush.empty()) metrics.flush_batches->Increment();
  size_t flushed = 0;
  for (size_t i = 0; i < to_flush.size(); ++i) {
    const auto& [cache_key, file_path] = to_flush[i];
    auto value = cache_->Get(cache_key);
    if (!value.ok()) continue;  // deleted before the flush caught up
    Status write = objects_->Write(file_path, ByteView(*value));
    if (!write.ok()) {
      // Undo the dequeue for everything not yet flushed (including the
      // failing entry): re-queue at the front so the next pass retries
      // in arrival order instead of silently dropping durability.
      {
        MutexLock lock(&mu_);
        pending_.insert(pending_.begin(), to_flush.begin() + i,
                        to_flush.end());
      }
      metrics.pending_flushes->Add(
          static_cast<int64_t>(to_flush.size() - i));
      metrics.flush_entries->Increment(flushed);
      return write;
    }
    ++flushed;
  }
  metrics.flush_entries->Increment(flushed);
  return flushed;
}

size_t MetadataStore::pending_flushes() const {
  MutexLock lock(&mu_);
  return pending_.size();
}

}  // namespace streamlake::table
