#include "table/block_cache.h"

#include "common/metrics.h"
#include "common/result.h"

namespace streamlake::table {

using ColumnPtr = DecodedBlockCache::ColumnPtr;

namespace {

struct CacheMetrics {
  Counter* hits;
  Counter* misses;
  Counter* evictions;
  Counter* invalidations;
  Gauge* bytes;

  static CacheMetrics& Get() {
    static CacheMetrics m{
        MetricsRegistry::Global().GetCounter("table.block_cache.hits"),
        MetricsRegistry::Global().GetCounter("table.block_cache.misses"),
        MetricsRegistry::Global().GetCounter("table.block_cache.evictions"),
        MetricsRegistry::Global().GetCounter("table.block_cache.invalidations"),
        MetricsRegistry::Global().GetGauge("table.block_cache.bytes")};
    return m;
  }
};

}  // namespace

uint64_t ApproxColumnBytes(const format::ColumnChunkData& chunk) {
  uint64_t bytes = sizeof(format::ColumnChunkData);
  auto data_bytes = [](const format::ColumnData& data) {
    return std::visit(
        [](const auto& vec) {
          uint64_t b = vec.capacity() * sizeof(vec[0]);
          if constexpr (std::is_same_v<
                            std::decay_t<decltype(vec)>,
                            std::vector<std::string>>) {
            for (const std::string& s : vec) b += s.capacity();
          }
          return b;
        },
        data);
  };
  bytes += data_bytes(chunk.values);
  bytes += data_bytes(chunk.dict);
  bytes += chunk.codes.capacity() * sizeof(uint32_t);
  bytes += chunk.null_mask.capacity();
  return bytes;
}

DecodedBlockCache::DecodedBlockCache(uint64_t capacity_bytes)
    : capacity_(capacity_bytes) {}

DecodedBlockCache::FooterPtr DecodedBlockCache::GetFooter(
    const std::string& path) {
  MutexLock lock(&mu_);
  auto it = index_.find(Key(path, kFooterSlot, 0));
  if (it == index_.end()) {
    ++stats_.misses;
    CacheMetrics::Get().misses->Increment();
    return nullptr;
  }
  lru_.splice(lru_.begin(), lru_, it->second);
  ++stats_.hits;
  CacheMetrics::Get().hits->Increment();
  return it->second->footer;
}

DecodedBlockCache::ColumnPtr DecodedBlockCache::GetColumn(
    const std::string& path, size_t group, size_t column) {
  MutexLock lock(&mu_);
  auto it = index_.find(Key(path, group, column));
  if (it == index_.end()) {
    ++stats_.misses;
    CacheMetrics::Get().misses->Increment();
    return nullptr;
  }
  lru_.splice(lru_.begin(), lru_, it->second);
  ++stats_.hits;
  CacheMetrics::Get().hits->Increment();
  return it->second->column;
}

void DecodedBlockCache::PutFooter(const std::string& path, FooterPtr footer) {
  uint64_t bytes = sizeof(Entry) +
                   footer->groups.size() * sizeof(format::RowGroupMeta) * 2;
  MutexLock lock(&mu_);
  Insert(Key(path, kFooterSlot, 0), nullptr, std::move(footer), bytes);
}

void DecodedBlockCache::PutColumn(const std::string& path, size_t group,
                                  size_t column, ColumnPtr chunk) {
  uint64_t bytes = sizeof(Entry) + ApproxColumnBytes(*chunk);
  MutexLock lock(&mu_);
  Insert(Key(path, group, column), std::move(chunk), nullptr, bytes);
}

void DecodedBlockCache::Insert(Key key, ColumnPtr column, FooterPtr footer,
                               uint64_t bytes) {
  if (index_.count(key) > 0) return;  // entries are immutable; first wins
  lru_.push_front(Entry{key, std::move(column), std::move(footer), bytes});
  index_[std::move(key)] = lru_.begin();
  bytes_ += bytes;
  EvictToCapacity();
  CacheMetrics::Get().bytes->Set(static_cast<int64_t>(bytes_));
}

void DecodedBlockCache::EvictToCapacity() {
  while (bytes_ > capacity_ && !lru_.empty()) {
    const Entry& victim = lru_.back();
    bytes_ -= victim.bytes;
    index_.erase(victim.key);
    lru_.pop_back();
    ++stats_.evictions;
    CacheMetrics::Get().evictions->Increment();
  }
}

void DecodedBlockCache::InvalidateFile(const std::string& path) {
  MutexLock lock(&mu_);
  // All keys of one file are contiguous in the map:
  // [(path, 0, 0), (path, MAX, MAX)].
  auto it = index_.lower_bound(Key(path, 0, 0));
  uint64_t dropped = 0;
  while (it != index_.end() && std::get<0>(it->first) == path) {
    bytes_ -= it->second->bytes;
    lru_.erase(it->second);
    it = index_.erase(it);
    ++dropped;
  }
  if (dropped > 0) {
    stats_.invalidated_entries += dropped;
    CacheMetrics::Get().invalidations->Increment(dropped);
    CacheMetrics::Get().bytes->Set(static_cast<int64_t>(bytes_));
  }
}

void DecodedBlockCache::InvalidateAll() {
  MutexLock lock(&mu_);
  uint64_t dropped = lru_.size();
  lru_.clear();
  index_.clear();
  bytes_ = 0;
  if (dropped > 0) {
    stats_.invalidated_entries += dropped;
    CacheMetrics::Get().invalidations->Increment(dropped);
    CacheMetrics::Get().bytes->Set(0);
  }
}

DecodedBlockCache::Stats DecodedBlockCache::GetStats() const {
  MutexLock lock(&mu_);
  Stats out = stats_;
  out.bytes_cached = bytes_;
  out.entries = lru_.size();
  return out;
}

bool DecodedBlockCache::ContainsFile(const std::string& path) const {
  MutexLock lock(&mu_);
  auto it = index_.lower_bound(Key(path, 0, 0));
  return it != index_.end() && std::get<0>(it->first) == path;
}

CachedFileReader::CachedFileReader(storage::ObjectStore* objects,
                                   DecodedBlockCache* cache, std::string path)
    : objects_(objects), cache_(cache), path_(std::move(path)) {}

Status CachedFileReader::Init() {
  if (cache_ != nullptr) {
    footer_ = cache_->GetFooter(path_);
    if (footer_ != nullptr) return Status::OK();
  }
  SL_RETURN_NOT_OK(EnsureFileLoaded());
  auto footer = std::make_shared<DecodedBlockCache::Footer>();
  footer->groups.reserve(reader_->num_row_groups());
  for (size_t g = 0; g < reader_->num_row_groups(); ++g) {
    footer->groups.push_back(reader_->row_group(g));
  }
  footer->file_bytes = reader_->file_size();
  footer_ = footer;
  if (cache_ != nullptr) cache_->PutFooter(path_, footer_);
  return Status::OK();
}

Result<DecodedBlockCache::ColumnPtr> CachedFileReader::ReadColumnChunk(
    size_t group, size_t column) {
  if (cache_ != nullptr) {
    if (ColumnPtr cached = cache_->GetColumn(path_, group, column)) {
      return cached;
    }
  }
  SL_RETURN_NOT_OK(EnsureFileLoaded());
  SL_ASSIGN_OR_RETURN(format::ColumnChunkData chunk,
                      reader_->ReadColumnChunk(group, column));
  bytes_decoded_ += chunk.raw_bytes;
  ++chunks_decoded_;
  auto shared = std::make_shared<const format::ColumnChunkData>(
      std::move(chunk));
  if (cache_ != nullptr) cache_->PutColumn(path_, group, column, shared);
  return shared;
}

Status CachedFileReader::EnsureFileLoaded() {
  if (reader_.has_value()) return Status::OK();
  SL_ASSIGN_OR_RETURN(Bytes data, objects_->Read(path_));
  storage_bytes_read_ += data.size();
  SL_ASSIGN_OR_RETURN(format::LakeFileReader reader,
                      format::LakeFileReader::Open(std::move(data)));
  reader_.emplace(std::move(reader));
  return Status::OK();
}

}  // namespace streamlake::table
