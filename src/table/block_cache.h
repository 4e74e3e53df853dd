#ifndef STREAMLAKE_TABLE_BLOCK_CACHE_H_
#define STREAMLAKE_TABLE_BLOCK_CACHE_H_

#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "format/lakefile.h"
#include "storage/object_store.h"

namespace streamlake::table {

/// \brief LRU cache of decoded lakefile blocks: the read-side analog of the
/// stream layer's ScmSliceCache.
///
/// Two kinds of entries, both keyed by data-file path (data files are
/// immutable and never reuse a path, so entries need no version tag):
///
///   - the FOOTER of a file (row-group directory + stats), so repeat
///     queries can prune row groups without re-reading the file, and
///   - one COLUMN CHUNK of one row group (key: path, group, column), so
///     repeat Selects and time-travel reads skip PLog I/O and decode
///     entirely, and a narrow query caches — and evicts — only the columns
///     it touches.
///
/// Cached chunks are the raw decoded content, BEFORE any merge-on-read
/// delete masking — masking depends on the query's snapshot, so it is
/// applied by the reader after the cache fetch. That keeps entries valid
/// for every snapshot that references the file, which is what makes
/// time-travel reads safe against the shared cache.
///
/// Invalidation: commits that remove files, compaction, snapshot
/// expiry GC, DropTableHard, and PLog tier migration call
/// InvalidateFile/InvalidateAll (see DESIGN.md "Parallel read path").
///
/// Thread-safe. The internal mutex is rank kTableBlockCache, below
/// kTableCommit, so invalidation while holding a table's commit lock is
/// legal; Get/Put never call out while holding it.
class DecodedBlockCache {
 public:
  /// Cached copy of a lakefile's row-group directory.
  struct Footer {
    std::vector<format::RowGroupMeta> groups;
    uint64_t file_bytes = 0;
  };

  using ColumnPtr = format::ColumnChunkPtr;
  using FooterPtr = std::shared_ptr<const Footer>;

  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
    uint64_t invalidated_entries = 0;
    uint64_t bytes_cached = 0;
    uint64_t entries = 0;
  };

  explicit DecodedBlockCache(uint64_t capacity_bytes);

  /// nullptr on miss. Returned pointers stay valid after eviction.
  FooterPtr GetFooter(const std::string& path);
  ColumnPtr GetColumn(const std::string& path, size_t group, size_t column);

  void PutFooter(const std::string& path, FooterPtr footer);
  void PutColumn(const std::string& path, size_t group, size_t column,
                 ColumnPtr chunk);

  /// Drop every entry of one data file (footer + all column chunks).
  void InvalidateFile(const std::string& path);
  /// Drop everything (PLog migration moved data between tiers).
  void InvalidateAll();

  Stats GetStats() const;
  /// True if any entry of this file is cached (test hook).
  bool ContainsFile(const std::string& path) const;

  uint64_t capacity_bytes() const { return capacity_; }

 private:
  // Footers use group index SIZE_MAX (column 0); chunk entries use their
  // (group, column) position.
  using Key = std::tuple<std::string, size_t, size_t>;
  static constexpr size_t kFooterSlot = static_cast<size_t>(-1);

  struct Entry {
    Key key;
    ColumnPtr column;   // set for column-chunk entries
    FooterPtr footer;   // set for footer entries
    uint64_t bytes = 0;
  };

  void Insert(Key key, ColumnPtr column, FooterPtr footer, uint64_t bytes)
      EXCLUSIVE_LOCKS_REQUIRED(mu_);
  void EvictToCapacity() EXCLUSIVE_LOCKS_REQUIRED(mu_);

  const uint64_t capacity_;
  mutable Mutex mu_{LockRank::kTableBlockCache, "table.block_cache"};
  std::list<Entry> lru_ GUARDED_BY(mu_);  // front = most recent
  std::map<Key, std::list<Entry>::iterator> index_ GUARDED_BY(mu_);
  uint64_t bytes_ GUARDED_BY(mu_) = 0;
  Stats stats_ GUARDED_BY(mu_);
};

/// Approximate heap footprint of one decoded column chunk.
uint64_t ApproxColumnBytes(const format::ColumnChunkData& chunk);

/// \brief Cache-aware reader over one immutable data file.
///
/// The file access of Table::ScanFileRows, the one scan behind reads,
/// delete counts, rewrites and compaction: serves footers and
/// decoded column chunks from the DecodedBlockCache when one is attached
/// (cache == nullptr degrades to a plain read-and-decode), reading the
/// file from the object store only on miss and back-filling the cache.
///
/// Not thread-safe; make one per file per scan job.
class CachedFileReader {
 public:
  CachedFileReader(storage::ObjectStore* objects, DecodedBlockCache* cache,
                   std::string path);

  /// Resolve the footer (from cache or by reading the file). Must be
  /// called, and return OK, before any other accessor.
  Status Init();

  size_t num_row_groups() const { return footer_->groups.size(); }
  const format::RowGroupMeta& row_group(size_t g) const {
    return footer_->groups[g];
  }
  uint64_t file_bytes() const { return footer_->file_bytes; }

  /// One decoded column chunk, before delete masking.
  Result<DecodedBlockCache::ColumnPtr> ReadColumnChunk(size_t group,
                                                       size_t column);

  /// Bytes actually read from the object store (0 on a full cache hit).
  uint64_t storage_bytes_read() const { return storage_bytes_read_; }

  /// Decode work actually performed by this reader (cache hits are free):
  /// uncompressed payload bytes and number of chunks decoded.
  uint64_t bytes_decoded() const { return bytes_decoded_; }
  uint64_t chunks_decoded() const { return chunks_decoded_; }

 private:
  /// Read + parse the file if this reader has not done so yet.
  Status EnsureFileLoaded();

  storage::ObjectStore* objects_;
  DecodedBlockCache* cache_;  // may be nullptr
  std::string path_;
  DecodedBlockCache::FooterPtr footer_;
  std::optional<format::LakeFileReader> reader_;
  uint64_t storage_bytes_read_ = 0;
  uint64_t bytes_decoded_ = 0;
  uint64_t chunks_decoded_ = 0;
};

}  // namespace streamlake::table

#endif  // STREAMLAKE_TABLE_BLOCK_CACHE_H_
