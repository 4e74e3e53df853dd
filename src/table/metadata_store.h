#ifndef STREAMLAKE_TABLE_METADATA_STORE_H_
#define STREAMLAKE_TABLE_METADATA_STORE_H_

#include <deque>
#include <string>

#include "common/mutex.h"
#include "kv/kv_store.h"
#include "storage/object_store.h"
#include "table/metadata.h"

namespace streamlake::table {

/// Whether the lakehouse metadata path uses the acceleration of Fig. 9.
enum class MetadataMode {
  /// Baseline "file-based catalog system": every catalog/commit/snapshot
  /// read and write is a small object-store I/O.
  kFileBased,
  /// StreamLake metadata acceleration: reads/writes hit the KV write
  /// cache; the MetaFresher flushes aggregated files asynchronously.
  kAccelerated,
};

/// \brief Point-in-time sample of the process-wide `table.metadata.*`
/// registry counters (common/metrics.h). The metadata path reports
/// through MetricsRegistry; per-operation numbers (Table::SelectMetrics)
/// are deltas between two samples: exact in single-threaded tests and
/// benches, an upper bound when other threads touch table metadata
/// concurrently.
struct MetadataCounters {
  uint64_t reads = 0;        // metadata objects / KV entries read
  uint64_t bytes_read = 0;   // metadata bytes pulled into the reader
  uint64_t small_ios = 0;    // object-store reads (the Fig. 15a pain)

  /// Sample the registry counters now.
  static MetadataCounters Capture();
  /// Work done between `start` (the earlier sample) and *this.
  MetadataCounters operator-(const MetadataCounters& start) const;
};

/// \brief Storage for catalog entries, commits, and snapshots, in either
/// file-based or accelerated mode (Section V-B, INSERT steps b/c).
///
/// In accelerated mode, writes land in the KV write cache ("metadata
/// updates are mostly small I/O operations ... we leverage a write cache
/// to aggregate the metadata updates") and FlushPending() plays the
/// MetaFresher: it "transforms the commits and snapshots from key-value
/// pairs to files and writes them to the table/metadata directory".
class MetadataStore {
 public:
  MetadataStore(storage::ObjectStore* objects, kv::KvStore* cache,
                MetadataMode mode)
      : objects_(objects), cache_(cache), mode_(mode) {}

  MetadataMode mode() const { return mode_; }

  // ---- catalog ----
  Status PutTableInfo(const TableInfo& info);
  Result<TableInfo> GetTableInfo(const std::string& name);
  Status DeleteTableInfo(const std::string& name);
  std::vector<std::string> ListTables() const;

  // ---- commits ----
  Status PutCommit(const std::string& table_path, const CommitFile& commit);
  /// Read commit `seq` as stored, undecoded: the catalog decodes it, or
  /// reuses an identical earlier decode.
  Result<Bytes> ReadCommit(const std::string& table_path, uint64_t seq);
  Status DeleteCommit(const std::string& table_path, uint64_t seq);

  // ---- snapshots ----
  Status PutSnapshot(const std::string& table_path, const SnapshotMeta& snap);
  Result<SnapshotMeta> GetSnapshot(const std::string& table_path, uint64_t id);
  Status DeleteSnapshot(const std::string& table_path, uint64_t id);

  /// MetaFresher: flush cached metadata entries to persistent files.
  /// Returns the number of entries flushed. No-op in file-based mode.
  Result<size_t> FlushPending();

  size_t pending_flushes() const;

 private:
  static std::string CatalogKey(const std::string& name);
  static std::string CommitKey(const std::string& path, uint64_t seq);
  static std::string SnapshotKey(const std::string& path, uint64_t id);
  static std::string CommitFilePath(const std::string& path, uint64_t seq);
  static std::string SnapshotFilePath(const std::string& path, uint64_t id);
  static std::string CatalogFilePath(const std::string& name);

  Result<Bytes> ReadEntry(const std::string& cache_key,
                          const std::string& file_path);
  Status WriteEntry(const std::string& cache_key, const std::string& file_path,
                    ByteView data);
  Status DeleteEntry(const std::string& cache_key,
                     const std::string& file_path);

  storage::ObjectStore* objects_;
  kv::KvStore* cache_;
  MetadataMode mode_;
  mutable Mutex mu_{LockRank::kMetadataStore, "table.metadata_store"};
  std::deque<std::pair<std::string, std::string>> pending_
      GUARDED_BY(mu_);  // key, file path
};

}  // namespace streamlake::table

#endif  // STREAMLAKE_TABLE_METADATA_STORE_H_
