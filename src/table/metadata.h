#ifndef STREAMLAKE_TABLE_METADATA_H_
#define STREAMLAKE_TABLE_METADATA_H_

#include <map>
#include <string>
#include <vector>

#include "format/lakefile.h"
#include "format/schema.h"
#include "query/predicate.h"

namespace streamlake::table {

/// How a table's rows map to partition directories (the sub-directories of
/// Fig. 5 whose names carry the partition range).
struct PartitionSpec {
  enum class Transform {
    kNone,      // unpartitioned
    kIdentity,  // partition by the column value (e.g. location)
    kDay,       // partition by day(timestamp_seconds)
    kMonth,     // partition by 30-day bucket (scaled-down "day")
  };

  Transform transform = Transform::kNone;
  std::string column;

  static PartitionSpec None() { return PartitionSpec{}; }
  static PartitionSpec Identity(std::string column) {
    return PartitionSpec{Transform::kIdentity, std::move(column)};
  }
  static PartitionSpec Day(std::string column) {
    return PartitionSpec{Transform::kDay, std::move(column)};
  }
  static PartitionSpec Month(std::string column) {
    return PartitionSpec{Transform::kMonth, std::move(column)};
  }

  bool partitioned() const { return transform != Transform::kNone; }

  /// Partition value of one row, e.g. "guangdong" or "day=19175".
  Result<std::string> PartitionOf(const format::Schema& schema,
                                  const format::Row& row) const;

  void EncodeTo(Bytes* dst) const;
  static Result<PartitionSpec> DecodeFrom(Decoder* dec);
};

/// File-level metadata carried by commits: "file paths, record counts, and
/// value ranges for the data objects".
struct DataFileMeta {
  std::string path;
  std::string partition;
  uint64_t record_count = 0;
  uint64_t file_bytes = 0;
  /// Commit sequence that first added this file (merge-on-read: delete
  /// predicates only mask rows of files added before them).
  uint64_t added_seq = 0;
  /// Per-column min/max for file-level data skipping.
  std::map<std::string, format::ColumnStats> column_stats;

  void EncodeTo(Bytes* dst) const;
  static Result<DataFileMeta> DecodeFrom(Decoder* dec);
};

/// A merge-on-read delete: rows of earlier files matching `predicate` are
/// masked at read time until compaction applies the delete physically
/// (the "merge-on-read tables" of Section VI-A).
struct DeleteRecord {
  uint64_t seq = 0;  // the delete's commit sequence
  query::Conjunction predicate;

  void EncodeTo(Bytes* dst) const;
  static Result<DeleteRecord> DecodeFrom(Decoder* dec);
};

/// One commit: the delta produced by one insert/update/delete/compaction.
struct CommitFile {
  uint64_t commit_seq = 0;
  int64_t timestamp = 0;  // sim seconds
  std::vector<DataFileMeta> added;
  std::vector<DataFileMeta> removed;
  std::vector<DeleteRecord> deletes;  // merge-on-read delete predicates

  /// Partitions this commit touches (rewrite conflict detection).
  std::vector<std::string> TouchedPartitions() const;

  void EncodeTo(Bytes* dst) const;
  static Result<CommitFile> DecodeFrom(ByteView data);
};

/// A snapshot: "index files that index valid commit files for a specified
/// time period", carrying operation-log statistics.
struct SnapshotMeta {
  uint64_t snapshot_id = 0;
  int64_t timestamp = 0;
  std::vector<uint64_t> commit_seqs;  // commits composing this snapshot
  // Operation log ("current files, row count and added/removed
  // files/rows").
  uint64_t total_files = 0;
  uint64_t total_rows = 0;
  uint64_t added_files = 0;
  uint64_t removed_files = 0;
  uint64_t added_rows = 0;
  uint64_t removed_rows = 0;

  void EncodeTo(Bytes* dst) const;
  static Result<SnapshotMeta> DecodeFrom(ByteView data);
};

/// The catalog entry of one table (stored in the distributed KV engine):
/// "table ID, directory paths, schema, snapshot descriptions, modification
/// timestamps".
struct TableInfo {
  uint64_t table_id = 0;
  std::string name;
  std::string path;  // root directory: <path>/data, <path>/metadata
  format::Schema schema;
  PartitionSpec partition_spec;
  uint64_t current_snapshot_id = 0;  // 0 = empty table
  uint64_t next_commit_seq = 1;
  uint64_t next_snapshot_id = 1;
  uint64_t next_file_id = 1;
  int64_t created_at = 0;
  int64_t modified_at = 0;
  bool soft_deleted = false;
  /// Snapshot descriptions (id -> timestamp), the version history.
  std::vector<std::pair<uint64_t, int64_t>> snapshot_log;

  void EncodeTo(Bytes* dst) const;
  static Result<TableInfo> DecodeFrom(ByteView data);
};

}  // namespace streamlake::table

#endif  // STREAMLAKE_TABLE_METADATA_H_
