#include "table/metadata.h"

#include <set>

namespace streamlake::table {

// ---------------- PartitionSpec ----------------

Result<std::string> PartitionSpec::PartitionOf(const format::Schema& schema,
                                               const format::Row& row) const {
  if (transform == Transform::kNone) return std::string();
  int col = schema.FieldIndex(column);
  if (col < 0) {
    return Status::InvalidArgument("partition column " + column + " missing");
  }
  const format::Value& v = row.fields[col];
  switch (transform) {
    case Transform::kIdentity:
      return format::ValueToString(v);
    case Transform::kDay: {
      if (format::TypeOf(v) != format::DataType::kInt64) {
        return Status::InvalidArgument("day() requires int64 seconds");
      }
      return "day=" + std::to_string(std::get<int64_t>(v) / 86400);
    }
    case Transform::kMonth: {
      if (format::TypeOf(v) != format::DataType::kInt64) {
        return Status::InvalidArgument("month() requires int64 seconds");
      }
      return "month=" + std::to_string(std::get<int64_t>(v) / (86400 * 30));
    }
    case Transform::kNone:
      return std::string();
  }
  return std::string();
}

void PartitionSpec::EncodeTo(Bytes* dst) const {
  dst->push_back(static_cast<uint8_t>(transform));
  PutLengthPrefixed(dst, std::string_view(column));
}

Result<PartitionSpec> PartitionSpec::DecodeFrom(Decoder* dec) {
  PartitionSpec spec;
  if (dec->Remaining() < 1) return Status::Corruption("partition transform");
  spec.transform = static_cast<Transform>(*dec->position());
  dec->Skip(1);
  if (!dec->GetString(&spec.column)) {
    return Status::Corruption("partition column");
  }
  return spec;
}

// ---------------- DataFileMeta ----------------

void DataFileMeta::EncodeTo(Bytes* dst) const {
  PutLengthPrefixed(dst, std::string_view(path));
  PutLengthPrefixed(dst, std::string_view(partition));
  PutVarint64(dst, record_count);
  PutVarint64(dst, file_bytes);
  PutVarint64(dst, added_seq);
  PutVarint64(dst, column_stats.size());
  for (const auto& [column, stats] : column_stats) {
    PutLengthPrefixed(dst, std::string_view(column));
    format::EncodeColumnStats(dst, stats);
  }
}

Result<DataFileMeta> DataFileMeta::DecodeFrom(Decoder* dec) {
  DataFileMeta meta;
  if (!dec->GetString(&meta.path) || !dec->GetString(&meta.partition) ||
      !dec->GetVarint(&meta.record_count) ||
      !dec->GetVarint(&meta.file_bytes) || !dec->GetVarint(&meta.added_seq)) {
    return Status::Corruption("datafile meta");
  }
  uint64_t num_stats;
  if (!dec->GetVarint(&num_stats)) return Status::Corruption("stats count");
  for (uint64_t i = 0; i < num_stats; ++i) {
    std::string column;
    if (!dec->GetString(&column)) return Status::Corruption("stats column");
    SL_ASSIGN_OR_RETURN(format::ColumnStats stats,
                        format::DecodeColumnStats(dec));
    meta.column_stats[column] = std::move(stats);
  }
  return meta;
}

// ---------------- DeleteRecord ----------------

void DeleteRecord::EncodeTo(Bytes* dst) const {
  PutVarint64(dst, seq);
  predicate.EncodeTo(dst);
}

Result<DeleteRecord> DeleteRecord::DecodeFrom(Decoder* dec) {
  DeleteRecord record;
  if (!dec->GetVarint(&record.seq)) return Status::Corruption("delete seq");
  SL_ASSIGN_OR_RETURN(record.predicate, query::Conjunction::DecodeFrom(dec));
  return record;
}

// ---------------- CommitFile ----------------

std::vector<std::string> CommitFile::TouchedPartitions() const {
  std::set<std::string> partitions;
  for (const DataFileMeta& f : added) partitions.insert(f.partition);
  for (const DataFileMeta& f : removed) partitions.insert(f.partition);
  return std::vector<std::string>(partitions.begin(), partitions.end());
}

void CommitFile::EncodeTo(Bytes* dst) const {
  PutVarint64(dst, commit_seq);
  PutVarint64Signed(dst, timestamp);
  PutVarint64(dst, added.size());
  for (const DataFileMeta& f : added) f.EncodeTo(dst);
  PutVarint64(dst, removed.size());
  for (const DataFileMeta& f : removed) f.EncodeTo(dst);
  PutVarint64(dst, deletes.size());
  for (const DeleteRecord& d : deletes) d.EncodeTo(dst);
}

Result<CommitFile> CommitFile::DecodeFrom(ByteView data) {
  Decoder dec(data);
  CommitFile commit;
  uint64_t added_count, removed_count;
  if (!dec.GetVarint(&commit.commit_seq) ||
      !dec.GetVarintSigned(&commit.timestamp) ||
      !dec.GetVarint(&added_count)) {
    return Status::Corruption("commit header");
  }
  for (uint64_t i = 0; i < added_count; ++i) {
    SL_ASSIGN_OR_RETURN(DataFileMeta meta, DataFileMeta::DecodeFrom(&dec));
    commit.added.push_back(std::move(meta));
  }
  if (!dec.GetVarint(&removed_count)) {
    return Status::Corruption("commit removed count");
  }
  for (uint64_t i = 0; i < removed_count; ++i) {
    SL_ASSIGN_OR_RETURN(DataFileMeta meta, DataFileMeta::DecodeFrom(&dec));
    commit.removed.push_back(std::move(meta));
  }
  uint64_t delete_count;
  if (!dec.GetVarint(&delete_count)) {
    return Status::Corruption("commit delete count");
  }
  if (delete_count > dec.Remaining()) {
    return Status::Corruption("commit delete count bogus");
  }
  for (uint64_t i = 0; i < delete_count; ++i) {
    SL_ASSIGN_OR_RETURN(DeleteRecord record, DeleteRecord::DecodeFrom(&dec));
    commit.deletes.push_back(std::move(record));
  }
  return commit;
}

// ---------------- SnapshotMeta ----------------

void SnapshotMeta::EncodeTo(Bytes* dst) const {
  PutVarint64(dst, snapshot_id);
  PutVarint64Signed(dst, timestamp);
  PutVarint64(dst, commit_seqs.size());
  for (uint64_t seq : commit_seqs) PutVarint64(dst, seq);
  PutVarint64(dst, total_files);
  PutVarint64(dst, total_rows);
  PutVarint64(dst, added_files);
  PutVarint64(dst, removed_files);
  PutVarint64(dst, added_rows);
  PutVarint64(dst, removed_rows);
}

Result<SnapshotMeta> SnapshotMeta::DecodeFrom(ByteView data) {
  Decoder dec(data);
  SnapshotMeta snap;
  uint64_t count;
  if (!dec.GetVarint(&snap.snapshot_id) ||
      !dec.GetVarintSigned(&snap.timestamp) || !dec.GetVarint(&count)) {
    return Status::Corruption("snapshot header");
  }
  if (count > dec.Remaining()) {
    return Status::Corruption("snapshot commit count bogus");
  }
  snap.commit_seqs.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    uint64_t seq;
    if (!dec.GetVarint(&seq)) return Status::Corruption("snapshot commits");
    snap.commit_seqs.push_back(seq);
  }
  if (!dec.GetVarint(&snap.total_files) || !dec.GetVarint(&snap.total_rows) ||
      !dec.GetVarint(&snap.added_files) || !dec.GetVarint(&snap.removed_files) ||
      !dec.GetVarint(&snap.added_rows) || !dec.GetVarint(&snap.removed_rows)) {
    return Status::Corruption("snapshot stats");
  }
  return snap;
}

// ---------------- TableInfo ----------------

void TableInfo::EncodeTo(Bytes* dst) const {
  PutVarint64(dst, table_id);
  PutLengthPrefixed(dst, std::string_view(name));
  PutLengthPrefixed(dst, std::string_view(path));
  schema.EncodeTo(dst);
  partition_spec.EncodeTo(dst);
  PutVarint64(dst, current_snapshot_id);
  PutVarint64(dst, next_commit_seq);
  PutVarint64(dst, next_snapshot_id);
  PutVarint64(dst, next_file_id);
  PutVarint64Signed(dst, created_at);
  PutVarint64Signed(dst, modified_at);
  dst->push_back(soft_deleted ? 1 : 0);
  PutVarint64(dst, snapshot_log.size());
  for (const auto& [id, ts] : snapshot_log) {
    PutVarint64(dst, id);
    PutVarint64Signed(dst, ts);
  }
}

Result<TableInfo> TableInfo::DecodeFrom(ByteView data) {
  Decoder dec(data);
  TableInfo info;
  if (!dec.GetVarint(&info.table_id) || !dec.GetString(&info.name) ||
      !dec.GetString(&info.path)) {
    return Status::Corruption("table info header");
  }
  SL_ASSIGN_OR_RETURN(info.schema, format::Schema::DecodeFrom(&dec));
  SL_ASSIGN_OR_RETURN(info.partition_spec, PartitionSpec::DecodeFrom(&dec));
  if (!dec.GetVarint(&info.current_snapshot_id) ||
      !dec.GetVarint(&info.next_commit_seq) ||
      !dec.GetVarint(&info.next_snapshot_id) ||
      !dec.GetVarint(&info.next_file_id) ||
      !dec.GetVarintSigned(&info.created_at) ||
      !dec.GetVarintSigned(&info.modified_at)) {
    return Status::Corruption("table info counters");
  }
  if (dec.Remaining() < 1) return Status::Corruption("table info flags");
  info.soft_deleted = *dec.position() != 0;
  dec.Skip(1);
  uint64_t log_size;
  if (!dec.GetVarint(&log_size)) return Status::Corruption("snapshot log");
  for (uint64_t i = 0; i < log_size; ++i) {
    uint64_t id;
    int64_t ts;
    if (!dec.GetVarint(&id) || !dec.GetVarintSigned(&ts)) {
      return Status::Corruption("snapshot log entry");
    }
    info.snapshot_log.emplace_back(id, ts);
  }
  return info;
}

}  // namespace streamlake::table
