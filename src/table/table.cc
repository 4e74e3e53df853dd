#include "table/table.h"

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <span>
#include <string_view>

#include "common/coding.h"
#include "common/metrics.h"
#include "common/threadpool.h"
#include "table/block_cache.h"
#include "table/plan_runner.h"

namespace streamlake::table {

namespace {

/// The seconds [n * width, (n + 1) * width - 1] of bucket `n` of a
/// `width`-second transform, when that range fits int64.
bool BucketRange(const Result<int64_t>& n, int64_t width, format::Value* min,
                 format::Value* max) {
  int64_t lo = 0;
  int64_t next = 0;
  if (!n.ok() || __builtin_mul_overflow(*n, width, &lo) ||
      __builtin_add_overflow(lo, width, &next)) {
    return false;
  }
  *min = lo;
  *max = next - 1;
  return true;
}

/// Value range covered by a partition string under `spec`, for pruning:
/// identity -> [v, v]; day=N -> [N*86400, (N+1)*86400 - 1] on the source
/// column. A partition string that does not parse (a NULL key is written
/// as "NULL") or whose range overflows int64 gives no range.
bool PartitionRange(const PartitionSpec& spec, const format::Schema& schema,
                    const std::string& partition, format::Value* min,
                    format::Value* max) {
  if (!spec.partitioned() || partition.empty()) return false;
  int col = schema.FieldIndex(spec.column);
  if (col < 0) return false;
  const std::string_view text(partition);
  switch (spec.transform) {
    case PartitionSpec::Transform::kIdentity: {
      switch (schema.field(col).type) {
        case format::DataType::kString:
          *min = partition;
          *max = partition;
          return true;
        case format::DataType::kInt64: {
          Result<int64_t> v = ParseDecimal<int64_t>(text, "partition");
          if (!v.ok()) return false;
          *min = *v;
          *max = *v;
          return true;
        }
        default:
          return false;
      }
    }
    case PartitionSpec::Transform::kDay:
      if (!text.starts_with("day=")) return false;
      return BucketRange(ParseDecimal<int64_t>(text.substr(4), "partition"),
                         86400, min, max);
    case PartitionSpec::Transform::kMonth:
      if (!text.starts_with("month=")) return false;
      return BucketRange(ParseDecimal<int64_t>(text.substr(6), "partition"),
                         86400 * 30, min, max);
    case PartitionSpec::Transform::kNone:
      return false;
  }
  return false;
}

/// One scanned group of a rewrite, appended to `batch` as its visible rows
/// in order, gathered from the decoded chunks. With `match`, the rows it
/// matches (tested over the chunks the scan decoded, every column) are
/// added to `matched` and take `set_col = *set_value`, or are dropped when
/// `set_value` is null.
Status GatherRows(const ScannedGroup& scanned,
                  const query::BoundConjunction* match, int set_col,
                  const format::Value* set_value, format::ColumnBatch* batch,
                  uint64_t* matched) {
  if (scanned.selection.empty()) return Status::OK();
  if (match == nullptr || !match->MayMatch(*scanned.meta, nullptr)) {
    batch->AppendRows(scanned.chunks, scanned.selection);
    return Status::OK();
  }
  std::vector<char> hit(scanned.chunks[0]->num_rows, 0);
  for (uint32_t r : scanned.selection) hit[r] = 1;
  SL_ASSIGN_OR_RETURN(
      uint64_t hits,
      match->AndInto(
          [&](size_t c) -> Result<const format::ColumnChunkData*> {
            return scanned.chunks[c].get();
          },
          scanned.meta, &hit, scanned.selection.size(), nullptr, nullptr));
  *matched += hits;
  std::vector<uint32_t> kept;
  std::vector<size_t> set_rows;  // batch rows that take the SET value
  kept.reserve(scanned.selection.size());
  for (uint32_t r : scanned.selection) {
    if (hit[r]) {
      if (set_value == nullptr) continue;
      set_rows.push_back(batch->num_rows + kept.size());
    }
    kept.push_back(r);
  }
  batch->AppendRows(scanned.chunks, kept);
  for (size_t row : set_rows) batch->Set(set_col, row, *set_value);
  return Status::OK();
}

}  // namespace

Table::Table(std::string name, MetadataStore* meta,
             storage::ObjectStore* objects, sim::SimClock* clock,
             sim::NetworkModel* compute_link, TableOptions options,
             ThreadPool* scan_pool, DecodedBlockCache* block_cache)
    : name_(std::move(name)),
      meta_(meta),
      objects_(objects),
      clock_(clock),
      compute_link_(compute_link),
      options_(options),
      scan_pool_(scan_pool),
      block_cache_(block_cache),
      catalog_(meta) {}

Result<TableInfo> Table::Info() const {
  SL_ASSIGN_OR_RETURN(TableInfo info, meta_->GetTableInfo(name_));
  if (info.soft_deleted) {
    return Status::NotFound("table " + name_ + " is dropped");
  }
  return info;
}

Status Table::WriteFiles(const TableInfo& info,
                         std::span<const FileRows> files,
                         std::vector<DataFileMeta>* added) {
  // The largest file bounds the parallel gain: when it holds over half the
  // rows, the hand-off to the pool costs more than the overlap saves (a
  // 450 + 50 row insert ran 12% slower at the median on a 4-core machine),
  // so the calling thread encodes them all.
  size_t rows = 0;
  size_t largest = 0;
  for (const FileRows& file : files) {
    rows += file.num_rows();
    largest = std::max(largest, file.num_rows());
  }
  std::vector<format::EncodedLakeFile> encoded(files.size());
  ParallelFor(largest * 2 <= rows ? scan_pool_ : nullptr, files.size(),
              [&](size_t i) {
                if (files[i].batch != nullptr) {
                  encoded[i] = format::EncodeLakeFile(
                      info.schema, *files[i].batch, options_.file_options);
                  return;
                }
                format::ColumnBatch batch(info.schema);
                batch.AppendRows(files[i].rows);
                encoded[i] = format::EncodeLakeFile(info.schema, batch,
                                                    options_.file_options);
              });
  Status s = Status::OK();
  for (size_t i = 0; s.ok() && i < files.size(); ++i) {
    const std::string& partition = *files[i].partition;
    DataFileMeta meta;
    meta.partition = partition;
    meta.record_count = files[i].num_rows();
    meta.file_bytes = encoded[i].bytes.size();
    for (size_t c = 0; c < encoded[i].column_stats.size(); ++c) {
      meta.column_stats[info.schema.field(c).name] =
          std::move(encoded[i].column_stats[c]);
    }
    std::string dir = partition.empty() ? "" : partition + "/";
    meta.path = info.path + "/data/" + dir + "f-" +
                std::to_string(info.table_id) + "-" +
                std::to_string(clock_->NowNanos()) + "-" +
                std::to_string(next_file_seq_.fetch_add(1));
    s = objects_->Write(meta.path, ByteView(encoded[i].bytes));
    if (s.ok()) added->push_back(std::move(meta));
  }
  return s;
}

Status Table::CommitChanges(const CommitRequest& request) {
  MutexLock lock(&commit_mu_);
  SL_ASSIGN_OR_RETURN(TableInfo info, meta_->GetTableInfo(name_));
  if (info.soft_deleted) return Status::NotFound("table dropped");

  // Optimistic validation for rewrites: a commit after our base that
  // touched the same partitions conflicts ("both compaction and data
  // ingestion require commits, which may have conflicts, leading to
  // compaction failure").
  if (request.is_rewrite && request.base_snapshot_id != 0 &&
      info.current_snapshot_id != request.base_snapshot_id) {
    std::set<std::string> ours;
    for (const DataFileMeta& f : request.added) ours.insert(f.partition);
    for (const DataFileMeta& f : request.removed) ours.insert(f.partition);
    SL_RETURN_NOT_OK(catalog_.VisitCommitsSince(
        info, request.base_snapshot_id,
        [&](const CommitFile& commit) -> Status {
          for (const std::string& p : commit.TouchedPartitions()) {
            if (ours.count(p)) {
              return Status::Conflict("partition '" + p +
                                      "' changed since base snapshot");
            }
          }
          // A merge-on-read delete touches no files, but rewriting a file
          // it may match would copy its masked rows into a file newer than
          // the delete, which then no longer masks them.
          for (const DeleteRecord& d : commit.deletes) {
            for (const DataFileMeta& f : request.removed) {
              if (FileMayMatch(info, f, d.predicate)) {
                return Status::Conflict(
                    "a delete since base snapshot may match " + f.path);
              }
            }
          }
          return Status::OK();
        }));
  }

  SnapshotMeta snap;
  if (info.current_snapshot_id != 0) {
    SL_ASSIGN_OR_RETURN(
        snap, meta_->GetSnapshot(info.path, info.current_snapshot_id));
  }
  CommitFile commit;
  commit.commit_seq = info.next_commit_seq++;
  commit.timestamp = static_cast<int64_t>(clock_->NowSeconds());
  commit.added = request.added;
  commit.removed = request.removed;
  for (DataFileMeta& f : commit.added) {
    if (f.added_seq == 0) f.added_seq = commit.commit_seq;
  }
  for (const query::Conjunction& predicate : request.delete_predicates) {
    commit.deletes.push_back(DeleteRecord{commit.commit_seq, predicate});
  }
  snap.commit_seqs.push_back(commit.commit_seq);
  snap.added_files = commit.added.size();
  snap.removed_files = commit.removed.size();
  snap.added_rows = 0;
  snap.removed_rows = 0;
  for (const DataFileMeta& f : commit.added) snap.added_rows += f.record_count;
  for (const DataFileMeta& f : commit.removed) {
    snap.removed_rows += f.record_count;
  }
  snap.total_files += commit.added.size() - commit.removed.size();
  snap.total_rows += snap.added_rows - snap.removed_rows;
  SL_RETURN_NOT_OK(PublishCommit(std::move(info), commit, std::move(snap)));
  // The removed files can no longer serve the new head; drop their cached
  // blocks now instead of waiting for LRU churn (time-travel readers of
  // older snapshots simply repopulate them). kTableBlockCache ranks below
  // kTableCommit, so invalidating under the commit lock is legal.
  if (block_cache_ != nullptr) {
    for (const DataFileMeta& f : commit.removed) {
      block_cache_->InvalidateFile(f.path);
    }
  }
  return Status::OK();
}

Status Table::PublishCommit(TableInfo info, const CommitFile& commit,
                            SnapshotMeta snap) {
  SL_RETURN_NOT_OK(meta_->PutCommit(info.path, commit));
  snap.snapshot_id = info.next_snapshot_id++;
  snap.timestamp = commit.timestamp;
  Status s = meta_->PutSnapshot(info.path, snap);
  if (s.ok()) {
    // Readers at the old snapshot keep their view; this flips visibility
    // ("changes made by a writer will not be visible to readers until they
    // are committed and recorded in a snapshot").
    info.current_snapshot_id = snap.snapshot_id;
    info.modified_at = snap.timestamp;
    info.snapshot_log.emplace_back(snap.snapshot_id, snap.timestamp);
    s = meta_->PutTableInfo(info);
    if (!s.ok()) {
      meta_->DeleteSnapshot(info.path, snap.snapshot_id)
          .LogIgnored("commit rollback");
    }
  }
  if (!s.ok()) {
    // The catalog still points at the old head; retract the records so
    // they never linger as half-committed state.
    meta_->DeleteCommit(info.path, commit.commit_seq)
        .LogIgnored("commit rollback");
  }
  return s;
}

Status Table::CommitOrDiscard(const CommitRequest& request, Status written) {
  if (written.ok()) written = CommitChanges(request);
  if (!written.ok()) {
    // Best-effort: a leaked orphan file is preferable to masking the
    // original error.
    for (const DataFileMeta& f : request.added) {
      objects_->Delete(f.path).LogIgnored("commit rollback");
    }
  }
  return written;
}

Status Table::Insert(const std::vector<format::Row>& rows) {
  if (rows.empty()) return Status::OK();
  SL_ASSIGN_OR_RETURN(TableInfo info, Info());
  for (const format::Row& row : rows) {
    SL_RETURN_NOT_OK(info.schema.ValidateRow(row));
  }
  // Group row pointers by partition, then cut files of at most
  // max_rows_per_file rows each.
  std::map<std::string, std::vector<const format::Row*>> by_partition;
  for (const format::Row& row : rows) {
    SL_ASSIGN_OR_RETURN(std::string partition,
                        info.partition_spec.PartitionOf(info.schema, row));
    by_partition[partition].push_back(&row);
  }
  std::vector<FileRows> files;
  for (const auto& [partition, part_rows] : by_partition) {
    const std::span<const format::Row* const> all(part_rows);
    for (size_t begin = 0; begin < all.size();
         begin += options_.max_rows_per_file) {
      files.push_back(
          {&partition, all.subspan(begin, std::min(options_.max_rows_per_file,
                                                   all.size() - begin))});
    }
  }
  CommitRequest request;
  Status written = WriteFiles(info, files, &request.added);
  return CommitOrDiscard(request, std::move(written));
}

bool Table::FileMayMatch(const TableInfo& info, const DataFileMeta& file,
                         const query::Conjunction& where) const {
  // Partition-range pruning.
  format::Value pmin, pmax;
  if (PartitionRange(info.partition_spec, info.schema, file.partition, &pmin,
                     &pmax)) {
    format::ColumnStats stats;
    stats.min = pmin;
    stats.max = pmax;
    if (!where.MayMatchStats(info.partition_spec.column, stats)) return false;
  }
  // File-level column stats pruning (record_count enables IS [NOT] NULL
  // pruning against the extended null_count stat).
  for (const auto& [column, stats] : file.column_stats) {
    if (!where.MayMatchStats(column, stats, file.record_count)) return false;
  }
  return true;
}

bool Table::FullyCovered(const TableInfo& info, const DataFileMeta& file,
                         const query::Conjunction& where) const {
  if (where.empty()) return true;  // DELETE without WHERE kills everything
  if (!info.partition_spec.partitioned()) return false;
  format::Value pmin, pmax;
  if (!PartitionRange(info.partition_spec, info.schema, file.partition, &pmin,
                      &pmax)) {
    return false;
  }
  // The partition value speaks for the non-NULL rows only (a NULL key and
  // the string 'NULL' share a partition), so the file's own stats must
  // show the partition column holds no NULL.
  auto stats = file.column_stats.find(info.partition_spec.column);
  if (stats == file.column_stats.end() || !stats->second.has_extended ||
      stats->second.null_count != 0) {
    return false;
  }
  // Every value in [pmin, pmax] must satisfy every predicate: the rule
  // that also spares a scan the predicates a row group's stats settle.
  for (const query::Predicate& predicate : where.predicates()) {
    if (predicate.column != info.partition_spec.column ||
        !query::PredicateHoldsForRange(predicate, pmin, pmax)) {
      return false;
    }
  }
  return true;
}

void SelectMetrics::Merge(const SelectMetrics& other) {
  files_scanned += other.files_scanned;
  files_skipped += other.files_skipped;
  row_groups_scanned += other.row_groups_scanned;
  row_groups_skipped += other.row_groups_skipped;
  data_bytes_read += other.data_bytes_read;
  data_bytes_skipped += other.data_bytes_skipped;
  bytes_to_compute += other.bytes_to_compute;
  peak_memory_bytes = std::max(peak_memory_bytes, other.peak_memory_bytes);
  bytes_decoded += other.bytes_decoded;
  columns_decoded += other.columns_decoded;
  rows_materialized += other.rows_materialized;
  dict_code_prunes += other.dict_code_prunes;
  predicates_settled += other.predicates_settled;
}

Result<query::QueryResult> CaptureQuery(
    sim::SimClock* clock, SelectMetrics* metrics,
    const std::function<Result<query::QueryResult>(SelectMetrics*)>& query) {
  static Counter* selects =
      MetricsRegistry::Global().GetCounter("table.select.queries");
  static Histogram* select_sim_ns =
      MetricsRegistry::Global().GetHistogram("table.select.sim_ns");
  SelectMetrics local_metrics;
  SelectMetrics* m = metrics != nullptr ? metrics : &local_metrics;
  *m = SelectMetrics();
  uint64_t start_ns = clock->NowNanos();
  MetadataCounters metadata_start = MetadataCounters::Capture();
  selects->Increment();
  SL_ASSIGN_OR_RETURN(query::QueryResult result, query(m));
  m->metadata = MetadataCounters::Capture() - metadata_start;
  m->elapsed_ns = clock->NowNanos() - start_ns;
  select_sim_ns->Record(m->elapsed_ns);
  return result;
}

Result<query::QueryResult> Table::Select(const query::QuerySpec& spec,
                                         const SelectOptions& options,
                                         SelectMetrics* metrics) {
  return CaptureQuery(
      clock_, metrics, [&](SelectMetrics* m) -> Result<query::QueryResult> {
        SL_ASSIGN_OR_RETURN(TableInfo info, Info());
        query::Plan plan;
        plan.scans.push_back({name_, name_, spec.where});
        plan.row_schema = info.schema;
        plan.output = spec;
        plan.output.where = query::Conjunction();
        const PinnedTable pinned{this, std::move(info)};
        return RunPlan({&pinned, 1}, plan, options, m);
      });
}

Status Table::ScanFileRows(
    const TableInfo& info, const query::Conjunction& where,
    const std::vector<const DeleteRecord*>& delete_records,
    const DataFileMeta& file,
    const ColumnSelection& required,
    const std::function<Status(const ScannedGroup&)>& consume,
    SelectMetrics* m) {
  CachedFileReader reader(objects_, block_cache_, file.path);
  SL_RETURN_NOT_OK(reader.Init());

  const format::Schema& schema = info.schema;
  const size_t num_fields = schema.num_fields();

  // Bind WHERE and the merge-on-read deletes newer than this file to the
  // schema once per file, not once per row group. A WHERE naming an unknown
  // column matches nothing: the scan still counts visible rows but decodes
  // nothing for it. A delete naming one masks nothing; an empty delete
  // conjunction masks every row.
  const query::BoundConjunction filter(where, schema);
  std::vector<query::BoundConjunction> masks;
  for (const DeleteRecord* d : delete_records) {
    if (d->seq <= file.added_seq) continue;
    query::BoundConjunction mask(d->predicate, schema);
    if (!mask.matches_none) masks.push_back(std::move(mask));
  }

  // Filter columns (WHERE + delete predicates) drive the selection vector;
  // output columns are what materialized rows must carry. Everything else
  // stays encoded on the storage side.
  std::vector<char> filter_col(num_fields, 0);
  if (!filter.matches_none) {
    for (const auto& bound : filter.predicates) filter_col[bound.column] = 1;
  }
  for (const query::BoundConjunction& mask : masks) {
    for (const auto& bound : mask.predicates) filter_col[bound.column] = 1;
  }
  std::vector<char> output_col(num_fields, required.all ? 1 : 0);
  if (!required.all) {
    for (int c : required.columns) {
      if (c >= 0 && static_cast<size_t>(c) < num_fields) output_col[c] = 1;
    }
  }

  for (size_t g = 0; g < reader.num_row_groups(); ++g) {
    const format::RowGroupMeta& group = reader.row_group(g);
    // Row-group skipping via footer stats, checking only the columns the
    // WHERE clause references (served from the cache on repeat queries,
    // so skipping costs no storage I/O at all).
    bool may_match = true;
    for (const auto& bound : filter.predicates) {
      if (!where.MayMatchStats(schema.field(bound.column).name,
                               group.columns[bound.column].stats,
                               group.num_rows)) {
        may_match = false;
        break;
      }
    }
    if (!may_match) {
      ++m->row_groups_skipped;
      continue;
    }
    ++m->row_groups_scanned;

    const size_t rows = group.num_rows;
    ScannedGroup batch;
    batch.chunks.resize(num_fields);
    batch.meta = &group;
    batch.metrics = m;
    std::vector<format::ColumnChunkPtr>& chunks = batch.chunks;
    const query::BoundConjunction::ChunkAt chunk_at =
        [&](size_t c) -> Result<const format::ColumnChunkData*> {
      if (chunks[c] == nullptr) {
        SL_ASSIGN_OR_RETURN(chunks[c], reader.ReadColumnChunk(g, c));
      }
      return chunks[c].get();
    };

    // Merge-on-read: mask rows hit by deletes newer than this file, one
    // delete at a time: a row is masked when every predicate of the delete
    // matches it. A delete's columns all decode before it is evaluated,
    // and before the group's stats may show it masks nothing here.
    // Cached chunks are pre-masking (masking depends on the query's
    // snapshot), so this stays per-query.
    std::vector<char> visible(rows, 1);
    uint64_t visible_rows = rows;
    for (const query::BoundConjunction& mask : masks) {
      for (const auto& bound : mask.predicates) {
        SL_RETURN_NOT_OK(chunk_at(bound.column).status());
      }
      if (visible_rows == 0 || !mask.MayMatch(group, &m->predicates_settled)) {
        continue;
      }
      std::vector<char> hit = visible;
      SL_ASSIGN_OR_RETURN(uint64_t hits,
                          mask.AndInto(chunk_at, &group, &hit, visible_rows,
                                       nullptr, &m->predicates_settled));
      if (hits == 0) continue;
      for (size_t r = 0; r < rows; ++r) visible[r] &= hit[r] ^ 1;
      visible_rows -= hits;
    }

    // Selection vector: AND WHERE in, column at a time, decoding each
    // column only if some row is still selected. Dictionary chunks are
    // evaluated in code space, and a literal absent from the dictionary
    // short-circuits the whole group without touching the value stream. A
    // predicate the group's stats show every row satisfies is not
    // evaluated, though its column still decodes at its turn.
    std::vector<char> selected = std::move(visible);
    SL_ASSIGN_OR_RETURN(
        uint64_t selected_rows,
        filter.AndInto(chunk_at, &group, &selected, visible_rows,
                       &m->dict_code_prunes, &m->predicates_settled));

    // Late materialization: only now, with the selection settled, decode
    // the surviving output columns. Building rows is left to the consumer.
    if (selected_rows > 0) {
      for (size_t c = 0; c < num_fields; ++c) {
        if (output_col[c]) SL_RETURN_NOT_OK(chunk_at(c).status());
      }
      batch.selection.reserve(selected_rows);
      for (size_t r = 0; r < rows; ++r) {
        if (selected[r]) batch.selection.push_back(static_cast<uint32_t>(r));
      }
    }
    batch.visible_rows = visible_rows;

    // Actual average width of a delivered row from the footer stats, for
    // the caller's transfer charge.
    for (size_t c = 0; c < num_fields; ++c) {
      if (!(output_col[c] || filter_col[c])) continue;
      const format::ColumnStats& cs = group.columns[c].stats;
      batch.row_width += cs.has_extended ? cs.avg_width : 8.0;
    }
    SL_RETURN_NOT_OK(consume(batch));
  }
  m->data_bytes_read += reader.storage_bytes_read();
  m->bytes_decoded += reader.bytes_decoded();
  m->columns_decoded += reader.chunks_decoded();
  return Status::OK();
}

Result<uint64_t> Table::ResolveSnapshotId(const TableInfo& info,
                                          const SelectOptions& options) {
  uint64_t snapshot_id = options.snapshot_id;
  if (snapshot_id == 0) {
    if (options.as_of_timestamp >= 0) {
      // Time travel: latest snapshot at or before the requested time.
      for (const auto& [id, ts] : info.snapshot_log) {
        if (ts <= options.as_of_timestamp) snapshot_id = id;
      }
      if (snapshot_id == 0) {
        return Status::NotFound("no snapshot at or before requested time");
      }
    } else {
      snapshot_id = info.current_snapshot_id;
    }
  }
  return snapshot_id;
}

Result<ScanTotals> Table::ScanInto(const TableInfo& info,
                                   const query::Conjunction& where,
                                   const SelectOptions& options,
                                   const ColumnSelection& required,
                                   RowSink* sink, SelectMetrics* m) {
  SL_ASSIGN_OR_RETURN(uint64_t snapshot_id, ResolveSnapshotId(info, options));

  // Snapshot + commits -> live file list + outstanding merge-on-read
  // deletes (none of either for an empty table).
  SL_ASSIGN_OR_RETURN(SnapshotRead snapshot, catalog_.Read(info, snapshot_id));
  const LiveSet& live = *snapshot.live;
  const uint64_t metadata_memory = snapshot.metadata_memory;
  m->peak_memory_bytes = std::max(m->peak_memory_bytes, metadata_memory);
  if (options.memory_budget_bytes > 0 &&
      m->peak_memory_bytes > options.memory_budget_bytes) {
    return Status::OutOfMemory("metadata working set " +
                               std::to_string(m->peak_memory_bytes) +
                               "B exceeds compute memory");
  }

  // Prune by partition + file stats.
  std::vector<const DataFileMeta*> scan_files;
  for (const DataFileMeta* file : live.files) {
    if (!FileMayMatch(info, *file, where)) {
      ++m->files_skipped;
      m->data_bytes_skipped += file->file_bytes;
      continue;
    }
    scan_files.push_back(file);
  }
  static Histogram* fanout =
      MetricsRegistry::Global().GetHistogram("table.select.fanout");
  fanout->Record(scan_files.size());

  // One job per surviving file. A job holds no table lock across the
  // simulated device I/O (same discipline as StreamObject::Append)
  // and hands each row group to the sink as soon as it is scanned. Totals
  // and metrics merge in file order below, with the first failure winning.
  struct ScanJob {
    ScanTotals totals;
    SelectMetrics metrics;
    Status status;
  };
  std::vector<ScanJob> jobs(scan_files.size());
  if (scan_pool_ != nullptr && jobs.size() > 1) {
    static Counter* parallel_jobs =
        MetricsRegistry::Global().GetCounter("table.select.parallel_jobs");
    parallel_jobs->Increment(jobs.size());
  }
  sink->Open(jobs.size());
  ParallelFor(scan_pool_, jobs.size(), [&](size_t i) {
    ScanJob& job = jobs[i];
    const DataFileMeta& file = *scan_files[i];
    ++job.metrics.files_scanned;
    {
      MutexLock access_lock(&access_mu_);
      ++partition_access_[file.partition];
    }
    if (!options.pushdown) {
      // Whole file crosses the network to the compute engine and sits in
      // its memory during the scan. A cache hit still pays the transfer —
      // the cache sits storage-side, saving PLog I/O and decode only.
      compute_link_->ChargeTransfer(file.file_bytes);
      job.metrics.bytes_to_compute += file.file_bytes;
      job.metrics.peak_memory_bytes = metadata_memory + file.file_bytes;
      if (options.memory_budget_bytes > 0 &&
          job.metrics.peak_memory_bytes > options.memory_budget_bytes) {
        job.status = Status::OutOfMemory("file scan exceeds compute memory");
        return;
      }
    }
    job.status = ScanFileRows(
        info, where, live.deletes, file, required,
        [&](const ScannedGroup& group) {
          const uint64_t matched = group.selection.size();
          if (options.pushdown) {
            // Storage-side filter: only matched rows cross the network,
            // charged at their actual average width rather than a flat
            // per-row constant.
            uint64_t bytes = static_cast<uint64_t>(
                group.row_width * static_cast<double>(matched));
            compute_link_->ChargeTransfer(bytes);
            job.metrics.bytes_to_compute += bytes;
          }
          job.totals.rows_scanned += group.visible_rows;
          job.totals.rows_matched += matched;
          return sink->Consume(i, group);
        },
        &job.metrics);
  });

  ScanTotals totals;
  totals.fragments = jobs.size();
  // `m` accumulates across calls (plan_runner shares one capture), so the
  // registry counters get this call's delta, not the running totals.
  SelectMetrics delta;
  for (const ScanJob& job : jobs) {
    SL_RETURN_NOT_OK(job.status);
    totals.rows_scanned += job.totals.rows_scanned;
    totals.rows_matched += job.totals.rows_matched;
    delta.Merge(job.metrics);
  }
  m->Merge(delta);
  static Counter* bytes_decoded =
      MetricsRegistry::Global().GetCounter("table.select.bytes_decoded");
  static Counter* columns_decoded =
      MetricsRegistry::Global().GetCounter("table.select.columns_decoded");
  static Counter* rows_materialized =
      MetricsRegistry::Global().GetCounter("table.select.rows_materialized");
  static Counter* dict_code_prunes =
      MetricsRegistry::Global().GetCounter("table.select.dict_code_prunes");
  static Counter* predicates_settled =
      MetricsRegistry::Global().GetCounter("table.select.predicates_settled");
  bytes_decoded->Increment(delta.bytes_decoded);
  columns_decoded->Increment(delta.columns_decoded);
  rows_materialized->Increment(delta.rows_materialized);
  dict_code_prunes->Increment(delta.dict_code_prunes);
  predicates_settled->Increment(delta.predicates_settled);
  return totals;
}

Result<std::vector<ColumnFooterStats>> Table::AggregateFooterStats() {
  SL_ASSIGN_OR_RETURN(TableInfo info, Info());
  std::vector<ColumnFooterStats> out(info.schema.num_fields());
  if (info.current_snapshot_id == 0) return out;
  SL_ASSIGN_OR_RETURN(SnapshotRead head,
                      catalog_.Read(info, info.current_snapshot_id));
  // Row-weighted avg_width merge: weight each chunk by its non-NULL rows.
  std::vector<double> width_sum(out.size(), 0.0);
  std::vector<uint64_t> width_rows(out.size(), 0);
  for (const DataFileMeta* file : head.live->files) {
    CachedFileReader reader(objects_, block_cache_, file->path);
    SL_RETURN_NOT_OK(reader.Init());
    for (size_t g = 0; g < reader.num_row_groups(); ++g) {
      const format::RowGroupMeta& group = reader.row_group(g);
      for (size_t c = 0; c < group.columns.size() && c < out.size(); ++c) {
        out[c].rows += group.num_rows;
        const format::ColumnStats& s = group.columns[c].stats;
        if (!s.has_extended) continue;
        out[c].null_count += s.null_count;
        out[c].ndv += s.ndv;
        uint64_t non_null = group.num_rows - s.null_count;
        width_sum[c] += s.avg_width * static_cast<double>(non_null);
        width_rows[c] += non_null;
      }
    }
  }
  for (size_t c = 0; c < out.size(); ++c) {
    // Per-chunk exact NDVs summed over-count values shared across chunks;
    // cap at the non-NULL row count to keep the upper-bound contract.
    out[c].ndv = std::min(out[c].ndv, out[c].rows - out[c].null_count);
    if (width_rows[c] > 0) {
      out[c].avg_width = width_sum[c] / static_cast<double>(width_rows[c]);
    }
  }
  return out;
}

std::map<std::string, uint64_t> Table::PartitionAccessCounts() const {
  MutexLock lock(&access_mu_);
  return partition_access_;
}

Result<LiveFileList> Table::LiveFiles() {
  SL_ASSIGN_OR_RETURN(TableInfo info, Info());
  SL_ASSIGN_OR_RETURN(SnapshotRead head,
                      catalog_.Read(info, info.current_snapshot_id));
  return LiveFileList(std::move(head.live));
}

Result<uint64_t> Table::Delete(const query::Conjunction& where) {
  SL_ASSIGN_OR_RETURN(TableInfo info, Info());
  SL_ASSIGN_OR_RETURN(SnapshotRead head,
                      catalog_.Read(info, info.current_snapshot_id));
  const LiveSet& live = *head.live;

  // Split candidates: fully-covered partitions drop by metadata only; the
  // rest need the rewrite (copy-on-write) or delete-predicate
  // (merge-on-read) path.
  CommitRequest metadata_only;
  metadata_only.base_snapshot_id = info.current_snapshot_id;
  metadata_only.is_rewrite = true;
  uint64_t deleted_rows = 0;
  std::vector<const DataFileMeta*> touched;
  for (const DataFileMeta* file : live.files) {
    if (!FileMayMatch(info, *file, where)) continue;
    if (FullyCovered(info, *file, where)) {
      metadata_only.removed.push_back(*file);
      deleted_rows += file->record_count;
    } else {
      touched.push_back(file);
    }
  }
  if (!metadata_only.removed.empty()) {
    // Files stay on disk for time travel; ExpireSnapshots reclaims them.
    SL_RETURN_NOT_OK(CommitChanges(metadata_only));
  }
  if (touched.empty()) return deleted_rows;

  if (options_.delete_mode == DeleteMode::kMergeOnRead) {
    // Count the visible rows the predicate will mask (a read-only scan
    // that decodes only the filter columns and builds no rows), then
    // record the delete; no data files are rewritten.
    SelectMetrics scan_metrics;
    for (const DataFileMeta* file : touched) {
      SL_RETURN_NOT_OK(ScanFileRows(
          info, where, live.deletes, *file, ColumnSelection::Of({}),
          [&](const ScannedGroup& group) {
            deleted_rows += group.selection.size();
            return Status::OK();
          },
          &scan_metrics));
    }
    CommitRequest request;
    request.base_snapshot_id = info.current_snapshot_id;
    request.delete_predicates.push_back(where);
    SL_RETURN_NOT_OK(CommitChanges(request));
    return deleted_rows;
  }

  SL_ASSIGN_OR_RETURN(uint64_t rewritten, RewriteMatching(where, "", nullptr));
  return deleted_rows + rewritten;
}

Result<uint64_t> Table::Update(const query::Conjunction& where,
                               const std::string& column,
                               const format::Value& value) {
  return RewriteMatching(where, column, &value);
}

Result<uint64_t> Table::RewriteMatching(const query::Conjunction& where,
                                        const std::string& set_column,
                                        const format::Value* set_value) {
  SL_ASSIGN_OR_RETURN(TableInfo info, Info());
  int set_col = -1;
  if (set_value != nullptr) {
    set_col = info.schema.FieldIndex(set_column);
    if (set_col < 0) {
      return Status::InvalidArgument("unknown column " + set_column);
    }
    if (format::TypeOf(*set_value) != info.schema.field(set_col).type) {
      return Status::InvalidArgument("SET value type mismatch");
    }
  }
  SL_ASSIGN_OR_RETURN(SnapshotRead head,
                      catalog_.Read(info, info.current_snapshot_id));
  std::vector<FileGroup> groups;
  for (const DataFileMeta* file : head.live->files) {
    if (FileMayMatch(info, *file, where)) groups.push_back({file});
  }
  const query::BoundConjunction match(where, info.schema);
  SL_ASSIGN_OR_RETURN(Rewritten rewritten,
                      Rewrite(info, info.current_snapshot_id, *head.live,
                              groups, &match, set_col, set_value));
  return rewritten.rows_matched;
}

Result<Table::Rewritten> Table::Rewrite(const TableInfo& info,
                                        uint64_t base_snapshot_id,
                                        const LiveSet& live,
                                        const std::vector<FileGroup>& groups,
                                        const query::BoundConjunction* match,
                                        int set_col,
                                        const format::Value* set_value) {
  CommitRequest request;
  request.base_snapshot_id = base_snapshot_id;
  request.is_rewrite = true;
  Rewritten rewritten;
  SelectMetrics scan_metrics;
  Status s = Status::OK();
  for (const FileGroup& group : groups) {
    uint64_t records = 0;
    for (const DataFileMeta* file : group) records += file->record_count;
    format::ColumnBatch batch(info.schema);
    batch.Reserve(records);  // at most every record stays visible
    uint64_t matched = 0;
    for (const DataFileMeta* file : group) {
      s = ScanFileRows(
          info, query::Conjunction(), live.deletes, *file,
          ColumnSelection::All(),
          [&](const ScannedGroup& scanned) {
            return GatherRows(scanned, match, set_col, set_value, &batch,
                              &matched);
          },
          &scan_metrics);
      if (!s.ok()) break;
    }
    if (!s.ok()) break;
    // With no row matched, every visible row is kept.
    if (match != nullptr && matched == 0 && batch.num_rows == records) {
      continue;  // stats were conservative; the files stay untouched
    }
    rewritten.rows_matched += matched;
    for (const DataFileMeta* file : group) request.removed.push_back(*file);
    if (batch.num_rows == 0) continue;
    const FileRows file{&group.front()->partition, {}, &batch};
    s = WriteFiles(info, {&file, 1}, &request.added);
    if (!s.ok()) break;
  }
  if (s.ok() && request.removed.empty()) return rewritten;
  rewritten.files_written = request.added.size();
  // Replaced files stay on disk for time travel until snapshot expiration.
  s = CommitOrDiscard(request, std::move(s));
  if (!s.ok()) return s;
  return rewritten;
}

Result<CompactionResult> Table::CompactPartition(const std::string& partition,
                                                 uint64_t base_snapshot_id) {
  SL_ASSIGN_OR_RETURN(TableInfo info, Info());
  uint64_t base = base_snapshot_id == 0 ? info.current_snapshot_id
                                        : base_snapshot_id;
  SL_ASSIGN_OR_RETURN(SnapshotRead planned, catalog_.Read(info, base));

  // Binpack: gather the partition's small files, largest first, into bins
  // that close once they reach ~target_file_bytes; each bin becomes one
  // file.
  std::vector<const DataFileMeta*> small;
  for (const DataFileMeta* file : planned.live->files) {
    if (file->partition == partition &&
        file->file_bytes < options_.target_file_bytes) {
      small.push_back(file);
    }
  }
  CompactionResult result;
  result.files_before = small.size();
  if (small.size() < 2) {
    result.files_after = small.size();
    return result;  // nothing to gain
  }
  std::sort(small.begin(), small.end(),
            [](const DataFileMeta* a, const DataFileMeta* b) {
              return a->file_bytes > b->file_bytes;
            });
  std::vector<FileGroup> bins(1);
  uint64_t bin_bytes = 0;
  for (const DataFileMeta* file : small) {
    if (bin_bytes >= options_.target_file_bytes) {
      bins.emplace_back();
      bin_bytes = 0;
    }
    bins.back().push_back(file);
    bin_bytes += file->file_bytes;
    result.bytes_rewritten += file->file_bytes;
  }
  // Compaction physically applies outstanding merge-on-read deletes.
  SL_ASSIGN_OR_RETURN(
      Rewritten rewritten,
      Rewrite(info, base, *planned.live, bins, nullptr, -1, nullptr));
  result.files_after = rewritten.files_written;
  return result;
}

Result<size_t> Table::RewriteManifest() {
  MutexLock lock(&commit_mu_);
  SL_ASSIGN_OR_RETURN(TableInfo info, meta_->GetTableInfo(name_));
  if (info.soft_deleted) return Status::NotFound("table dropped");
  if (info.current_snapshot_id == 0) return size_t{0};
  SL_ASSIGN_OR_RETURN(
      SnapshotMeta head,
      meta_->GetSnapshot(info.path, info.current_snapshot_id));
  if (head.commit_seqs.size() <= 1) return size_t{0};

  // Replay the chain into the live file set and write it as one commit.
  // Files keep their original added_seq and outstanding merge-on-read
  // deletes carry over with their original sequences, so read-time
  // masking is unchanged.
  SL_ASSIGN_OR_RETURN(SnapshotRead replayed,
                      catalog_.Read(info, info.current_snapshot_id));
  const size_t squashed = head.commit_seqs.size();
  CommitFile consolidated;
  consolidated.commit_seq = info.next_commit_seq++;
  consolidated.timestamp = static_cast<int64_t>(clock_->NowSeconds());
  for (const DataFileMeta* f : replayed.live->files) {
    consolidated.added.push_back(*f);
  }
  for (const DeleteRecord* d : replayed.live->deletes) {
    consolidated.deletes.push_back(*d);
  }
  head.commit_seqs = {consolidated.commit_seq};
  head.added_files = 0;
  head.removed_files = 0;
  head.added_rows = 0;
  head.removed_rows = 0;
  SL_RETURN_NOT_OK(
      PublishCommit(std::move(info), consolidated, std::move(head)));
  return squashed;
}

Status Table::ExpireSnapshots(int64_t before_timestamp) {
  MutexLock lock(&commit_mu_);
  SL_ASSIGN_OR_RETURN(TableInfo info, meta_->GetTableInfo(name_));
  std::vector<std::pair<uint64_t, int64_t>> kept;
  std::set<uint64_t> kept_commits;
  std::vector<uint64_t> expired;
  std::set<uint64_t> expired_commits;
  for (const auto& [id, ts] : info.snapshot_log) {
    // The current snapshot never expires.
    bool expires = ts < before_timestamp && id != info.current_snapshot_id;
    auto snap = meta_->GetSnapshot(info.path, id);
    if (expires) {
      // Tolerated: a retry after a partial expiry (snapshots deleted, log
      // not yet rewritten) finds them gone.
      expired.push_back(id);
      if (snap.ok()) {
        expired_commits.insert(snap->commit_seqs.begin(),
                               snap->commit_seqs.end());
      }
    } else {
      // Not tolerated: the GC below keeps only what retained snapshots
      // reference, so an unreadable one would lose its files.
      if (!snap.ok()) return snap.status();
      kept.emplace_back(id, ts);
      kept_commits.insert(snap->commit_seqs.begin(), snap->commit_seqs.end());
    }
  }
  for (uint64_t id : expired) {
    SL_RETURN_NOT_OK(meta_->DeleteSnapshot(info.path, id));
  }
  // Commits only referenced by expired snapshots go too.
  for (uint64_t seq : expired_commits) {
    if (!kept_commits.count(seq)) {
      SL_RETURN_NOT_OK(meta_->DeleteCommit(info.path, seq));
    }
  }
  info.snapshot_log = std::move(kept);
  SL_RETURN_NOT_OK(meta_->PutTableInfo(info));

  // Physical GC: delete data files no retained snapshot references
  // (rewrites keep their replaced files on disk for time travel; this is
  // where that space comes back).
  std::set<std::string> referenced;
  for (const auto& [id, ts] : info.snapshot_log) {
    SL_ASSIGN_OR_RETURN(SnapshotRead snap, catalog_.Read(info, id));
    for (const DataFileMeta* f : snap.live->files) referenced.insert(f->path);
  }
  for (const std::string& path : objects_->List(info.path + "/data/")) {
    if (path.ends_with("/.dir")) continue;  // directory marker
    if (!referenced.count(path)) {
      SL_RETURN_NOT_OK(objects_->Delete(path));
      // The file is physically gone; no snapshot can read it again.
      if (block_cache_ != nullptr) block_cache_->InvalidateFile(path);
    }
  }
  return Status::OK();
}

}  // namespace streamlake::table
