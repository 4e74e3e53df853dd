#ifndef STREAMLAKE_TABLE_TABLE_H_
#define STREAMLAKE_TABLE_TABLE_H_

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "query/spec.h"
#include "sim/clock.h"
#include "sim/network_model.h"
#include "storage/object_store.h"
#include "table/catalog.h"
#include "table/metadata_store.h"

namespace streamlake {
class ThreadPool;
}  // namespace streamlake

namespace streamlake::table {

class DecodedBlockCache;

/// How DELETE is executed (Section VI-A discusses the query cost of
/// "merge-on-read tables").
enum class DeleteMode {
  /// Rewrite affected files immediately (expensive writes, cheap reads).
  kCopyOnWrite,
  /// Record a delete predicate; readers mask matching rows until
  /// compaction applies the delete physically (cheap writes, read cost
  /// grows with outstanding deletes).
  kMergeOnRead,
};

struct TableOptions {
  /// Max rows per data file written by one Insert (ingestion granularity —
  /// streaming ingestion with small batches is what creates the small-file
  /// problem LakeBrain compacts away).
  size_t max_rows_per_file = 65536;
  /// Binpack target for compaction ("target file size").
  uint64_t target_file_bytes = 4ULL << 20;
  DeleteMode delete_mode = DeleteMode::kCopyOnWrite;
  format::LakeFileOptions file_options;
};

struct SelectOptions {
  /// Push filters + aggregation into the storage side; off ships whole
  /// files to the compute engine.
  bool pushdown = true;
  /// Compute-engine memory (Fig. 15b); 0 = unlimited. Exceeding it fails
  /// with OutOfMemory.
  uint64_t memory_budget_bytes = 0;
  /// Time travel: read the table as of this timestamp (seconds); -1 = head.
  int64_t as_of_timestamp = -1;
  /// Or pin an explicit snapshot id; 0 = pick by time/head.
  uint64_t snapshot_id = 0;
};

struct SelectMetrics {
  /// Delta of the process-wide `table.metadata.*` registry counters over
  /// this query (see MetadataCounters::Capture).
  MetadataCounters metadata;
  uint64_t files_scanned = 0;
  uint64_t files_skipped = 0;      // skipped via partition/file stats
  uint64_t row_groups_scanned = 0;
  uint64_t row_groups_skipped = 0;
  uint64_t data_bytes_read = 0;    // bytes pulled from the storage pools
  uint64_t data_bytes_skipped = 0; // bytes avoided by skipping
  uint64_t bytes_to_compute = 0;   // bytes shipped over the compute link
  uint64_t peak_memory_bytes = 0;  // compute-side working set
  uint64_t elapsed_ns = 0;         // simulated wall time of the query
  // Late-materialization accounting (cache hits decode nothing):
  uint64_t bytes_decoded = 0;      // uncompressed chunk bytes decoded
  uint64_t columns_decoded = 0;    // column chunks decoded
  uint64_t rows_materialized = 0;  // rows a projection or SELECT * built
  uint64_t dict_code_prunes = 0;   // groups short-circuited in code space
  /// Row group x predicate pairs (WHERE and merge-on-read masks) that
  /// footer stats decided without touching a row: a predicate every row
  /// satisfies, or one no row can match, which skips its mask.
  uint64_t predicates_settled = 0;

  /// Fold in the scan counters of `other` (one scan job, or one ScanInto
  /// pass): counts add, peak memory takes the max. `metadata` and
  /// `elapsed_ns` are per-query captures and are left alone.
  void Merge(const SelectMetrics& other);
};

struct CompactionResult {
  uint64_t files_before = 0;
  uint64_t files_after = 0;
  uint64_t bytes_rewritten = 0;
};

/// Which table columns a scan must materialize (projection ∪ predicate ∪
/// join-key ∪ group-by columns). Default = all columns (SELECT *). With a
/// restricted set, non-required fields of returned rows carry NULL — the
/// scan never decodes their chunks.
struct ColumnSelection {
  bool all = true;
  std::vector<int> columns;  // sorted, unique; valid when !all

  static ColumnSelection All() { return ColumnSelection{}; }
  static ColumnSelection Of(std::vector<int> cols) {
    return ColumnSelection{false, std::move(cols)};
  }
};

/// Aggregated per-column footer statistics over the live files of the head
/// snapshot; index parallels the table schema. `ndv` is an upper-bound
/// estimate (per-chunk exact NDVs summed, capped at the non-NULL row
/// count).
struct ColumnFooterStats {
  uint64_t rows = 0;
  uint64_t null_count = 0;
  uint64_t ndv = 0;
  double avg_width = 0.0;
};

/// One scanned row group as the scan hands it on: the decoded column
/// chunks and a selection vector, not rows. Consumers that fold columns
/// (the batch aggregate, the merge-on-read delete count, the rewrites'
/// gather into a format::ColumnBatch) read the chunks through `selection`,
/// and so does the output stage: side 0 of a query::ChunkRows batch.
struct ScannedGroup {
  /// Decoded chunks by schema index, null where nothing was decoded. When
  /// `selection` is non-empty every output and filter column is set.
  std::vector<format::ColumnChunkPtr> chunks;
  /// The group's footer entry: its row count and per-column stats.
  const format::RowGroupMeta* meta = nullptr;
  /// Ascending indices of the visible rows that match the filter.
  std::vector<uint32_t> selection;
  uint64_t visible_rows = 0;  // rows left after merge-on-read masking
  double row_width = 0.0;     // footer-stats width of a selected row
  /// The scan's metrics (rows a consumer builds from the group count into
  /// them); null counts nothing.
  SelectMetrics* metrics = nullptr;
};

/// \brief Receiver of ScanInto's output. One fragment per pruned-in data
/// file, identified by its deterministic file-order index.
class RowSink {
 public:
  virtual ~RowSink() = default;
  /// Called once per ScanInto, before any Consume, with the number of
  /// fragments the scan will deliver.
  virtual void Open(size_t fragments) = 0;
  /// One scanned row group of `fragment`. A fragment's calls come
  /// serially, in row-group order, from its scan job; different fragments'
  /// calls run concurrently on the scan pool, so an implementation touches
  /// only per-fragment state here.
  virtual Status Consume(size_t fragment, const ScannedGroup& group) = 0;
};

/// Row counters of one ScanInto pass, merged in fragment order.
struct ScanTotals {
  uint64_t rows_scanned = 0;  // visible rows decoded from survivors
  uint64_t rows_matched = 0;  // rows passing the pushdown filter
  size_t fragments = 0;       // pruned-in data files
};

/// The per-query metrics capture of every SELECT, Table::Select and
/// LakehouseService::Query alike: reset `metrics` (a local when null), run
/// `query` against it, then fill in the `table.metadata.*` counter delta
/// (exact when single-threaded, an upper bound otherwise) and the
/// simulated `elapsed_ns`. Counts the query in `table.select.queries` and,
/// when it succeeds, `table.select.sim_ns`.
Result<query::QueryResult> CaptureQuery(
    sim::SimClock* clock, SelectMetrics* metrics,
    const std::function<Result<query::QueryResult>(SelectMetrics*)>& query);

/// \brief One lakehouse table object (Section V-B): ACID inserts, reads
/// with data skipping and pushdown, deletes/updates, snapshots with time
/// travel, and the compaction primitive LakeBrain drives.
///
/// Concurrency: multiple readers + one writer per commit, with optimistic
/// validation — rewrite commits (delete/update/compaction) fail with
/// Conflict when a commit after their base touched the same partitions or
/// recorded a merge-on-read delete that may match a file they replace.
class Table {
 public:
  /// `scan_pool` (optional) parallelizes scans across data files;
  /// `block_cache` (optional) serves repeat reads of decoded row groups.
  /// Both are shared across tables and owned by the core facade.
  Table(std::string name, MetadataStore* meta, storage::ObjectStore* objects,
        sim::SimClock* clock, sim::NetworkModel* compute_link,
        TableOptions options, ThreadPool* scan_pool = nullptr,
        DecodedBlockCache* block_cache = nullptr);

  const std::string& name() const { return name_; }

  /// INSERT: persist rows as data files under their partitions, then
  /// commit (metadata caching per Fig. 9 when accelerated).
  Status Insert(const std::vector<format::Row>& rows);

  /// SELECT with pruning, optional pushdown, optional time travel, for
  /// callers holding a QuerySpec rather than SQL: one catalog read, then
  /// RunPlan of a one-scan plan (`spec.where` is the scan filter, the rest
  /// of `spec` the output stage), under CaptureQuery (`metrics` is reset,
  /// then filled). A single-table SQL SELECT runs the same plan through
  /// LakehouseService::Query.
  Result<query::QueryResult> Select(const query::QuerySpec& spec,
                                    const SelectOptions& options = {},
                                    SelectMetrics* metrics = nullptr);

  /// The scan pipeline behind every read, against `info` — the catalog
  /// entry the caller already read, so the scan never re-reads it:
  /// snapshot resolution (explicit id, time travel, or `info`'s head) ->
  /// snapshot replay -> partition/file-stats pruning -> one job per
  /// surviving data file, fanned out on the scan pool with ParallelFor ->
  /// `sink`. Each job hands every scanned row group straight to the sink
  /// as a ScannedGroup batch. Totals and `m` (non-null; accumulated, not
  /// reset — callers own per-query capture) merge in file order with first
  /// failure winning. Only `required` columns (plus predicate columns) are
  /// decoded.
  Result<ScanTotals> ScanInto(const TableInfo& info,
                              const query::Conjunction& where,
                              const SelectOptions& options,
                              const ColumnSelection& required, RowSink* sink,
                              SelectMetrics* m);

  /// DELETE: metadata-only for fully-covered partitions, file rewrite
  /// otherwise. Returns rows deleted.
  Result<uint64_t> Delete(const query::Conjunction& where);

  /// UPDATE ... SET column = value WHERE where. Returns rows updated.
  Result<uint64_t> Update(const query::Conjunction& where,
                          const std::string& column,
                          const format::Value& value);

  /// Live data files of the head snapshot, shared with the catalog memo.
  /// LakeBrain's state features come from here.
  Result<LiveFileList> LiveFiles();

  /// Binpack-merge the files of `partition` smaller than the target file
  /// size into ~target-size files. `base_snapshot_id` is the snapshot the
  /// caller planned on; ingestion into the partition after it causes a
  /// Conflict (the failure mode the RL agent learns to avoid).
  Result<CompactionResult> CompactPartition(const std::string& partition,
                                            uint64_t base_snapshot_id = 0);

  /// Drop snapshots (and commits only they reference) older than
  /// `before_timestamp`, bounding time travel, then delete the data files
  /// no retained snapshot references. A retained snapshot that cannot be
  /// read fails the call before any data file is deleted.
  Status ExpireSnapshots(int64_t before_timestamp);

  /// Metadata compaction: squash the current snapshot's commit chain into
  /// one consolidated commit (what the MetaFresher's aggregation enables).
  /// Reading the head afterwards replays a single commit instead of the
  /// whole history; older snapshots keep their original chains for time
  /// travel. Returns the number of commits squashed.
  Result<size_t> RewriteManifest();

  Result<TableInfo> Info() const;

  /// How often each partition's files were scanned by reads — the "data
  /// access frequency" partition feature of the LakeBrain state
  /// (Section VI-A).
  std::map<std::string, uint64_t> PartitionAccessCounts() const;

  /// Aggregate the extended footer stats (null_count / ndv / avg_width) of
  /// every live file at head, per schema column. Feeds LakeBrain's SPN
  /// priors with observed data characteristics instead of synthetic
  /// defaults. Columns of files written without stats contribute rows only.
  Result<std::vector<ColumnFooterStats>> AggregateFooterStats();

  const TableOptions& options() const { return options_; }

 private:
  struct CommitRequest {
    uint64_t base_snapshot_id = 0;
    std::vector<DataFileMeta> added;
    std::vector<DataFileMeta> removed;
    std::vector<query::Conjunction> delete_predicates;  // merge-on-read
    bool is_rewrite = false;
  };

  /// Apply a commit with optimistic validation; advances the snapshot.
  Status CommitChanges(const CommitRequest& request);

  /// The one publish step of every commit, called under the commit lock:
  /// PutCommit, then PutSnapshot of `snap` as the next snapshot id, then
  /// the catalog flip of `info` to it. A failed write retracts the
  /// snapshot and commit records already written, so the catalog's old
  /// head stays the whole story.
  Status PublishCommit(TableInfo info, const CommitFile& commit,
                       SnapshotMeta snap);

  /// Commit `request` if `written` (the status of writing its data files)
  /// is OK. On any failure, delete `request.added` — no snapshot references
  /// them — and return the failure.
  Status CommitOrDiscard(const CommitRequest& request, Status written);

  /// The rows of one data file to write: an insert's rows, transposed
  /// into a column batch on the encoding thread, or a rewrite's batch.
  struct FileRows {
    const std::string* partition;
    std::span<const format::Row* const> rows;  // valid for the schema
    const format::ColumnBatch* batch = nullptr;  // when set, `rows` is unused

    size_t num_rows() const {
      return batch != nullptr ? batch->num_rows : rows.size();
    }
  };

  /// The one encode-and-publish path of data files, for inserts and
  /// rewrites alike. Encoding never touches the sim clock, so `files`
  /// encode in parallel on the scan pool unless one of them holds over half
  /// the rows. They are then named and written one at a time, in order, so
  /// paths and sim charges match a serial write: the sim-clock time and the
  /// table's file sequence make each path, and its file-level stats become
  /// its column stats. Each written file's metadata is appended to `added`.
  /// The first failed write stops the rest; the files already written stay
  /// in `added`, for the caller's CommitOrDiscard to delete.
  Status WriteFiles(const TableInfo& info, std::span<const FileRows> files,
                    std::vector<DataFileMeta>* added);

  /// Can a file possibly contain matching rows?
  bool FileMayMatch(const TableInfo& info, const DataFileMeta& file,
                    const query::Conjunction& where) const;

  /// Snapshot a ScanInto with `options` reads: explicit id wins, then time
  /// travel, then head. 0 means the table has no snapshot yet.
  static Result<uint64_t> ResolveSnapshotId(const TableInfo& info,
                                            const SelectOptions& options);

  /// Does every row of `file` match `where`, by its partition value and
  /// its stats' null count of the partition column alone?
  bool FullyCovered(const TableInfo& info, const DataFileMeta& file,
                    const query::Conjunction& where) const;

  /// Rewrite the files that may hold rows matching `where`: matched rows
  /// take `set_column = *set_value` (UPDATE), or are dropped when
  /// `set_value` is null (copy-on-write DELETE). Returns rows matched.
  Result<uint64_t> RewriteMatching(const query::Conjunction& where,
                                   const std::string& set_column,
                                   const format::Value* set_value);

  /// The input files of one rewritten data file.
  using FileGroup = std::vector<const DataFileMeta*>;

  /// What one Rewrite did.
  struct Rewritten {
    uint64_t rows_matched = 0;
    size_t files_written = 0;
  };

  /// The one rewrite loop, behind Update, copy-on-write Delete and
  /// CompactPartition. For each group in order, scan its files' visible
  /// rows (`live`'s merge-on-read deletes apply, so masked rows are
  /// dropped, never resurrected), gather the surviving rows from the
  /// decoded chunks into one column batch, building no row, then write it
  /// as one file in the first file's partition; finally commit every replaced and
  /// written file against `base_snapshot_id` (CommitOrDiscard). With
  /// `match`, the rows it matches take `set_col = *set_value`, or are
  /// dropped when `set_value` is null, and a group that loses and changes
  /// no row is left alone; without it (compaction) every row is kept and
  /// every group rewritten. Nothing to replace commits nothing.
  Result<Rewritten> Rewrite(const TableInfo& info, uint64_t base_snapshot_id,
                            const LiveSet& live,
                            const std::vector<FileGroup>& groups,
                            const query::BoundConjunction* match, int set_col,
                            const format::Value* set_value);

  /// The one scan of one data file, shared by ScanInto jobs and the
  /// delete-count / rewrite / compaction paths: open the file through the
  /// per-column block cache, skip row groups by stats against `where`
  /// (checking only predicate-referenced columns), compose the
  /// merge-on-read mask of `delete_records` newer than the file and AND
  /// `where` into a selection vector, both through
  /// query::BoundConjunction::AndInto (dictionary chunks compare codes,
  /// plain int64 and double chunks run typed kernels), decode the
  /// `required` columns only when some row survives, and hand each scanned
  /// group to `consume`. It builds no rows. It has no side effect beyond
  /// `m`, the block cache and storage reads: access counts, compute-link
  /// charges and the memory budget are the caller's.
  Status ScanFileRows(const TableInfo& info, const query::Conjunction& where,
                      const std::vector<const DeleteRecord*>& delete_records,
                      const DataFileMeta& file,
                      const ColumnSelection& required,
                      const std::function<Status(const ScannedGroup&)>& consume,
                      SelectMetrics* m);

  const std::string name_;
  MetadataStore* meta_;
  storage::ObjectStore* objects_;
  sim::SimClock* clock_;
  sim::NetworkModel* compute_link_;
  TableOptions options_;
  ThreadPool* scan_pool_;           // may be nullptr: scans run serially
  DecodedBlockCache* block_cache_;  // may be nullptr: reads are uncached
  // The one snapshot reader; its memo dies with this table object.
  Catalog catalog_;
  // Per-table data-file sequence: with the sim-clock time it makes every
  // path this table writes unique, and the same inputs name the same files.
  std::atomic<uint64_t> next_file_seq_{0};
  // Serializes the optimistic-commit protocol (validate + publish); the
  // committed state itself lives in the metadata store.
  Mutex commit_mu_{LockRank::kTableCommit, "table.commit"};
  mutable Mutex access_mu_ ACQUIRED_AFTER(commit_mu_){
      LockRank::kTableAccess, "table.access"};
  std::map<std::string, uint64_t> partition_access_ GUARDED_BY(access_mu_);
};

}  // namespace streamlake::table

#endif  // STREAMLAKE_TABLE_TABLE_H_
