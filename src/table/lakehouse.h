#ifndef STREAMLAKE_TABLE_LAKEHOUSE_H_
#define STREAMLAKE_TABLE_LAKEHOUSE_H_

#include <map>
#include <memory>
#include <string>

#include "common/mutex.h"
#include "query/sql_parser.h"
#include "table/plan_runner.h"
#include "table/table.h"

namespace streamlake::table {

/// \brief The lakehouse service: CREATE TABLE / DROP TABLE (soft + hard) /
/// restore, and the handle registry for Table objects (Section V-B).
class LakehouseService {
 public:
  /// `scan_pool` / `block_cache` (both optional, owned by the core facade)
  /// are handed to every Table this service opens: the pool parallelizes
  /// Select across data files, the cache serves repeat reads.
  LakehouseService(MetadataStore* meta, storage::ObjectStore* objects,
                   sim::SimClock* clock, sim::NetworkModel* compute_link,
                   TableOptions default_options = TableOptions(),
                   ThreadPool* scan_pool = nullptr,
                   DecodedBlockCache* block_cache = nullptr);

  /// CREATE TABLE: register schema/path/partitioning in the catalog and
  /// create the /data and /metadata directories.
  Result<Table*> CreateTable(const std::string& name,
                             const format::Schema& schema,
                             const PartitionSpec& partition_spec,
                             const TableOptions* options = nullptr);

  /// Resolve a live table.
  Result<Table*> GetTable(const std::string& name);

  /// Execute one parsed SQL statement — the executor of all SQL.
  ///
  /// SELECT, joined or not, takes one path: a pin pass reads each
  /// referenced table's catalog entry once, BEFORE any scan starts, so a
  /// join never observes a torn cross-table state (a commit landing
  /// mid-query affects either all of its scans or none); query::PlanSelect
  /// lowers the statement to a query::Plan, and RunPlan executes it under
  /// CaptureQuery. A single-table SELECT is the same one-scan plan
  /// Table::Select runs for the same spec, so it does exactly that work.
  /// `options.snapshot_id` cannot be combined with joins: snapshot ids are
  /// per-table.
  ///
  /// INSERT / DELETE / UPDATE return one row with the affected-row count
  /// (column "affected"); `options` and `metrics` apply to SELECT only.
  /// Every SQL literal is checked against its column (query::CoerceLiteral)
  /// before anything is scanned or written.
  Result<query::QueryResult> Query(const query::SqlStatement& statement,
                                   const SelectOptions& options = {},
                                   SelectMetrics* metrics = nullptr);

  /// Drop table soft: unregister but keep data for restoration.
  Status DropTableSoft(const std::string& name);

  /// Drop table hard: delete /data and /metadata and clear the catalog
  /// (clearing the acceleration cache first, then the persistent layer).
  Status DropTableHard(const std::string& name);

  /// Restore a soft-dropped table: "a new table can be created and linked
  /// to the original table path".
  Result<Table*> RestoreTable(const std::string& name);

  std::vector<std::string> ListTables() const { return meta_->ListTables(); }

  /// MetaFresher pass: flush cached metadata to persistent files.
  Result<size_t> FlushMetadata() { return meta_->FlushPending(); }

  MetadataStore* metadata_store() { return meta_; }

 private:
  /// Resolve a live table and its catalog entry with one catalog read.
  Result<PinnedTable> PinTable(const std::string& name);

  MetadataStore* meta_;
  storage::ObjectStore* objects_;
  sim::SimClock* clock_;
  sim::NetworkModel* compute_link_;
  TableOptions default_options_;
  ThreadPool* scan_pool_;           // may be nullptr
  DecodedBlockCache* block_cache_;  // may be nullptr
  Mutex mu_{LockRank::kLakehouse, "table.lakehouse"};
  std::map<std::string, std::unique_ptr<Table>> tables_ GUARDED_BY(mu_);
  uint64_t next_table_id_ GUARDED_BY(mu_) = 1;
};

}  // namespace streamlake::table

#endif  // STREAMLAKE_TABLE_LAKEHOUSE_H_
