#ifndef STREAMLAKE_TABLE_PLAN_RUNNER_H_
#define STREAMLAKE_TABLE_PLAN_RUNNER_H_

#include <vector>

#include "query/plan.h"
#include "table/table.h"

namespace streamlake::table {

/// \brief Executes a query plan tree against pinned table snapshots.
///
/// Every scan goes through Table::ScanInto. A single-scan plan collapses
/// into Table::Select, which is ScanInto an ExecutorSink of the plan's
/// operators. Join plans run the hash-join pipeline: every build side is
/// scanned into per-fragment buffers and its key map is built serially in
/// fragment order (deterministic bucket order), then the probe scan
/// streams each row group through the join chain on the pool threads into
/// the same ExecutorSink Select uses, whose per-fragment executors merge
/// in file order — so a parallel join is byte-identical to a serial one.
class PlanRunner {
 public:
  struct PinnedTable {
    Table* table = nullptr;
    /// Snapshot resolved before any scan started; 0 = let the scan
    /// resolve (single-table path keeps Select's own resolution).
    uint64_t snapshot_id = 0;
  };

  PlanRunner(std::vector<PinnedTable> tables, SelectOptions options);

  /// Walk the plan and produce its result. `metrics` accumulates scan
  /// metrics across all tables (not reset here; the caller owns per-query
  /// capture of metadata counters and elapsed time for join plans).
  Result<query::QueryResult> Run(const query::PlanNode& root,
                                 SelectMetrics* metrics = nullptr);

 private:
  /// Per-table scan options: the query-wide options with the pinned
  /// snapshot substituted.
  SelectOptions OptionsFor(size_t table_index) const;

  std::vector<PinnedTable> tables_;
  SelectOptions options_;
};

}  // namespace streamlake::table

#endif  // STREAMLAKE_TABLE_PLAN_RUNNER_H_
