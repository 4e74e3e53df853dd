#ifndef STREAMLAKE_TABLE_PLAN_RUNNER_H_
#define STREAMLAKE_TABLE_PLAN_RUNNER_H_

#include <vector>

#include "query/plan.h"
#include "table/table.h"

namespace streamlake::table {

/// \brief Executes a query plan tree against pinned table snapshots.
///
/// Every plan runs the same way: one probe scan, a join chain that may be
/// empty, then the ExecutorSink Table::Select uses. Every scan is
/// Table::ScanInto against the pinned TableInfo, so no scan re-reads the
/// catalog. Each build side of the chain is scanned into per-fragment
/// buffers and its key map is built serially in fragment order
/// (deterministic bucket order); the probe scan then streams each row group
/// through the chain on the pool threads into the sink, whose per-fragment
/// executors merge in file order — so a parallel run is byte-identical to
/// a serial one. A single-scan plan does exactly Table::Select's work.
class PlanRunner {
 public:
  struct PinnedTable {
    Table* table = nullptr;
    /// The catalog entry read once, before any scan started. It is the
    /// pin: every scan of this table resolves its snapshot (explicit id,
    /// time travel, or this entry's head) against it.
    TableInfo info;
  };

  PlanRunner(std::vector<PinnedTable> tables, SelectOptions options);

  /// Walk the plan and produce its result. `metrics` accumulates scan
  /// metrics across all tables (not reset here; the caller owns the
  /// per-query capture, see CaptureQuery).
  Result<query::QueryResult> Run(const query::PlanNode& root,
                                 SelectMetrics* metrics = nullptr);

 private:
  std::vector<PinnedTable> tables_;
  SelectOptions options_;
};

}  // namespace streamlake::table

#endif  // STREAMLAKE_TABLE_PLAN_RUNNER_H_
