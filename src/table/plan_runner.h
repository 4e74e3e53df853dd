#ifndef STREAMLAKE_TABLE_PLAN_RUNNER_H_
#define STREAMLAKE_TABLE_PLAN_RUNNER_H_

#include <span>

#include "query/plan.h"
#include "table/table.h"

namespace streamlake::table {

/// A table a query reads, with its catalog entry read once before any scan
/// started. The entry is the pin: every scan of this table resolves its
/// snapshot (explicit id, time travel, or this entry's head) against it.
struct PinnedTable {
  Table* table = nullptr;
  TableInfo info;
};

/// \brief Executes `plan` against `tables` (scan k reads `tables[k]`): the
/// one executor of every query, SQL and Table::Select alike.
///
/// Every scan is Table::ScanInto against the pinned TableInfo, so no scan
/// re-reads the catalog. Each build side is scanned into per-fragment
/// buffers and its key map is built serially in fragment order
/// (deterministic bucket order); the probe scan then streams each row group
/// through the join chain on the pool threads into the output stage, one
/// query::Executor per fragment merged in file order — so a parallel run
/// is byte-identical to a serial one. A single-scan plan feeds the output
/// stage straight from the scan. `m` (non-null) accumulates scan metrics
/// across all tables and is not reset: the caller owns the per-query
/// capture (see CaptureQuery).
Result<query::QueryResult> RunPlan(std::span<const PinnedTable> tables,
                                   const query::Plan& plan,
                                   const SelectOptions& options,
                                   SelectMetrics* m);

}  // namespace streamlake::table

#endif  // STREAMLAKE_TABLE_PLAN_RUNNER_H_
