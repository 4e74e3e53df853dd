#ifndef STREAMLAKE_QUERY_PLAN_H_
#define STREAMLAKE_QUERY_PLAN_H_

#include <string>
#include <vector>

#include "format/schema.h"
#include "query/sql_parser.h"
#include "query/spec.h"

namespace streamlake::query {

/// \brief A query plan, exactly as table::RunPlan executes it: one probe
/// scan, a left-deep chain of hash joins (possibly empty) whose build sides
/// are scans too, then one output stage over the joined rows.
struct Plan {
  /// One table scan with its pushdown filter. Column names in `filter` are
  /// unqualified: they address the table's own schema.
  struct Scan {
    std::string table;
    std::string alias;
    Conjunction filter;
  };

  /// Hash join of the rows so far with the build scan `scans[j + 1]`. An
  /// inner join appends each matching build row's columns to the probe row
  /// (once per match); a semi join (IN / EXISTS) keeps the probe row once
  /// when its key is present and appends nothing.
  struct Join {
    bool semi = false;
    /// Key column of the rows so far, an index into `row_schema` (the rows
    /// a join sees are a prefix of the final joined row).
    int probe_col = -1;
    /// Key column of the build table's schema.
    int build_col = -1;
  };

  /// `scans[0]` is the probe scan; `scans[j + 1]` is the build side of
  /// `joins[j]`. Scan k runs against the k-th pinned table.
  std::vector<Scan> scans;
  std::vector<Join> joins;
  /// The schema `output` reads: the table's own schema for a single scan,
  /// else the probe table's columns then each inner join's build columns,
  /// named `alias.column`.
  format::Schema row_schema;
  /// The output stage (projection or GROUP BY + aggregates, ORDER BY,
  /// LIMIT). Its `where` is empty: every predicate runs in a scan.
  QuerySpec output;
};

/// One table referenced by a statement, already resolved against the
/// catalog (schema from the pinned snapshot's TableInfo).
struct PlanTableRef {
  std::string table;
  std::string alias;
  const format::Schema* schema = nullptr;
};

/// Lower a parsed SELECT into a plan. `refs[0]` is the FROM table, refs[1..]
/// the joined tables in statement order. Every column reference goes
/// through one resolver: a qualified name must match a table's alias or
/// name, an unqualified one must name a column of exactly one table. Output
/// names are `alias.column` exactly when the statement references more than
/// one table (a semi join counts). Every WHERE literal is checked against
/// its column, and join key types must match.
Result<Plan> PlanSelect(const SqlStatement& statement,
                        const std::vector<PlanTableRef>& refs);

/// Render the plan one operator per line, in execution order: the probe
/// scan, each join with its build scan indented below it, then the output
/// operators. `refs[k]` gives the schema scan k reads (build key names).
std::string PlanToString(const Plan& plan,
                         const std::vector<PlanTableRef>& refs);

}  // namespace streamlake::query

#endif  // STREAMLAKE_QUERY_PLAN_H_
