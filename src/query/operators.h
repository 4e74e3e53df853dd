#ifndef STREAMLAKE_QUERY_OPERATORS_H_
#define STREAMLAKE_QUERY_OPERATORS_H_

#include <map>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "format/schema.h"
#include "query/row_less.h"
#include "query/spec.h"

namespace streamlake::query {

/// \brief Projection operator: resolves the requested columns against a
/// schema once, then maps rows. An empty column list is the identity
/// projection (all columns pass through).
class ProjectOperator {
 public:
  Status Init(const format::Schema& schema,
              const std::vector<std::string>& columns);

  bool active() const { return !columns_.empty(); }
  const std::vector<int>& columns() const { return columns_; }

  format::Row Apply(const format::Row& row) const;

 private:
  std::vector<int> columns_;
};

/// \brief Grouped-aggregation operator: accumulates per-group running
/// state (COUNT/SUM/MIN/MAX/AVG) and merges partial states produced by
/// parallel scan fragments. Merging is order-insensitive except for
/// floating-point SUM/AVG rounding, which is why the parallel Select path
/// merges fragments in deterministic file order.
///
/// SQL NULL semantics: COUNT(*) counts rows; COUNT(col), SUM, MIN, MAX and
/// AVG skip NULL inputs. AVG divides by the non-NULL count (0 when there
/// is none); MIN and MAX over no non-NULL input are NULL.
class AggregateOperator {
 public:
  Status Init(const format::Schema& schema,
              const std::vector<std::string>& group_by,
              const std::vector<AggregateSpec>& aggregates);

  /// Accumulate one (already filtered) row. The row-at-a-time entry point:
  /// joined rows come through here, and it is the oracle ConsumeBatch is
  /// tested against.
  void Consume(const format::Row& row);

  /// Accumulate the rows `selection` picks out of decoded column chunks
  /// (`columns` by schema index; a null chunk reads as all NULL), in
  /// selection order — the same group states, additions and comparisons,
  /// in the same order, as Consume over the rows those chunks make, so a
  /// double SUM stays bit-identical. Group state is resolved once per
  /// dictionary code for a single dictionary-encoded group column, and
  /// through one reused key buffer otherwise.
  void ConsumeBatch(std::span<const format::ColumnChunkPtr> columns,
                    std::span<const uint32_t> selection);

  /// Fold another operator's partial state into this one. Both must have
  /// been Init-ed from the same schema and specs; `other` is consumed.
  void Merge(AggregateOperator&& other);

  /// Emit the aggregate output: column names (group columns then aggregate
  /// aliases) and one row per group. SQL semantics: global aggregation
  /// over an empty input yields exactly one row.
  void Finalize(QueryResult* result);

  /// Rows consumed so far (feeds the per-operator row counters).
  uint64_t rows_consumed() const { return rows_consumed_; }

 private:
  struct GroupState {
    std::vector<int64_t> counts;  // rows (COUNT(*)) or non-NULL inputs
    std::vector<double> sums;
    std::vector<std::optional<format::Value>> mins;
    std::vector<std::optional<format::Value>> maxs;
  };
  struct Cell;

  /// The group state of `key`, created empty on first sight.
  GroupState& StateOf(const std::vector<format::Value>& key);
  /// The one accumulate step of both entry points: fold input `cell` of
  /// aggregate `a` into `state`.
  void Accumulate(GroupState& state, size_t a, const Cell& cell) const;

  std::vector<std::string> group_by_;
  std::vector<AggregateSpec> aggregates_;
  std::vector<int> group_cols_;
  std::vector<int> agg_cols_;
  std::map<std::vector<format::Value>, GroupState, RowLess> groups_;
  std::vector<format::Value> key_;  // reused group-key buffer
  uint64_t rows_consumed_ = 0;
};

/// \brief Sort/limit operator: ORDER BY one output column (matched by
/// result column name, so it applies to aggregate aliases too) followed by
/// LIMIT. Applied once, after all fragments merged.
Status ApplySortLimit(const std::string& order_by, bool descending,
                      uint64_t limit, QueryResult* result);

}  // namespace streamlake::query

#endif  // STREAMLAKE_QUERY_OPERATORS_H_
