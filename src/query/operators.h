#ifndef STREAMLAKE_QUERY_OPERATORS_H_
#define STREAMLAKE_QUERY_OPERATORS_H_

#include <optional>
#include <span>
#include <string>
#include <vector>

#include "format/lakefile.h"
#include "format/schema.h"
#include "query/keys.h"
#include "query/spec.h"

namespace streamlake::query {

/// Where column `c` of a ChunkRows batch is read: column `column` of the
/// chunks on side `side`.
struct ColumnSource {
  uint32_t side = 0;
  uint32_t column = 0;
};

/// One build side of a ChunkRows row: row `row` of `chunks`, a scanned
/// group's decoded chunks by schema index (a null chunk reads as all NULL).
struct ChunkRef {
  const format::ColumnChunkPtr* chunks = nullptr;
  uint32_t row = 0;
};

/// \brief Rows held in place in decoded column chunks; Values are built
/// only where a consumer needs them. A row has one side per table: side 0
/// (the probe row, or the scanned row without a join), then one build row
/// per inner join it passed. Column `c` of a row reads `sources[c]`.
///
/// Invariant: side 0 of every row reads one scanned group's chunks, so it
/// is held as that group's chunk array plus a row index per row, and a
/// side-0 column is one chunk (one dictionary) for the whole batch. Only
/// build sides, whose rows come from any build file, carry a ChunkRef per
/// row. CheckSideZero asserts it in debug builds.
struct ChunkRows {
  std::span<const ColumnSource> sources;
  std::span<const format::ColumnChunkPtr> chunks;  // side 0, by schema index
  std::span<const uint32_t> rows;                  // side-0 row of row t
  size_t sides = 1;
  std::span<const ChunkRef> builds;  // row t: [t * (sides - 1), ...)

  size_t size() const { return rows.size(); }
  /// The chunk and the row in it that column `c` of row `t` reads.
  const format::ColumnChunkData* chunk(size_t t, size_t c) const {
    const ColumnSource& s = sources[c];
    return s.side == 0
               ? chunks[s.column].get()
               : builds[t * (sides - 1) + s.side - 1].chunks[s.column].get();
  }
  uint32_t row(size_t t, size_t c) const {
    const ColumnSource& s = sources[c];
    return s.side == 0 ? rows[t] : builds[t * (sides - 1) + s.side - 1].row;
  }
  /// Column `c` of row `t` as a Value (NULL where no chunk was decoded).
  format::Value ValueAt(size_t t, size_t c) const;

  /// One row per ChunkRows row, in order: of arity `columns.size()`, cell
  /// i is column `columns[i]`; with no columns, of arity `sources.size()`
  /// carrying every column. The one place scanned and joined rows are
  /// built.
  std::vector<format::Row> Rows(std::span<const int> columns = {}) const;

  /// Debug builds: abort unless side 0 is one group's chunks (every
  /// decoded chunk of the same length) and every side-0 row lies in them.
  void CheckSideZero() const;
};

/// The sources of one-sided rows of `arity` columns: column c reads
/// column c.
std::vector<ColumnSource> OneSideSources(size_t arity);

/// \brief Grouped-aggregation operator: accumulates per-group running
/// state (COUNT/SUM/MIN/MAX/AVG) and merges partial states produced by
/// parallel scan fragments. Merging is order-insensitive except for
/// floating-point SUM/AVG rounding, which is why the parallel Select path
/// merges fragments in deterministic file order.
///
/// Groups live in one KeyTable over the group key's normalized bytes
/// (KeyEncoder); Finalize emits them sorted by those bytes, which is the
/// key rule's order. Each group keeps the key cells of its first row, so
/// -0.0 or a NaN payload shows as it was first seen.
///
/// SQL NULL semantics: COUNT(*) counts rows; COUNT(col), SUM, MIN, MAX and
/// AVG skip NULL inputs. AVG divides by the non-NULL count (0 when there
/// is none); MIN and MAX over no non-NULL input are NULL. Group keys and
/// MIN/MAX follow the key rule (format::CompareKeys): NULLs form one group,
/// NaN is one group above every number, and -0.0 groups with 0.0.
class AggregateOperator {
 public:
  Status Init(const format::Schema& schema,
              const std::vector<std::string>& group_by,
              const std::vector<AggregateSpec>& aggregates);

  /// Accumulate `rows` (already filtered), in order. A single group
  /// column read from side 0 of a dictionary chunk resolves its group once
  /// per code: every row of the batch reads that one chunk. Any other
  /// group key is encoded per row.
  void Consume(const ChunkRows& rows);

  /// Fold another operator's partial state into this one. Both must have
  /// been Init-ed from the same schema and specs; `other` is consumed.
  void Merge(AggregateOperator&& other);

  /// Emit the aggregate output: column names (group columns then aggregate
  /// aliases) and one row per group. SQL semantics: global aggregation
  /// over an empty input yields exactly one row.
  void Finalize(QueryResult* result);

  /// Rows consumed so far (feeds the per-operator row counters).
  uint64_t rows_consumed() const { return rows_consumed_; }
  /// The schema columns it reads: the group columns, then each
  /// aggregate's input column (-1 for COUNT(*)).
  const std::vector<int>& group_columns() const { return group_cols_; }
  const std::vector<int>& aggregate_columns() const { return agg_cols_; }

 private:
  /// One aggregate's running state, indexed by group id. `sums` is kept
  /// for SUM and AVG, `extremes` for MIN or MAX.
  struct AggregateState {
    std::vector<int64_t> counts;  // rows (COUNT(*)) or non-NULL inputs
    std::vector<double> sums;
    std::vector<std::optional<format::Value>> extremes;
  };

  /// Append an empty group's aggregate state (its key cells are the
  /// caller's).
  void AddGroupState();
  /// The id of input row t's group (group column i reads `cell(t, group
  /// column i)`), created with row t's key cells on first sight.
  template <typename CellAt>
  uint32_t GroupOf(size_t t, const CellAt& cell);
  /// The one accumulate step but COUNT(*): fold input `cell` of
  /// aggregate `a` into group `g`.
  void Accumulate(uint32_t g, size_t a, const Cell& cell);
  /// Fold `n` input rows, in order: row t joins group `group(t)`, and
  /// aggregate a reads `cell(t, its column)` (COUNT(*) reads none).
  template <typename CellAt, typename GroupAt>
  void Fold(size_t n, const CellAt& cell, const GroupAt& group);

  std::vector<std::string> group_by_;
  std::vector<AggregateSpec> aggregates_;
  std::vector<int> group_cols_;
  std::vector<int> agg_cols_;
  KeyTable groups_;
  std::vector<format::Value> group_keys_;  // group id * key arity + i
  std::vector<AggregateState> states_;     // by aggregate
  KeyEncoder key_;                         // reused group-key buffer
  std::vector<uint32_t> group_ids_;        // reused: a batch's group ids
  uint64_t rows_consumed_ = 0;
};

/// \brief Sort/limit operator: ORDER BY one output column (matched by
/// result column name, so it applies to aggregate aliases too), under the
/// key rule (format::CompareKeys), followed by LIMIT. Applied once, after
/// all fragments merged.
Status ApplySortLimit(const std::string& order_by, bool descending,
                      uint64_t limit, QueryResult* result);

}  // namespace streamlake::query

#endif  // STREAMLAKE_QUERY_OPERATORS_H_
