#include "query/operators.h"

#include <algorithm>
#include <cassert>
#include <iterator>

namespace streamlake::query {

std::vector<ColumnSource> OneSideSources(size_t arity) {
  std::vector<ColumnSource> sources(arity);
  for (size_t c = 0; c < arity; ++c) {
    sources[c].column = static_cast<uint32_t>(c);
  }
  return sources;
}

format::Value ChunkRows::ValueAt(size_t t, size_t c) const {
  const format::ColumnChunkData* ch = chunk(t, c);
  return ch == nullptr ? format::Value(std::monostate{})
                       : ch->ValueAt(row(t, c));
}

void ChunkRows::CheckSideZero() const {
#ifndef NDEBUG
  uint64_t group_rows = UINT64_MAX;
  for (const format::ColumnChunkPtr& chunk : chunks) {
    if (chunk == nullptr) continue;
    assert(group_rows == UINT64_MAX || chunk->num_rows == group_rows);
    group_rows = chunk->num_rows;
  }
  for (uint32_t r : rows) assert(r < group_rows);
  assert(builds.size() == rows.size() * (sides - 1));
#endif
}

std::vector<format::Row> ChunkRows::Rows(std::span<const int> columns) const {
  std::vector<format::Row> rows(size());
  for (size_t t = 0; t < rows.size(); ++t) {
    std::vector<format::Value>& fields = rows[t].fields;
    if (columns.empty()) {
      fields.reserve(sources.size());
      for (size_t c = 0; c < sources.size(); ++c) {
        fields.push_back(ValueAt(t, c));
      }
    } else {
      fields.reserve(columns.size());
      for (int c : columns) fields.push_back(ValueAt(t, c));
    }
  }
  return rows;
}

Status AggregateOperator::Init(const format::Schema& schema,
                               const std::vector<std::string>& group_by,
                               const std::vector<AggregateSpec>& aggregates) {
  group_by_ = group_by;
  aggregates_ = aggregates;
  group_cols_.clear();
  agg_cols_.clear();
  for (const std::string& column : group_by_) {
    int idx = schema.FieldIndex(column);
    if (idx < 0) {
      return Status::InvalidArgument("unknown group column " + column);
    }
    group_cols_.push_back(idx);
  }
  for (const AggregateSpec& agg : aggregates_) {
    if (agg.column.empty()) {
      agg_cols_.push_back(-1);
    } else {
      int idx = schema.FieldIndex(agg.column);
      if (idx < 0) {
        return Status::InvalidArgument("unknown aggregate column " +
                                       agg.column);
      }
      agg_cols_.push_back(idx);
    }
  }
  states_.assign(aggregates_.size(), AggregateState{});
  return Status::OK();
}

void AggregateOperator::AddGroupState() {
  for (size_t a = 0; a < aggregates_.size(); ++a) {
    AggregateState& state = states_[a];
    state.counts.push_back(0);
    switch (aggregates_[a].func) {
      case AggregateSpec::Func::kSum:
      case AggregateSpec::Func::kAvg:
        state.sums.push_back(0.0);
        break;
      case AggregateSpec::Func::kMin:
      case AggregateSpec::Func::kMax:
        state.extremes.emplace_back();
        break;
      case AggregateSpec::Func::kCount:
        break;
    }
  }
}

template <typename CellAt>
uint32_t AggregateOperator::GroupOf(size_t t, const CellAt& cell) {
  key_.Clear();
  for (int col : group_cols_) key_.Add(cell(t, col));
  auto [g, inserted] = groups_.Insert(key_.bytes());
  if (inserted) {
    for (int col : group_cols_) group_keys_.push_back(cell(t, col).ToValue());
    AddGroupState();
  }
  return g;
}

void AggregateOperator::Accumulate(uint32_t g, size_t a, const Cell& cell) {
  if (cell.type == format::DataType::kNull) return;  // SQL: skip NULLs
  AggregateState& state = states_[a];
  ++state.counts[g];
  switch (aggregates_[a].func) {
    case AggregateSpec::Func::kSum:
    case AggregateSpec::Func::kAvg:
      state.sums[g] += cell.ToDouble();
      break;
    case AggregateSpec::Func::kMin:
      if (!state.extremes[g] || cell.Compare(*state.extremes[g]) < 0) {
        state.extremes[g] = cell.ToValue();
      }
      break;
    case AggregateSpec::Func::kMax:
      if (!state.extremes[g] || cell.Compare(*state.extremes[g]) > 0) {
        state.extremes[g] = cell.ToValue();
      }
      break;
    case AggregateSpec::Func::kCount:
      break;
  }
}

template <typename CellAt, typename GroupAt>
void AggregateOperator::Fold(size_t n, const CellAt& cell,
                             const GroupAt& group) {
  rows_consumed_ += n;
  group_ids_.resize(n);
  for (size_t t = 0; t < n; ++t) group_ids_[t] = group(t);
  // One aggregate at a time: each group still sees its rows in order.
  for (size_t a = 0; a < agg_cols_.size(); ++a) {
    if (agg_cols_[a] < 0) {  // COUNT(*)
      std::vector<int64_t>& counts = states_[a].counts;
      for (size_t t = 0; t < n; ++t) ++counts[group_ids_[t]];
      continue;
    }
    for (size_t t = 0; t < n; ++t) {
      Accumulate(group_ids_[t], a, cell(t, agg_cols_[a]));
    }
  }
}

void AggregateOperator::Consume(const ChunkRows& rows) {
  const auto cell = [&](size_t t, int col) {
    return Cell::At(rows.chunk(t, col), rows.row(t, col));
  };
  const format::ColumnChunkData* dict_key =
      group_cols_.size() == 1 && rows.sources[group_cols_[0]].side == 0
          ? rows.chunk(0, group_cols_[0])
          : nullptr;
  if (dict_key == nullptr || !dict_key->dict_view) {
    Fold(rows.size(), cell, [&](size_t t) { return GroupOf(t, cell); });
    return;
  }
  // One table lookup per dictionary code (and one for NULL) per batch.
  std::vector<uint32_t> by_code(
      std::visit([](const auto& dict) { return dict.size(); }, dict_key->dict),
      KeyTable::kNotFound);
  uint32_t null_group = KeyTable::kNotFound;
  Fold(rows.size(), cell, [&](size_t t) {
    const uint32_t r = rows.rows[t];
    uint32_t& g = dict_key->IsNullAt(r) ? null_group
                                        : by_code[dict_key->codes[r]];
    if (g == KeyTable::kNotFound) g = GroupOf(t, cell);
    return g;
  });
}

void AggregateOperator::Merge(AggregateOperator&& other) {
  rows_consumed_ += other.rows_consumed_;
  const size_t arity = group_cols_.size();
  groups_.Reserve(groups_.size() + other.groups_.size());
  for (uint32_t theirs = 0; theirs < other.groups_.size(); ++theirs) {
    auto [g, inserted] = groups_.Insert(other.groups_.key(theirs),
                                        other.groups_.hash(theirs));
    if (inserted) {
      for (size_t i = 0; i < arity; ++i) {
        group_keys_.push_back(
            std::move(other.group_keys_[theirs * arity + i]));
      }
      AddGroupState();
    }
    for (size_t a = 0; a < aggregates_.size(); ++a) {
      AggregateState& mine = states_[a];
      AggregateState& from = other.states_[a];
      mine.counts[g] += from.counts[theirs];
      if (!mine.sums.empty()) {
        mine.sums[g] = inserted ? from.sums[theirs]
                                : mine.sums[g] + from.sums[theirs];
      }
      if (mine.extremes.empty() || !from.extremes[theirs]) continue;
      std::optional<format::Value>& have = mine.extremes[g];
      const int sign =
          aggregates_[a].func == AggregateSpec::Func::kMin ? -1 : 1;
      if (!have || format::CompareKeys(*from.extremes[theirs], *have) * sign >
                       0) {
        have = std::move(from.extremes[theirs]);
      }
    }
  }
}

void AggregateOperator::Finalize(QueryResult* result) {
  for (const std::string& g : group_by_) result->column_names.push_back(g);
  for (const AggregateSpec& agg : aggregates_) {
    result->column_names.push_back(agg.alias);
  }
  // SQL semantics: global aggregation over an empty input yields one row.
  if (groups_.size() == 0 && group_by_.empty()) {
    groups_.Insert("");
    AddGroupState();
  }
  const size_t arity = group_cols_.size();
  for (uint32_t g : groups_.SortedIds()) {
    format::Row row;
    row.fields.reserve(arity + aggregates_.size());
    // Each group is emitted once, so its key cells move out.
    std::move(group_keys_.begin() + g * arity,
              group_keys_.begin() + (g + 1) * arity,
              std::back_inserter(row.fields));
    for (size_t a = 0; a < aggregates_.size(); ++a) {
      AggregateState& state = states_[a];
      switch (aggregates_[a].func) {
        case AggregateSpec::Func::kCount:
          row.fields.emplace_back(state.counts[g]);
          break;
        case AggregateSpec::Func::kSum:
          row.fields.emplace_back(state.sums[g]);
          break;
        case AggregateSpec::Func::kAvg:
          row.fields.emplace_back(
              state.counts[g] == 0 ? 0.0 : state.sums[g] / state.counts[g]);
          break;
        case AggregateSpec::Func::kMin:
        case AggregateSpec::Func::kMax:
          row.fields.push_back(std::move(state.extremes[g])
                                   .value_or(format::Value(std::monostate{})));
          break;
      }
    }
    result->rows.push_back(std::move(row));
  }
}

Status ApplySortLimit(const std::string& order_by, bool descending,
                      uint64_t limit, QueryResult* result) {
  if (!order_by.empty()) {
    int column = -1;
    for (size_t c = 0; c < result->column_names.size(); ++c) {
      if (result->column_names[c] == order_by) {
        column = static_cast<int>(c);
      }
    }
    if (column < 0) {
      return Status::InvalidArgument("unknown ORDER BY column " + order_by);
    }
    std::stable_sort(result->rows.begin(), result->rows.end(),
                     [&](const format::Row& a, const format::Row& b) {
                       int cmp = format::CompareKeys(a.fields[column],
                                                     b.fields[column]);
                       return descending ? cmp > 0 : cmp < 0;
                     });
  }
  if (limit > 0 && result->rows.size() > limit) {
    result->rows.resize(limit);
  }
  return Status::OK();
}

}  // namespace streamlake::query
