#include "query/operators.h"

#include <algorithm>
#include <string_view>

namespace streamlake::query {

/// One aggregate input or group-key cell, read in place from a row's
/// Value or from a decoded chunk's typed vectors.
struct AggregateOperator::Cell {
  format::DataType type = format::DataType::kNull;  // kNull: SQL NULL
  int64_t i = 0;       // kInt64, and kBool as 0/1
  double d = 0.0;      // kDouble
  std::string_view s;  // kString

  static Cell Of(const format::Value& v) {
    Cell c;
    c.type = format::TypeOf(v);
    switch (c.type) {
      case format::DataType::kBool:
        c.i = std::get<bool>(v) ? 1 : 0;
        break;
      case format::DataType::kInt64:
        c.i = std::get<int64_t>(v);
        break;
      case format::DataType::kDouble:
        c.d = std::get<double>(v);
        break;
      case format::DataType::kString:
        c.s = std::get<std::string>(v);
        break;
      case format::DataType::kNull:
        break;
    }
    return c;
  }

  /// Row `r` of `chunk` (indexing through the dictionary of a dict view);
  /// NULL when the chunk is absent.
  static Cell At(const format::ColumnChunkData* chunk, size_t r) {
    Cell c;
    if (chunk == nullptr || chunk->IsNullAt(r)) return c;
    const format::ColumnData& src =
        chunk->dict_view ? chunk->dict : chunk->values;
    const size_t idx = chunk->dict_view ? chunk->codes[r] : r;
    c.type = chunk->type;
    switch (chunk->type) {
      case format::DataType::kBool:
        c.i = std::get<std::vector<uint8_t>>(src)[idx] != 0 ? 1 : 0;
        break;
      case format::DataType::kInt64:
        c.i = std::get<std::vector<int64_t>>(src)[idx];
        break;
      case format::DataType::kDouble:
        c.d = std::get<std::vector<double>>(src)[idx];
        break;
      case format::DataType::kString:
        c.s = std::get<std::vector<std::string>>(src)[idx];
        break;
      case format::DataType::kNull:
        c.type = format::DataType::kNull;
        break;
    }
    return c;
  }

  /// The SUM/AVG input: numbers as doubles, bools as 0/1, strings as 0.
  double ToDouble() const {
    switch (type) {
      case format::DataType::kInt64:
        return static_cast<double>(i);
      case format::DataType::kDouble:
        return d;
      case format::DataType::kBool:
        return i != 0 ? 1.0 : 0.0;
      default:
        return 0.0;
    }
  }

  format::Value ToValue() const {
    switch (type) {
      case format::DataType::kBool:
        return format::Value(i != 0);
      case format::DataType::kInt64:
        return format::Value(i);
      case format::DataType::kDouble:
        return format::Value(d);
      case format::DataType::kString:
        return format::Value(std::string(s));
      case format::DataType::kNull:
        break;
    }
    return format::Value(std::monostate{});
  }

  /// Store the cell in `*v`, reusing its string buffer.
  void AssignTo(format::Value* v) const {
    if (type == format::DataType::kString) {
      if (std::string* str = std::get_if<std::string>(v)) {
        str->assign(s);
        return;
      }
    }
    *v = ToValue();
  }

  /// format::CompareKeys(ToValue(), v) without building the value.
  int Compare(const format::Value& v) const {
    switch (type) {
      case format::DataType::kBool:
        if (const bool* y = std::get_if<bool>(&v)) {
          return static_cast<int>(i) - static_cast<int>(*y);
        }
        break;
      case format::DataType::kInt64:
        if (const int64_t* y = std::get_if<int64_t>(&v)) {
          return i < *y ? -1 : (i > *y ? 1 : 0);
        }
        break;
      case format::DataType::kDouble:
        if (const double* y = std::get_if<double>(&v)) {
          return format::CompareDoubleKeys(d, *y);
        }
        break;
      case format::DataType::kString:
        if (const std::string* y = std::get_if<std::string>(&v)) {
          return s.compare(*y);
        }
        break;
      case format::DataType::kNull:
        break;
    }
    return format::CompareKeys(ToValue(), v);
  }
};

Status ProjectOperator::Init(const format::Schema& schema,
                             const std::vector<std::string>& columns) {
  columns_.clear();
  for (const std::string& column : columns) {
    int idx = schema.FieldIndex(column);
    if (idx < 0) {
      return Status::InvalidArgument("unknown projection column " + column);
    }
    columns_.push_back(idx);
  }
  return Status::OK();
}

format::Row ProjectOperator::Apply(const format::Row& row) const {
  format::Row projected;
  projected.fields.reserve(columns_.size());
  for (int col : columns_) {
    projected.fields.push_back(row.fields[col]);
  }
  return projected;
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
  return Status::OK();
}

AggregateOperator::GroupState& AggregateOperator::StateOf(
    const std::vector<format::Value>& key) {
  auto [it, inserted] = groups_.try_emplace(key);
  GroupState& state = it->second;
  if (inserted) {
    state.counts.assign(aggregates_.size(), 0);
    state.sums.assign(aggregates_.size(), 0.0);
    state.mins.assign(aggregates_.size(), std::nullopt);
    state.maxs.assign(aggregates_.size(), std::nullopt);
  }
  return state;
}

void AggregateOperator::Accumulate(GroupState& state, size_t a,
                                   const Cell& cell) const {
  if (agg_cols_[a] < 0) {  // COUNT(*)
    ++state.counts[a];
    return;
  }
  if (cell.type == format::DataType::kNull) return;  // SQL: skip NULLs
  ++state.counts[a];
  switch (aggregates_[a].func) {
    case AggregateSpec::Func::kSum:
    case AggregateSpec::Func::kAvg:
      state.sums[a] += cell.ToDouble();
      break;
    case AggregateSpec::Func::kMin:
      if (!state.mins[a] || cell.Compare(*state.mins[a]) < 0) {
        state.mins[a] = cell.ToValue();
      }
      break;
    case AggregateSpec::Func::kMax:
      if (!state.maxs[a] || cell.Compare(*state.maxs[a]) > 0) {
        state.maxs[a] = cell.ToValue();
      }
      break;
    case AggregateSpec::Func::kCount:
      break;
  }
}

void AggregateOperator::Consume(const format::Row& row) {
  ++rows_consumed_;
  key_.resize(group_cols_.size());
  for (size_t i = 0; i < group_cols_.size(); ++i) {
    key_[i] = row.fields[group_cols_[i]];
  }
  GroupState& state = StateOf(key_);
  for (size_t a = 0; a < aggregates_.size(); ++a) {
    Accumulate(state, a,
               agg_cols_[a] < 0 ? Cell() : Cell::Of(row.fields[agg_cols_[a]]));
  }
}

void AggregateOperator::ConsumeBatch(
    std::span<const format::ColumnChunkPtr> columns,
    std::span<const uint32_t> selection) {
  rows_consumed_ += selection.size();
  if (selection.empty()) return;
  std::vector<const format::ColumnChunkData*> inputs(agg_cols_.size(),
                                                     nullptr);
  for (size_t a = 0; a < agg_cols_.size(); ++a) {
    if (agg_cols_[a] >= 0) inputs[a] = columns[agg_cols_[a]].get();
  }
  auto fold = [&](GroupState& state, uint32_t r) {
    for (size_t a = 0; a < inputs.size(); ++a) {
      Accumulate(state, a, Cell::At(inputs[a], r));
    }
  };
  std::vector<const format::ColumnChunkData*> keys(group_cols_.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    keys[i] = columns[group_cols_[i]].get();
  }
  key_.resize(keys.size());
  if (keys.size() == 1 && keys[0] != nullptr && keys[0]->dict_view) {
    // One map lookup per dictionary code (and one for NULL) per batch.
    const format::ColumnChunkData& dict_key = *keys[0];
    std::vector<GroupState*> by_code(
        std::visit([](const auto& dict) { return dict.size(); },
                   dict_key.dict),
        nullptr);
    GroupState* null_state = nullptr;
    for (uint32_t r : selection) {
      GroupState*& state = dict_key.IsNullAt(r)
                               ? null_state
                               : by_code[dict_key.codes[r]];
      if (state == nullptr) {
        Cell::At(&dict_key, r).AssignTo(&key_[0]);
        state = &StateOf(key_);
      }
      fold(*state, r);
    }
    return;
  }
  for (uint32_t r : selection) {
    for (size_t i = 0; i < keys.size(); ++i) {
      Cell::At(keys[i], r).AssignTo(&key_[i]);
    }
    fold(StateOf(key_), r);
  }
}

void AggregateOperator::Merge(AggregateOperator&& other) {
  rows_consumed_ += other.rows_consumed_;
  for (auto& [key, theirs] : other.groups_) {
    auto [it, inserted] = groups_.try_emplace(key, std::move(theirs));
    if (inserted) continue;
    GroupState& mine = it->second;
    for (size_t a = 0; a < aggregates_.size(); ++a) {
      mine.counts[a] += theirs.counts[a];
      mine.sums[a] += theirs.sums[a];
      if (theirs.mins[a] &&
          (!mine.mins[a] ||
           format::CompareKeys(*theirs.mins[a], *mine.mins[a]) < 0)) {
        mine.mins[a] = std::move(theirs.mins[a]);
      }
      if (theirs.maxs[a] &&
          (!mine.maxs[a] ||
           format::CompareKeys(*theirs.maxs[a], *mine.maxs[a]) > 0)) {
        mine.maxs[a] = std::move(theirs.maxs[a]);
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
  if (groups_.empty() && group_by_.empty()) {
    groups_[{}] = GroupState{
        std::vector<int64_t>(aggregates_.size(), 0),
        std::vector<double>(aggregates_.size(), 0.0),
        std::vector<std::optional<format::Value>>(aggregates_.size()),
        std::vector<std::optional<format::Value>>(aggregates_.size())};
  }
  for (const auto& [key, state] : groups_) {
    format::Row row;
    row.fields = key;
    for (size_t a = 0; a < aggregates_.size(); ++a) {
      switch (aggregates_[a].func) {
        case AggregateSpec::Func::kCount:
          row.fields.emplace_back(state.counts[a]);
          break;
        case AggregateSpec::Func::kSum:
          row.fields.emplace_back(state.sums[a]);
          break;
        case AggregateSpec::Func::kAvg:
          row.fields.emplace_back(
              state.counts[a] == 0 ? 0.0 : state.sums[a] / state.counts[a]);
          break;
        case AggregateSpec::Func::kMin:
          row.fields.push_back(
              state.mins[a].value_or(format::Value(std::monostate{})));
          break;
        case AggregateSpec::Func::kMax:
          row.fields.push_back(
              state.maxs[a].value_or(format::Value(std::monostate{})));
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
