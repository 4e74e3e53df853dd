#include "query/executor.h"

#include <algorithm>
#include <iterator>

#include "common/metrics.h"

namespace streamlake::query {

Executor::Executor(const format::Schema& schema, const QuerySpec& spec)
    : schema_(schema), spec_(spec) {
  init_status_ = aggregate_.Init(schema_, spec_.group_by, spec_.aggregates);
  for (const std::string& column : spec_.projection) {
    int idx = schema_.FieldIndex(column);
    if (idx < 0 && init_status_.ok()) {
      init_status_ =
          Status::InvalidArgument("unknown projection column " + column);
    }
    columns_.push_back(idx);
  }
}

std::optional<std::vector<int>> Executor::InputColumns() const {
  std::vector<int> cols;
  if (spec_.aggregates.empty()) {
    if (columns_.empty()) return std::nullopt;
    cols = columns_;
  } else {
    cols = aggregate_.group_columns();
    for (int col : aggregate_.aggregate_columns()) {
      if (col >= 0) cols.push_back(col);
    }
  }
  std::sort(cols.begin(), cols.end());
  cols.erase(std::unique(cols.begin(), cols.end()), cols.end());
  return cols;
}

Status Executor::Consume(const ChunkRows& rows, uint64_t scanned) {
  SL_RETURN_NOT_OK(init_status_);
  rows.CheckSideZero();
  rows_scanned_ += scanned;
  rows_matched_ += rows.size();
  if (!spec_.aggregates.empty()) {
    aggregate_.Consume(rows);
    return Status::OK();
  }
  std::vector<format::Row> built = rows.Rows(columns_);
  plain_rows_.insert(plain_rows_.end(), std::make_move_iterator(built.begin()),
                     std::make_move_iterator(built.end()));
  return Status::OK();
}

Status Executor::MergeFrom(Executor&& other) {
  SL_RETURN_NOT_OK(init_status_);
  SL_RETURN_NOT_OK(other.init_status_);
  rows_scanned_ += other.rows_scanned_;
  rows_matched_ += other.rows_matched_;
  plain_rows_.insert(plain_rows_.end(),
                     std::make_move_iterator(other.plain_rows_.begin()),
                     std::make_move_iterator(other.plain_rows_.end()));
  aggregate_.Merge(std::move(other.aggregate_));
  return Status::OK();
}

Result<QueryResult> Executor::Finalize() {
  SL_RETURN_NOT_OK(init_status_);
  QueryResult result;
  result.rows_scanned = rows_scanned_;
  result.rows_matched = rows_matched_;

  if (spec_.aggregates.empty()) {
    if (columns_.empty()) {
      for (const format::Field& f : schema_.fields()) {
        result.column_names.push_back(f.name);
      }
    } else {
      static Counter* project_rows =
          MetricsRegistry::Global().GetCounter("query.op.project.rows");
      project_rows->Increment(plain_rows_.size());
      for (int col : columns_) {
        result.column_names.push_back(schema_.field(col).name);
      }
    }
    result.rows = std::move(plain_rows_);
  } else {
    static Counter* aggregate_rows =
        MetricsRegistry::Global().GetCounter("query.op.aggregate.rows");
    aggregate_rows->Increment(aggregate_.rows_consumed());
    aggregate_.Finalize(&result);
  }
  if (!spec_.order_by.empty()) {
    static Counter* sort_rows =
        MetricsRegistry::Global().GetCounter("query.op.sort.rows");
    sort_rows->Increment(result.rows.size());
  }
  SL_RETURN_NOT_OK(ApplySortLimit(spec_.order_by, spec_.order_descending,
                                  spec_.limit, &result));
  return result;
}

}  // namespace streamlake::query
