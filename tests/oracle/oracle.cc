#include "oracle/oracle.h"

#include <algorithm>

namespace streamlake::oracle {

namespace {

/// The SUM/AVG input: numbers as doubles, bools as 0/1, strings as 0.
double AsDouble(const format::Value& v) {
  if (const bool* b = std::get_if<bool>(&v)) return *b ? 1.0 : 0.0;
  if (const int64_t* i = std::get_if<int64_t>(&v)) {
    return static_cast<double>(*i);
  }
  if (const double* d = std::get_if<double>(&v)) return *d;
  return 0.0;
}

}  // namespace

bool KeyLess::operator()(const std::vector<format::Value>& a,
                         const std::vector<format::Value>& b) const {
  for (size_t i = 0; i < a.size() && i < b.size(); ++i) {
    int c = format::CompareKeys(a[i], b[i]);
    if (c != 0) return c < 0;
  }
  return a.size() < b.size();
}

bool Matches(const query::Conjunction& where, const format::Schema& schema,
             const format::Row& row) {
  for (const query::Predicate& predicate : where.predicates()) {
    int col = schema.FieldIndex(predicate.column);
    if (col < 0 || !predicate.Matches(row.fields[col])) return false;
  }
  return true;
}

RowExecutor::RowExecutor(const format::Schema& schema,
                         const query::QuerySpec& spec)
    : schema_(schema), spec_(spec) {
  auto resolve = [&](const std::string& name, std::vector<int>* out) {
    int idx = schema_.FieldIndex(name);
    if (idx < 0 && status_.ok()) {
      status_ = Status::InvalidArgument("unknown column " + name);
    }
    out->push_back(idx);
  };
  for (const std::string& name : spec_.group_by) resolve(name, &group_cols_);
  for (const query::AggregateSpec& agg : spec_.aggregates) {
    if (agg.column.empty()) {
      agg_cols_.push_back(-1);
    } else {
      resolve(agg.column, &agg_cols_);
    }
  }
  if (spec_.aggregates.empty()) {
    for (const std::string& name : spec_.projection) resolve(name, &columns_);
  }
}

void RowExecutor::ConsumeFragment(const std::vector<format::Row>& rows) {
  if (!status_.ok()) return;
  rows_scanned_ += rows.size();
  Groups fragment;
  for (const format::Row& row : rows) {
    if (!Matches(spec_.where, schema_, row)) continue;
    ++rows_matched_;
    if (spec_.aggregates.empty()) {
      if (columns_.empty()) {
        plain_rows_.push_back(row);
        continue;
      }
      format::Row projected;
      for (int col : columns_) projected.fields.push_back(row.fields[col]);
      plain_rows_.push_back(std::move(projected));
      continue;
    }
    std::vector<format::Value> key;
    for (int col : group_cols_) key.push_back(row.fields[col]);
    std::vector<Aggregate>& aggs =
        fragment.try_emplace(std::move(key), agg_cols_.size()).first->second;
    for (size_t a = 0; a < agg_cols_.size(); ++a) {
      if (agg_cols_[a] < 0) {  // COUNT(*)
        ++aggs[a].count;
        continue;
      }
      const format::Value& v = row.fields[agg_cols_[a]];
      if (format::IsNull(v)) continue;  // SQL: skip NULLs
      Aggregate& agg = aggs[a];
      ++agg.count;
      switch (spec_.aggregates[a].func) {
        case query::AggregateSpec::Func::kSum:
        case query::AggregateSpec::Func::kAvg:
          agg.sum += AsDouble(v);
          break;
        case query::AggregateSpec::Func::kMin:
          if (format::IsNull(agg.extreme) ||
              format::CompareKeys(v, agg.extreme) < 0) {
            agg.extreme = v;
          }
          break;
        case query::AggregateSpec::Func::kMax:
          if (format::IsNull(agg.extreme) ||
              format::CompareKeys(v, agg.extreme) > 0) {
            agg.extreme = v;
          }
          break;
        case query::AggregateSpec::Func::kCount:
          break;
      }
    }
  }
  // Merge into the earlier fragments' state: an earlier key and an
  // earlier extreme win ties.
  for (auto& [key, aggs] : fragment) {
    auto [it, inserted] = groups_.try_emplace(key, aggs);
    if (inserted) continue;
    for (size_t a = 0; a < aggs.size(); ++a) {
      Aggregate& mine = it->second[a];
      const Aggregate& theirs = aggs[a];
      mine.count += theirs.count;
      mine.sum += theirs.sum;
      const int sign =
          spec_.aggregates[a].func == query::AggregateSpec::Func::kMin ? -1
                                                                       : 1;
      if (!format::IsNull(theirs.extreme) &&
          (format::IsNull(mine.extreme) ||
           format::CompareKeys(theirs.extreme, mine.extreme) * sign > 0)) {
        mine.extreme = theirs.extreme;
      }
    }
  }
}

Result<query::QueryResult> RowExecutor::Finalize() {
  SL_RETURN_NOT_OK(status_);
  query::QueryResult result;
  result.rows_scanned = rows_scanned_;
  result.rows_matched = rows_matched_;
  if (spec_.aggregates.empty()) {
    if (columns_.empty()) {
      for (const format::Field& f : schema_.fields()) {
        result.column_names.push_back(f.name);
      }
    } else {
      result.column_names = spec_.projection;
    }
    result.rows = std::move(plain_rows_);
  } else {
    result.column_names = spec_.group_by;
    for (const query::AggregateSpec& agg : spec_.aggregates) {
      result.column_names.push_back(agg.alias);
    }
    // SQL: a global aggregate over no rows yields one row.
    if (groups_.empty() && spec_.group_by.empty()) {
      groups_.try_emplace({}, agg_cols_.size());
    }
    for (const auto& [key, aggs] : groups_) {
      format::Row row{key};
      for (size_t a = 0; a < aggs.size(); ++a) {
        switch (spec_.aggregates[a].func) {
          case query::AggregateSpec::Func::kCount:
            row.fields.emplace_back(aggs[a].count);
            break;
          case query::AggregateSpec::Func::kSum:
            row.fields.emplace_back(aggs[a].sum);
            break;
          case query::AggregateSpec::Func::kAvg:
            row.fields.emplace_back(
                aggs[a].count == 0 ? 0.0 : aggs[a].sum / aggs[a].count);
            break;
          case query::AggregateSpec::Func::kMin:
          case query::AggregateSpec::Func::kMax:
            row.fields.push_back(aggs[a].extreme);
            break;
        }
      }
      result.rows.push_back(std::move(row));
    }
  }
  if (!spec_.order_by.empty()) {
    const auto named = std::find(result.column_names.rbegin(),
                                 result.column_names.rend(), spec_.order_by);
    if (named == result.column_names.rend()) {
      return Status::InvalidArgument("unknown ORDER BY column " +
                                     spec_.order_by);
    }
    const size_t col = result.column_names.rend() - named - 1;
    std::stable_sort(result.rows.begin(), result.rows.end(),
                     [&](const format::Row& a, const format::Row& b) {
                       int cmp = format::CompareKeys(a.fields[col],
                                                     b.fields[col]);
                       return spec_.order_descending ? cmp > 0 : cmp < 0;
                     });
  }
  if (spec_.limit > 0 && result.rows.size() > spec_.limit) {
    result.rows.resize(spec_.limit);
  }
  return result;
}

Result<query::QueryResult> Execute(const format::Schema& schema,
                                   const std::vector<format::Row>& rows,
                                   const query::QuerySpec& spec) {
  RowExecutor executor(schema, spec);
  executor.ConsumeFragment(rows);
  return executor.Finalize();
}

}  // namespace streamlake::oracle
