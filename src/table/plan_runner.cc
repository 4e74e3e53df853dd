#include "table/plan_runner.h"

#include <chrono>
#include <map>
#include <set>
#include <utility>

#include "common/metrics.h"
#include "query/executor.h"
#include "query/row_less.h"

namespace streamlake::table {

namespace {

uint64_t MonotonicNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Columns the output stage `spec` reads from rows of `schema`: group-by +
/// aggregate inputs, or the projection; SELECT * (no aggregates, no
/// projection) needs every column. Unknown names are dropped — the
/// executor reports them as errors.
ColumnSelection RequiredColumns(const format::Schema& schema,
                                const query::QuerySpec& spec) {
  if (spec.aggregates.empty() && spec.projection.empty()) {
    return ColumnSelection::All();
  }
  std::set<int> cols;
  auto add = [&](const std::string& name) {
    int idx = schema.FieldIndex(name);
    if (idx >= 0) cols.insert(idx);
  };
  if (spec.aggregates.empty()) {
    for (const std::string& c : spec.projection) add(c);
  } else {
    for (const std::string& c : spec.group_by) add(c);
    for (const query::AggregateSpec& agg : spec.aggregates) {
      if (!agg.column.empty()) add(agg.column);
    }
  }
  return ColumnSelection::Of(std::vector<int>(cols.begin(), cols.end()));
}

/// The output stage: one query::Executor per fragment, fed by that
/// fragment's scan job, folded with MergeFrom in file order by Finalize.
/// ORDER BY / LIMIT run once after the merge and float SUMs fold in file
/// order, so the result is byte-identical however the jobs were scheduled.
/// Fed by a scan, an aggregate query folds each batch straight from its
/// chunks and selection vector; a projection or SELECT * builds rows.
class ExecutorSink : public RowSink {
 public:
  ExecutorSink(const format::Schema& schema, const query::QuerySpec& spec)
      : schema_(schema), spec_(spec) {}

  void Open(size_t fragments) override {
    fragments_.reserve(fragments);
    for (size_t i = 0; i < fragments; ++i) {
      fragments_.emplace_back(schema_, spec_);
    }
  }
  Status Consume(size_t fragment, const ScannedGroup& group) override {
    if (!spec_.aggregates.empty()) {
      return fragments_[fragment].ConsumeBatch(group.chunks, group.selection,
                                               group.visible_rows);
    }
    return ConsumeRows(fragment, group.Rows(), group.visible_rows);
  }

  /// Rows that passed the filter (joined rows, from ProbeSink), out of
  /// `scanned`.
  Status ConsumeRows(size_t fragment, std::vector<format::Row> rows,
                     uint64_t scanned) {
    return fragments_[fragment].ConsumeFiltered(std::move(rows), scanned);
  }

  /// Merge the fragments in file order and produce the result.
  Result<query::QueryResult> Finalize() {
    query::Executor executor(schema_, spec_);
    for (query::Executor& fragment : fragments_) {
      SL_RETURN_NOT_OK(executor.MergeFrom(std::move(fragment)));
    }
    return executor.Finalize();
  }

 private:
  const format::Schema& schema_;
  const query::QuerySpec& spec_;
  std::vector<query::Executor> fragments_;
};

/// Collects a build-side scan per fragment. Each fragment's rows are
/// written only by its own scan job, so no lock is needed; the caller reads
/// them in file order once ScanInto has returned.
class CollectSink : public RowSink {
 public:
  void Open(size_t n) override { fragments.assign(n, {}); }
  Status Consume(size_t fragment, const ScannedGroup& group) override {
    std::vector<format::Row> rows = group.Rows();
    std::vector<format::Row>& out = fragments[fragment];
    out.insert(out.end(), std::make_move_iterator(rows.begin()),
               std::make_move_iterator(rows.end()));
    return Status::OK();
  }

  std::vector<std::vector<format::Row>> fragments;
};

using BuildMap =
    std::map<format::Value, std::vector<format::Row>, query::ValueLess>;

/// Streams each probe row group through the join chain on the delivering
/// pool thread, then feeds the joined rows to the output stage as its
/// scanned rows. It only reads the const build maps, so fragments run
/// concurrently without locks.
class ProbeSink : public RowSink {
 public:
  ProbeSink(const std::vector<query::Plan::Join>& joins,
            const std::vector<BuildMap>& build_maps, ExecutorSink* out)
      : joins_(joins), build_maps_(build_maps), out_(out) {}

  void Open(size_t fragments) override { out_->Open(fragments); }
  Status Consume(size_t fragment, const ScannedGroup& group) override {
    std::vector<format::Row> rows = group.Rows();
    for (size_t j = 0; j < joins_.size(); ++j) {
      const query::Plan::Join& join = joins_[j];
      const BuildMap& map = build_maps_[j];
      std::vector<format::Row> out;
      for (format::Row& row : rows) {
        auto it = map.find(row.fields[join.probe_col]);
        if (it == map.end()) continue;
        if (join.semi) {
          out.push_back(std::move(row));
          continue;
        }
        for (const format::Row& build_row : it->second) {
          format::Row joined = row;
          joined.fields.insert(joined.fields.end(), build_row.fields.begin(),
                               build_row.fields.end());
          out.push_back(std::move(joined));
        }
      }
      rows = std::move(out);
    }
    uint64_t joined_rows = rows.size();
    return out_->ConsumeRows(fragment, std::move(rows), joined_rows);
  }

 private:
  const std::vector<query::Plan::Join>& joins_;
  const std::vector<BuildMap>& build_maps_;
  ExecutorSink* out_;
};

}  // namespace

Result<query::QueryResult> RunPlan(std::span<const PinnedTable> tables,
                                   const query::Plan& plan,
                                   const SelectOptions& options,
                                   SelectMetrics* m) {
  const std::vector<query::Plan::Join>& joins = plan.joins;
  if (plan.scans.size() != joins.size() + 1 ||
      tables.size() != plan.scans.size()) {
    return Status::InvalidArgument(
        "a plan needs one build scan per join and one pinned table per scan");
  }

  // origin[i] = (scan, column) producing column i of a joined row: probe
  // columns first, then each inner join's build columns in join order
  // (semi joins do not extend the row).
  std::vector<std::pair<size_t, int>> origin;
  auto add_origin = [&](size_t scan) {
    for (size_t c = 0; c < tables[scan].info.schema.num_fields(); ++c) {
      origin.emplace_back(scan, static_cast<int>(c));
    }
  };
  add_origin(0);
  for (size_t j = 0; j < joins.size(); ++j) {
    if (!joins[j].semi) add_origin(j + 1);
  }

  // Late materialization: each scan decodes only the columns the pipeline
  // above it touches — the output stage's inputs and the join keys. The
  // scans add their own filter columns.
  const ColumnSelection output_required =
      RequiredColumns(plan.row_schema, plan.output);
  std::vector<ColumnSelection> required(plan.scans.size(),
                                        ColumnSelection::All());
  if (!output_required.all) {
    std::set<int> joined_cols(output_required.columns.begin(),
                              output_required.columns.end());
    std::vector<std::set<int>> cols(plan.scans.size());
    for (size_t j = 0; j < joins.size(); ++j) {
      joined_cols.insert(joins[j].probe_col);
      cols[j + 1].insert(joins[j].build_col);
    }
    for (int idx : joined_cols) {
      cols[origin[idx].first].insert(origin[idx].second);
    }
    for (size_t k = 0; k < cols.size(); ++k) {
      required[k] =
          ColumnSelection::Of(std::vector<int>(cols[k].begin(), cols[k].end()));
    }
  }

  uint64_t total_scanned = 0;
  uint64_t total_matched = 0;

  // Build phase: each build table scans through the pool into per-fragment
  // buffers; the key map itself is built serially in fragment order so
  // duplicate-key bucket order (hence inner-join output order) is
  // deterministic.
  std::vector<BuildMap> build_maps(joins.size());
  uint64_t build_start_ns = MonotonicNanos();
  uint64_t build_rows = 0;
  for (size_t j = 0; j < joins.size(); ++j) {
    const PinnedTable& pinned = tables[j + 1];
    CollectSink sink;
    SL_ASSIGN_OR_RETURN(
        ScanTotals totals,
        pinned.table->ScanInto(pinned.info, plan.scans[j + 1].filter, options,
                               required[j + 1], &sink, m));
    total_scanned += totals.rows_scanned;
    total_matched += totals.rows_matched;
    build_rows += totals.rows_matched;
    for (std::vector<format::Row>& fragment : sink.fragments) {
      for (format::Row& row : fragment) {
        format::Value key = row.fields[joins[j].build_col];
        build_maps[j][std::move(key)].push_back(std::move(row));
      }
    }
  }
  uint64_t build_ns = MonotonicNanos() - build_start_ns;

  // Probe phase: row groups stream through the chain on the pool threads
  // into one output-stage executor per fragment, merged in file order by
  // Finalize. Without a join the scan feeds the output stage directly.
  ExecutorSink output(plan.row_schema, plan.output);
  ProbeSink probe_sink(joins, build_maps, &output);
  RowSink* sink = joins.empty() ? static_cast<RowSink*>(&output) : &probe_sink;
  const PinnedTable& probe = tables[0];
  uint64_t probe_start_ns = MonotonicNanos();
  SL_ASSIGN_OR_RETURN(
      ScanTotals probe_totals,
      probe.table->ScanInto(probe.info, plan.scans[0].filter, options,
                            required[0], sink, m));
  uint64_t probe_ns = MonotonicNanos() - probe_start_ns;
  total_scanned += probe_totals.rows_scanned;
  total_matched += probe_totals.rows_matched;

  SL_ASSIGN_OR_RETURN(query::QueryResult result, output.Finalize());
  if (!joins.empty()) {
    static Counter* build_rows_counter =
        MetricsRegistry::Global().GetCounter("query.join.build_rows");
    static Counter* probe_rows_counter =
        MetricsRegistry::Global().GetCounter("query.join.probe_rows");
    static Counter* build_ns_counter =
        MetricsRegistry::Global().GetCounter("query.join.build_ns");
    static Counter* probe_ns_counter =
        MetricsRegistry::Global().GetCounter("query.join.probe_ns");
    static Counter* scan_rows_counter =
        MetricsRegistry::Global().GetCounter("query.op.scan.rows");
    static Counter* join_rows_counter =
        MetricsRegistry::Global().GetCounter("query.op.join.rows");
    build_rows_counter->Increment(build_rows);
    probe_rows_counter->Increment(probe_totals.rows_matched);
    build_ns_counter->Increment(build_ns);
    probe_ns_counter->Increment(probe_ns);
    scan_rows_counter->Increment(total_scanned);
    join_rows_counter->Increment(result.rows_scanned);
  }
  // The output stage saw joined rows; the query-level counters report what
  // the scans read and matched across every table of the query.
  result.rows_scanned = total_scanned;
  result.rows_matched = total_matched;
  return result;
}

}  // namespace streamlake::table
