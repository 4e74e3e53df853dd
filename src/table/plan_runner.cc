#include "table/plan_runner.h"

#include <chrono>
#include <map>
#include <set>
#include <utility>

#include "common/metrics.h"
#include "query/row_less.h"

namespace streamlake::table {

namespace {

uint64_t MonotonicNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Collects a build-side scan per fragment. Each fragment's rows are
/// written only by its own scan job, so no lock is needed; the caller reads
/// them in file order once ScanInto has returned.
class CollectSink : public RowSink {
 public:
  void Open(size_t n) override { fragments.assign(n, {}); }
  Status Consume(size_t fragment, std::vector<format::Row> rows,
                 uint64_t /*visible_rows*/) override {
    std::vector<format::Row>& out = fragments[fragment];
    out.insert(out.end(), std::make_move_iterator(rows.begin()),
               std::make_move_iterator(rows.end()));
    return Status::OK();
  }

  std::vector<std::vector<format::Row>> fragments;
};

/// Applies a pure row transform (filters + the join chain) to each probe
/// row group on the delivering pool thread, then feeds the result to the
/// final-stage ExecutorSink. After a join the joined rows are that stage's
/// scanned rows; without one it sees the scan's own visible rows, exactly
/// as under Table::Select. The transform only reads const build maps, so
/// fragments run concurrently without locks.
class ProbeSink : public RowSink {
 public:
  using Transform =
      std::function<std::vector<format::Row>(std::vector<format::Row>)>;

  ProbeSink(Transform transform, bool joins, ExecutorSink* out)
      : transform_(std::move(transform)), joins_(joins), out_(out) {}

  void Open(size_t fragments) override { out_->Open(fragments); }
  Status Consume(size_t fragment, std::vector<format::Row> rows,
                 uint64_t visible_rows) override {
    std::vector<format::Row> out = transform_(std::move(rows));
    uint64_t scanned = joins_ ? out.size() : visible_rows;
    return out_->Consume(fragment, std::move(out), scanned);
  }

 private:
  Transform transform_;
  bool joins_;
  ExecutorSink* out_;
};

/// Keep the rows of `rows` matching `filter` over `schema`.
std::vector<format::Row> FilterRows(const query::Conjunction& filter,
                                    const format::Schema& schema,
                                    std::vector<format::Row> rows) {
  std::vector<format::Row> kept;
  kept.reserve(rows.size());
  for (format::Row& row : rows) {
    if (filter.Matches(schema, row)) kept.push_back(std::move(row));
  }
  return kept;
}

/// The operator chain of a plan, root to leaves: SortLimit? ->
/// (Aggregate | Project)? -> Filter* -> HashJoin* -> Filter* -> Scan, where
/// every HashJoin's second child is its build-side Scan.
struct PlanShape {
  const query::SortLimitNode* sort = nullptr;
  const query::AggregateNode* aggregate = nullptr;
  const query::ProjectNode* project = nullptr;
  std::vector<const query::FilterNode*> post_filters;
  /// The top join, or the probe scan when the chain is empty.
  const query::PlanNode* source = nullptr;
  // Bottom-up (nearest the probe scan first): application order.
  std::vector<const query::HashJoinNode*> joins;
  std::vector<const query::ScanNode*> build_scans;  // parallel to joins
  std::vector<const query::FilterNode*> probe_filters;
  const query::ScanNode* probe = nullptr;
};

Result<PlanShape> WalkShape(const query::PlanNode& root) {
  PlanShape shape;
  const query::PlanNode* cur = &root;
  auto descend = [&]() -> Status {
    if (cur->children.size() != 1) {
      return Status::InvalidArgument("plan operator needs exactly one child");
    }
    cur = cur->children[0].get();
    return Status::OK();
  };
  if (cur->kind == query::PlanNode::Kind::kSortLimit) {
    shape.sort = static_cast<const query::SortLimitNode*>(cur);
    SL_RETURN_NOT_OK(descend());
  }
  if (cur->kind == query::PlanNode::Kind::kAggregate) {
    shape.aggregate = static_cast<const query::AggregateNode*>(cur);
    SL_RETURN_NOT_OK(descend());
  } else if (cur->kind == query::PlanNode::Kind::kProject) {
    shape.project = static_cast<const query::ProjectNode*>(cur);
    SL_RETURN_NOT_OK(descend());
  }
  while (cur->kind == query::PlanNode::Kind::kFilter) {
    shape.post_filters.push_back(static_cast<const query::FilterNode*>(cur));
    SL_RETURN_NOT_OK(descend());
  }
  shape.source = cur;
  while (cur->kind == query::PlanNode::Kind::kHashJoin) {
    if (cur->children.size() != 2 ||
        cur->children[1]->kind != query::PlanNode::Kind::kScan) {
      return Status::InvalidArgument(
          "hash join needs a probe child and a build-side scan");
    }
    shape.joins.insert(shape.joins.begin(),
                       static_cast<const query::HashJoinNode*>(cur));
    shape.build_scans.insert(
        shape.build_scans.begin(),
        static_cast<const query::ScanNode*>(cur->children[1].get()));
    cur = cur->children[0].get();
  }
  while (cur->kind == query::PlanNode::Kind::kFilter) {
    shape.probe_filters.insert(shape.probe_filters.begin(),
                               static_cast<const query::FilterNode*>(cur));
    SL_RETURN_NOT_OK(descend());
  }
  if (cur->kind != query::PlanNode::Kind::kScan) {
    return Status::InvalidArgument("unsupported plan shape");
  }
  shape.probe = static_cast<const query::ScanNode*>(cur);
  return shape;
}

/// The final-stage QuerySpec of a plan (everything above the join/scan
/// source; the scan filters were already pushed down).
query::QuerySpec FinalSpec(const PlanShape& shape) {
  query::QuerySpec spec;
  if (shape.aggregate != nullptr) {
    spec.group_by = shape.aggregate->group_by;
    spec.aggregates = shape.aggregate->aggregates;
  } else if (shape.project != nullptr) {
    spec.projection = shape.project->columns;
  }
  if (shape.sort != nullptr) {
    spec.order_by = shape.sort->order_by;
    spec.order_descending = shape.sort->order_descending;
    spec.limit = shape.sort->limit;
  }
  return spec;
}

}  // namespace

PlanRunner::PlanRunner(std::vector<PinnedTable> tables, SelectOptions options)
    : tables_(std::move(tables)), options_(options) {}

Result<query::QueryResult> PlanRunner::Run(const query::PlanNode& root,
                                           SelectMetrics* metrics) {
  SelectMetrics local_metrics;
  SelectMetrics* m = metrics != nullptr ? metrics : &local_metrics;
  SL_ASSIGN_OR_RETURN(PlanShape shape, WalkShape(root));
  const std::vector<const query::HashJoinNode*>& joins = shape.joins;
  const std::vector<const query::ScanNode*>& build_scans = shape.build_scans;
  const query::ScanNode& probe_scan = *shape.probe;
  for (const query::ScanNode* scan : build_scans) {
    if (scan->table_index >= tables_.size()) {
      return Status::InvalidArgument("scan table index out of range");
    }
  }
  if (probe_scan.table_index >= tables_.size()) {
    return Status::InvalidArgument("scan table index out of range");
  }
  const format::Schema& probe_schema = probe_scan.output_schema;
  const format::Schema& joined_schema = shape.source->output_schema;

  // Scan k of the chain: 0 = the probe scan, j + 1 = the build side of
  // joins[j]. origin[i] = (scan, column) producing column i of a joined
  // row: probe columns first, then each non-semi build table's columns in
  // join order (semi joins do not extend the row).
  std::vector<std::pair<size_t, int>> origin;
  for (size_t c = 0; c < probe_schema.num_fields(); ++c) {
    origin.emplace_back(0, static_cast<int>(c));
  }
  for (size_t j = 0; j < joins.size(); ++j) {
    if (joins[j]->join_kind == query::HashJoinNode::JoinKind::kSemi) continue;
    for (size_t c = 0; c < build_scans[j]->output_schema.num_fields(); ++c) {
      origin.emplace_back(j + 1, static_cast<int>(c));
    }
  }

  // Late materialization: each scan decodes only the columns the pipeline
  // above it touches — the final stage's inputs (the same RequiredColumns
  // Table::Select uses, over the joined schema), post-filter and probe
  // filter columns, and join keys. The scans add their own filter columns.
  const query::QuerySpec final_spec = FinalSpec(shape);
  const ColumnSelection final_required =
      RequiredColumns(joined_schema, final_spec);
  std::vector<ColumnSelection> required(joins.size() + 1,
                                        ColumnSelection::All());
  if (!final_required.all) {
    std::set<int> joined_cols(final_required.columns.begin(),
                              final_required.columns.end());
    std::vector<std::set<int>> cols(joins.size() + 1);
    for (const query::FilterNode* f : shape.post_filters) {
      for (const query::Predicate& p : f->filter.predicates()) {
        joined_cols.insert(joined_schema.FieldIndex(p.column));
      }
    }
    for (const query::FilterNode* f : shape.probe_filters) {
      for (const query::Predicate& p : f->filter.predicates()) {
        cols[0].insert(probe_schema.FieldIndex(p.column));
      }
    }
    for (size_t j = 0; j < joins.size(); ++j) {
      joined_cols.insert(joins[j]->probe_col);
      cols[j + 1].insert(joins[j]->build_col);
    }
    for (int idx : joined_cols) {
      if (idx < 0 || static_cast<size_t>(idx) >= origin.size()) continue;
      cols[origin[idx].first].insert(origin[idx].second);
    }
    for (size_t k = 0; k < cols.size(); ++k) {
      cols[k].erase(-1);  // unknown filter columns
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
  using BuildMap =
      std::map<format::Value, std::vector<format::Row>, query::ValueLess>;
  std::vector<BuildMap> build_maps(joins.size());
  uint64_t build_start_ns = MonotonicNanos();
  uint64_t build_rows = 0;
  for (size_t j = 0; j < joins.size(); ++j) {
    const query::HashJoinNode& join = *joins[j];
    const query::ScanNode& build_scan = *build_scans[j];
    const PinnedTable& pinned = tables_[build_scan.table_index];
    CollectSink sink;
    SL_ASSIGN_OR_RETURN(
        ScanTotals totals,
        pinned.table->ScanInto(pinned.info, build_scan.filter, options_,
                               required[j + 1], &sink, m));
    total_scanned += totals.rows_scanned;
    total_matched += totals.rows_matched;
    build_rows += totals.rows_matched;
    for (std::vector<format::Row>& fragment : sink.fragments) {
      for (format::Row& row : fragment) {
        format::Value key = row.fields[join.build_col];
        build_maps[j][std::move(key)].push_back(std::move(row));
      }
    }
  }
  uint64_t build_ns = MonotonicNanos() - build_start_ns;

  // Probe phase: row groups stream through the chain on the pool threads
  // (pure reads of the const build maps) into one final-stage executor
  // per fragment, merged in file order by Finalize.
  auto transform = [&](std::vector<format::Row> rows) {
    for (const query::FilterNode* filter : shape.probe_filters) {
      rows = FilterRows(filter->filter, probe_schema, std::move(rows));
    }
    for (size_t j = 0; j < joins.size(); ++j) {
      const query::HashJoinNode& join = *joins[j];
      const BuildMap& map = build_maps[j];
      std::vector<format::Row> out;
      for (format::Row& row : rows) {
        auto it = map.find(row.fields[join.probe_col]);
        if (it == map.end()) continue;
        if (join.join_kind == query::HashJoinNode::JoinKind::kSemi) {
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
    for (const query::FilterNode* filter : shape.post_filters) {
      rows = FilterRows(filter->filter, joined_schema, std::move(rows));
    }
    return rows;
  };

  ExecutorSink final_stage(joined_schema, final_spec);
  ProbeSink probe_sink(transform, !joins.empty(), &final_stage);
  const PinnedTable& probe = tables_[probe_scan.table_index];
  uint64_t probe_start_ns = MonotonicNanos();
  SL_ASSIGN_OR_RETURN(
      ScanTotals probe_totals,
      probe.table->ScanInto(probe.info, probe_scan.filter, options_,
                            required[0], &probe_sink, m));
  uint64_t probe_ns = MonotonicNanos() - probe_start_ns;
  total_scanned += probe_totals.rows_scanned;
  total_matched += probe_totals.rows_matched;

  SL_ASSIGN_OR_RETURN(query::QueryResult result, final_stage.Finalize());
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
  // The final stage saw joined rows; the query-level counters report what
  // the scans read and matched across every table of the query.
  result.rows_scanned = total_scanned;
  result.rows_matched = total_matched;
  return result;
}

}  // namespace streamlake::table
