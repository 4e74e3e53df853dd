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

/// Applies a pure row transform (the join chain + residual filters) to
/// each probe row group on the delivering pool thread, then feeds the
/// joined rows to the final-stage ExecutorSink as that stage's scanned
/// rows. The transform only reads const build maps, so fragments run
/// concurrently without locks.
class JoinProbeSink : public RowSink {
 public:
  using Transform =
      std::function<std::vector<format::Row>(std::vector<format::Row>)>;

  JoinProbeSink(Transform transform, ExecutorSink* out)
      : transform_(std::move(transform)), out_(out) {}

  void Open(size_t fragments) override { out_->Open(fragments); }
  Status Consume(size_t fragment, std::vector<format::Row> rows,
                 uint64_t /*visible_rows*/) override {
    std::vector<format::Row> joined = transform_(std::move(rows));
    uint64_t joined_rows = joined.size();
    return out_->Consume(fragment, std::move(joined), joined_rows);
  }

 private:
  Transform transform_;
  ExecutorSink* out_;
};

/// The root-to-source operator chain of a plan:
/// SortLimit? -> (Aggregate | Project)? -> Filter* -> source.
struct PlanShape {
  const query::SortLimitNode* sort = nullptr;
  const query::AggregateNode* aggregate = nullptr;
  const query::ProjectNode* project = nullptr;
  std::vector<const query::FilterNode*> post_filters;
  const query::PlanNode* source = nullptr;
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
  if (cur->kind != query::PlanNode::Kind::kScan &&
      cur->kind != query::PlanNode::Kind::kHashJoin) {
    return Status::InvalidArgument("unsupported plan shape");
  }
  shape.source = cur;
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

SelectOptions PlanRunner::OptionsFor(size_t table_index) const {
  SelectOptions options = options_;
  if (tables_[table_index].snapshot_id != 0) {
    options.snapshot_id = tables_[table_index].snapshot_id;
    options.as_of_timestamp = -1;
  }
  return options;
}

Result<query::QueryResult> PlanRunner::Run(const query::PlanNode& root,
                                           SelectMetrics* metrics) {
  SelectMetrics local_metrics;
  SelectMetrics* m = metrics != nullptr ? metrics : &local_metrics;
  SL_ASSIGN_OR_RETURN(PlanShape shape, WalkShape(root));

  if (shape.source->kind == query::PlanNode::Kind::kScan) {
    // Single-scan plan: collapse into Table::Select — its pipeline IS
    // scan -> filter -> (aggregate | project) -> sort/limit, fragment-
    // merged exactly as before the plan-tree refactor.
    const auto& scan = static_cast<const query::ScanNode&>(*shape.source);
    if (scan.table_index >= tables_.size()) {
      return Status::InvalidArgument("scan table index out of range");
    }
    query::QuerySpec spec = FinalSpec(shape);
    spec.where = scan.filter;
    for (const query::FilterNode* filter : shape.post_filters) {
      for (const query::Predicate& p : filter->filter.predicates()) {
        spec.where.Add(p);
      }
    }
    return tables_[scan.table_index].table->Select(
        spec, OptionsFor(scan.table_index), metrics);
  }

  // Hash-join pipeline. Flatten the left-deep join chain; application
  // order is bottom-up (nearest the probe scan first).
  std::vector<const query::HashJoinNode*> joins;
  const query::PlanNode* cur = shape.source;
  while (cur->kind == query::PlanNode::Kind::kHashJoin) {
    joins.insert(joins.begin(),
                 static_cast<const query::HashJoinNode*>(cur));
    if (cur->children.size() != 2) {
      return Status::InvalidArgument("hash join needs two children");
    }
    cur = cur->children[0].get();
  }
  std::vector<const query::FilterNode*> probe_filters;
  while (cur->kind == query::PlanNode::Kind::kFilter) {
    probe_filters.insert(
        probe_filters.begin(),
        static_cast<const query::FilterNode*>(cur));
    if (cur->children.size() != 1) {
      return Status::InvalidArgument("plan operator needs exactly one child");
    }
    cur = cur->children[0].get();
  }
  if (cur->kind != query::PlanNode::Kind::kScan) {
    return Status::InvalidArgument("join probe side must end in a scan");
  }
  const auto& probe_scan = static_cast<const query::ScanNode&>(*cur);
  if (probe_scan.table_index >= tables_.size()) {
    return Status::InvalidArgument("scan table index out of range");
  }
  const format::Schema& probe_schema = probe_scan.output_schema;
  const format::Schema& joined_schema = shape.source->output_schema;

  // Joined-row layout: probe columns first, then each non-semi build
  // table's columns in join order (semi joins do not extend the row).
  const size_t probe_fields = probe_schema.num_fields();
  std::vector<const query::ScanNode*> build_scans(joins.size(), nullptr);
  std::vector<size_t> build_offset(joins.size(), 0);
  {
    size_t width = probe_fields;
    for (size_t j = 0; j < joins.size(); ++j) {
      if (joins[j]->children[1]->kind != query::PlanNode::Kind::kScan) {
        return Status::InvalidArgument("join build side must be a scan");
      }
      build_scans[j] =
          static_cast<const query::ScanNode*>(joins[j]->children[1].get());
      if (build_scans[j]->table_index >= tables_.size()) {
        return Status::InvalidArgument("scan table index out of range");
      }
      build_offset[j] = width;
      if (joins[j]->join_kind != query::HashJoinNode::JoinKind::kSemi) {
        width += build_scans[j]->output_schema.num_fields();
      }
    }
  }

  // Late materialization: each scan decodes only the columns the pipeline
  // above it touches — join keys, probe/post filters, and the final
  // aggregate/projection inputs. A SELECT * plan (no aggregate, no
  // projection) needs every column of every table.
  query::QuerySpec final_spec = FinalSpec(shape);
  ColumnSelection probe_required = ColumnSelection::All();
  std::vector<ColumnSelection> build_required(joins.size(),
                                              ColumnSelection::All());
  if (!final_spec.aggregates.empty() || !final_spec.projection.empty()) {
    std::set<int> probe_cols;
    std::vector<std::set<int>> build_cols(joins.size());
    // Route a joined-schema column index to the scan that produces it.
    auto add_joined = [&](size_t idx) {
      if (idx < probe_fields) {
        probe_cols.insert(static_cast<int>(idx));
        return;
      }
      for (size_t j = 0; j < joins.size(); ++j) {
        if (joins[j]->join_kind == query::HashJoinNode::JoinKind::kSemi) {
          continue;
        }
        size_t fields = build_scans[j]->output_schema.num_fields();
        if (idx >= build_offset[j] && idx < build_offset[j] + fields) {
          build_cols[j].insert(static_cast<int>(idx - build_offset[j]));
          return;
        }
      }
    };
    auto add_joined_name = [&](const std::string& name) {
      int idx = joined_schema.FieldIndex(name);
      if (idx >= 0) add_joined(static_cast<size_t>(idx));
    };
    for (const std::string& c : final_spec.group_by) add_joined_name(c);
    for (const query::AggregateSpec& a : final_spec.aggregates) {
      if (!a.column.empty()) add_joined_name(a.column);
    }
    for (const std::string& c : final_spec.projection) add_joined_name(c);
    for (const query::FilterNode* f : shape.post_filters) {
      for (const query::Predicate& p : f->filter.predicates()) {
        add_joined_name(p.column);
      }
    }
    for (const query::FilterNode* f : probe_filters) {
      for (const query::Predicate& p : f->filter.predicates()) {
        int idx = probe_schema.FieldIndex(p.column);
        if (idx >= 0) probe_cols.insert(idx);
      }
    }
    for (size_t j = 0; j < joins.size(); ++j) {
      add_joined(static_cast<size_t>(joins[j]->probe_col));
      build_cols[j].insert(static_cast<int>(joins[j]->build_col));
    }
    probe_required = ColumnSelection::Of(
        std::vector<int>(probe_cols.begin(), probe_cols.end()));
    for (size_t j = 0; j < joins.size(); ++j) {
      build_required[j] = ColumnSelection::Of(
          std::vector<int>(build_cols[j].begin(), build_cols[j].end()));
    }
  }

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
    CollectSink sink;
    SL_ASSIGN_OR_RETURN(
        ScanTotals totals,
        tables_[build_scan.table_index].table->ScanInto(
            build_scan.filter, OptionsFor(build_scan.table_index),
            build_required[j], &sink, m));
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
  build_ns_counter->Increment(MonotonicNanos() - build_start_ns);
  build_rows_counter->Increment(build_rows);

  // Probe phase: row groups stream through the join chain on the pool
  // threads (pure reads of the const build maps) into one final-stage
  // executor per fragment, merged in file order by Finalize.
  auto transform = [&](std::vector<format::Row> rows) {
    for (const query::FilterNode* filter : probe_filters) {
      std::vector<format::Row> kept;
      kept.reserve(rows.size());
      for (format::Row& row : rows) {
        if (filter->filter.Matches(probe_schema, row)) {
          kept.push_back(std::move(row));
        }
      }
      rows = std::move(kept);
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
      std::vector<format::Row> kept;
      kept.reserve(rows.size());
      for (format::Row& row : rows) {
        if (filter->filter.Matches(joined_schema, row)) {
          kept.push_back(std::move(row));
        }
      }
      rows = std::move(kept);
    }
    return rows;
  };

  ExecutorSink final_stage(joined_schema, FinalSpec(shape));
  JoinProbeSink probe_sink(transform, &final_stage);
  uint64_t probe_start_ns = MonotonicNanos();
  SL_ASSIGN_OR_RETURN(
      ScanTotals probe_totals,
      tables_[probe_scan.table_index].table->ScanInto(
          probe_scan.filter, OptionsFor(probe_scan.table_index),
          probe_required, &probe_sink, m));
  probe_ns_counter->Increment(MonotonicNanos() - probe_start_ns);
  probe_rows_counter->Increment(probe_totals.rows_matched);
  total_scanned += probe_totals.rows_scanned;
  total_matched += probe_totals.rows_matched;
  scan_rows_counter->Increment(total_scanned);

  SL_ASSIGN_OR_RETURN(query::QueryResult result, final_stage.Finalize());
  // The final stage saw joined rows; the query-level counters report what
  // the scans read and matched across every table of the query.
  join_rows_counter->Increment(result.rows_scanned);
  result.rows_scanned = total_scanned;
  result.rows_matched = total_matched;
  return result;
}

}  // namespace streamlake::table
