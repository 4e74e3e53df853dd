#include "table/plan_runner.h"

#include <chrono>
#include <iterator>
#include <optional>
#include <set>
#include <utility>

#include "common/metrics.h"
#include "query/executor.h"

namespace streamlake::table {

namespace {

uint64_t MonotonicNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// The output stage: one query::Executor per fragment, fed by that
/// fragment's scan job, folded with MergeFrom in file order by Finalize.
/// ORDER BY / LIMIT run once after the merge and float SUMs fold in file
/// order, so the result is byte-identical however the jobs were scheduled.
/// An aggregate query folds each batch straight from its chunks; a
/// projection or SELECT * builds rows of the columns it returns. Every
/// fragment starts as a copy of the merge target, so the spec's columns
/// are resolved once.
class ExecutorSink : public RowSink {
 public:
  ExecutorSink(const format::Schema& schema, const query::QuerySpec& spec)
      : merged_(schema, spec),
        aggregate_(!spec.aggregates.empty()),
        sources_(query::OneSideSources(schema.num_fields())) {}

  /// The merge target, before any fragment folded into it.
  const query::Executor& target() const { return merged_; }

  void Open(size_t fragments) override {
    fragments_.reserve(fragments);
    for (size_t i = 0; i < fragments; ++i) fragments_.push_back(merged_);
  }
  Status Consume(size_t fragment, const ScannedGroup& group) override {
    return ConsumeRows(fragment,
                       {sources_, group.chunks, group.selection, 1, {}},
                       group.visible_rows, group.metrics);
  }

  /// Rows that passed the filter (joined rows, from ProbeSink), out of
  /// `scanned`. Rows a projection or SELECT * builds count into `metrics`
  /// (when non-null) as materialized.
  Status ConsumeRows(size_t fragment, const query::ChunkRows& rows,
                     uint64_t scanned, SelectMetrics* metrics) {
    if (!aggregate_ && metrics != nullptr) {
      metrics->rows_materialized += rows.size();
    }
    return fragments_[fragment].Consume(rows, scanned);
  }

  /// Merge the fragments in file order and produce the result.
  Result<query::QueryResult> Finalize() {
    for (query::Executor& fragment : fragments_) {
      SL_RETURN_NOT_OK(merged_.MergeFrom(std::move(fragment)));
    }
    return merged_.Finalize();
  }

 private:
  query::Executor merged_;
  const bool aggregate_;
  const std::vector<query::ColumnSource> sources_;
  std::vector<query::Executor> fragments_;
};

/// One scanned group a build side keeps: its chunks and selected rows.
struct BuildBatch {
  std::vector<format::ColumnChunkPtr> chunks;
  std::vector<uint32_t> selection;
};

/// Collects a build-side scan per fragment, as column batches. Each
/// fragment's batches are written only by its own scan job, so no lock is
/// needed; the caller reads them in file order once ScanInto has returned.
class CollectSink : public RowSink {
 public:
  void Open(size_t n) override { fragments.assign(n, {}); }
  Status Consume(size_t fragment, const ScannedGroup& group) override {
    if (!group.selection.empty()) {
      fragments[fragment].push_back({group.chunks, group.selection});
    }
    return Status::OK();
  }

  std::vector<std::vector<BuildBatch>> fragments;
};

/// One join's build side, kept columnar: the build scan's batches in file
/// order and, per distinct non-NULL key (a KeyTable id), the build rows
/// holding it in that order. A NULL key is left out, so a NULL probe key
/// never matches (SQL: NULL = anything is unknown). A semi join keeps only
/// the keys.
struct BuildSide {
  std::vector<BuildBatch> batches;
  query::KeyTable keys;
  std::vector<uint32_t> starts;       // key id -> its first entry of rows
  std::vector<query::ChunkRef> rows;  // build rows grouped by key id

  /// Take `sink`'s batches in fragment order and index them by column
  /// `key_col`; with `keep_rows`, also each key's rows.
  void Build(CollectSink&& sink, int key_col, bool keep_rows) {
    for (std::vector<BuildBatch>& fragment : sink.fragments) {
      std::move(fragment.begin(), fragment.end(), std::back_inserter(batches));
    }
    std::vector<uint32_t> ids;  // per build row, kNotFound for a NULL key
    query::KeyEncoder key;
    for (const BuildBatch& batch : batches) {
      const format::ColumnChunkData* chunk = batch.chunks[key_col].get();
      for (uint32_t r : batch.selection) {
        if (chunk == nullptr || chunk->IsNullAt(r)) {
          ids.push_back(query::KeyTable::kNotFound);
          continue;
        }
        key.Clear();
        key.Add(chunk, r);
        ids.push_back(keys.Insert(key.bytes()).first);
      }
    }
    if (!keep_rows) return;
    // A stable counting sort by key id keeps each key's rows in file order.
    starts.assign(keys.size() + 1, 0);
    for (uint32_t id : ids) {
      if (id != query::KeyTable::kNotFound) ++starts[id + 1];
    }
    for (size_t id = 0; id < keys.size(); ++id) starts[id + 1] += starts[id];
    rows.resize(starts.back());
    std::vector<uint32_t> next(starts.begin(), starts.end() - 1);
    size_t i = 0;
    for (const BuildBatch& batch : batches) {
      for (uint32_t r : batch.selection) {
        const uint32_t id = ids[i++];
        if (id != query::KeyTable::kNotFound) {
          rows[next[id]++] = {batch.chunks.data(), r};
        }
      }
    }
  }
};

/// Streams each probe row group through the join chain on the delivering
/// pool thread, then feeds the joined rows to the output stage as its
/// scanned rows. Rows stay references into the probe group's and the
/// build sides' chunks: each join encodes a row's key cell in place and
/// looks it up, and only the output stage reads the columns it needs. It
/// only reads the const build sides, so fragments run concurrently
/// without locks.
class ProbeSink : public RowSink {
 public:
  /// `sources[c]` is where column c of a joined row is read: side 0 is the
  /// probe row, side s the build row of the s-th inner join.
  ProbeSink(const std::vector<query::Plan::Join>& joins,
            const std::vector<BuildSide>& builds,
            std::span<const query::ColumnSource> sources, ExecutorSink* out)
      : joins_(joins), builds_(builds), sources_(sources), out_(out) {}

  void Open(size_t fragments) override { out_->Open(fragments); }
  Status Consume(size_t fragment, const ScannedGroup& group) override {
    // Side 0 stays the group's chunks; each join keeps, per row that
    // passed it, its side-0 row and its build rows.
    std::span<const uint32_t> probe = group.selection;
    std::vector<uint32_t> probe_rows, next_probe;
    std::vector<query::ChunkRef> builds, next_builds;
    size_t sides = 1;
    query::KeyEncoder key;
    for (size_t j = 0; j < joins_.size(); ++j) {
      const query::Plan::Join& join = joins_[j];
      const BuildSide& build = builds_[j];
      const query::ChunkRows rows{sources_, group.chunks, probe, sides,
                                  builds};
      next_probe.clear();
      next_builds.clear();
      for (size_t t = 0; t < rows.size(); ++t) {
        const format::ColumnChunkData* chunk = rows.chunk(t, join.probe_col);
        const uint32_t r = rows.row(t, join.probe_col);
        if (chunk == nullptr || chunk->IsNullAt(r)) continue;
        key.Clear();
        key.Add(chunk, r);
        const uint32_t id = build.keys.Find(key.bytes());
        if (id == query::KeyTable::kNotFound) continue;
        const auto row = builds.begin() + t * (sides - 1);
        const auto keep = [&] {
          next_probe.push_back(probe[t]);
          next_builds.insert(next_builds.end(), row, row + (sides - 1));
        };
        if (join.semi) {
          keep();
          continue;
        }
        for (uint32_t b = build.starts[id]; b < build.starts[id + 1]; ++b) {
          keep();
          next_builds.push_back(build.rows[b]);
        }
      }
      if (!join.semi) ++sides;
      probe_rows.swap(next_probe);
      builds.swap(next_builds);
      probe = probe_rows;
    }
    return out_->ConsumeRows(fragment,
                             {sources_, group.chunks, probe, sides, builds},
                             probe.size(), group.metrics);
  }

 private:
  const std::vector<query::Plan::Join>& joins_;
  const std::vector<BuildSide>& builds_;
  std::span<const query::ColumnSource> sources_;
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

  // origin[i] = (scan, column) producing column i of a joined row, and
  // sources[i] where the probe reads it: probe columns first (side 0), then
  // each inner join's build columns in join order, one side per join
  // (semi joins do not extend the row).
  std::vector<std::pair<size_t, int>> origin;
  std::vector<query::ColumnSource> sources;
  auto add_origin = [&](size_t scan) {
    const uint32_t side = sources.empty() ? 0 : sources.back().side + 1;
    for (size_t c = 0; c < tables[scan].info.schema.num_fields(); ++c) {
      origin.emplace_back(scan, static_cast<int>(c));
      sources.push_back({side, static_cast<uint32_t>(c)});
    }
  };
  add_origin(0);
  for (size_t j = 0; j < joins.size(); ++j) {
    if (!joins[j].semi) add_origin(j + 1);
  }

  // The output stage resolves its columns before any file is read: an
  // unknown one fails the query here.
  ExecutorSink output(plan.row_schema, plan.output);
  SL_RETURN_NOT_OK(output.target().status());

  // Late materialization: each scan decodes only the columns the pipeline
  // above it touches — the output stage's inputs and the join keys. The
  // scans add their own filter columns.
  const std::optional<std::vector<int>> inputs =
      output.target().InputColumns();
  std::vector<ColumnSelection> required(plan.scans.size(),
                                        ColumnSelection::All());
  if (inputs.has_value()) {
    std::set<int> joined_cols(inputs->begin(), inputs->end());
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
  // batches; its key table is built serially in fragment order so each
  // key's build rows (hence inner-join output order) are deterministic.
  std::vector<BuildSide> builds(joins.size());
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
    builds[j].Build(std::move(sink), joins[j].build_col, !joins[j].semi);
  }
  uint64_t build_ns = MonotonicNanos() - build_start_ns;

  // Probe phase: row groups stream through the chain on the pool threads
  // into one output-stage executor per fragment, merged in file order by
  // Finalize. Without a join the scan feeds the output stage directly.
  ProbeSink probe_sink(joins, builds, sources, &output);
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
  static Counter* rows_scanned =
      MetricsRegistry::Global().GetCounter("query.rows_scanned");
  static Counter* rows_matched =
      MetricsRegistry::Global().GetCounter("query.rows_matched");
  rows_scanned->Increment(total_scanned);
  rows_matched->Increment(total_matched);
  result.rows_scanned = total_scanned;
  result.rows_matched = total_matched;
  return result;
}

}  // namespace streamlake::table
