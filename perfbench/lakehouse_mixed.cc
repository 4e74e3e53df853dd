// `lakehouse_mixed`: time-ordered streaming-style ingestion into a
// day-partitioned lineitem table with merge-on-read deletes. After every
// batch the client inserts a small batch (most rows in the hot day, one in
// ten in the previous day) and runs a recent-window Select; periodically
// it issues a MOR Delete, compacts cold dirty partitions, and runs a
// maintenance cycle (RewriteManifest + ExpireSnapshots +
// RunBackgroundWork). Maintenance keeps the commit chain at tens of
// commits, so every step stays the same size for the whole run.
//
// Epochs run in pairs on fresh deployments; both epochs of a pair replay
// the same seed-derived batches, so their deterministic counts must match.
// An epoch's set-up loads a few days of history and runs the loop up to
// and including the first maintenance cycle; the timed window is the next
// kTimedBatches batches.

#include <algorithm>
#include <climits>
#include <set>

#include "bench.h"
#include "format/row_codec.h"
#include "workload/tpch.h"

namespace perfbench {

namespace {

using namespace streamlake;

constexpr size_t kBatchRows = 500;
constexpr int kBatchesPerDay = 20;
constexpr int kDeleteEvery = 10;       // MOR delete at batch % 10 == 5
constexpr int kMaintenanceEvery = 50;  // maintenance at batch % 50 == 49
constexpr int kHistoryDays = 4;
constexpr size_t kHistoryRowsPerDay = 5000;
constexpr int kSetupBatches = kMaintenanceEvery;  // through the first cycle
constexpr int kTimedBatches = 100;
constexpr int64_t kDay = 86400;
const int64_t kBaseDay = workload::TpchLineitemGenerator::kShipDateMin / kDay;

const char* const kReturnFlags[] = {"A", "N", "R"};

// The oracle's copy of one row.
struct ModelRow {
  int64_t shipdate;
  int64_t quantity;
  uint8_t flag;
  bool alive;
};

struct DeleteSpec {
  int64_t day;
  int64_t max_quantity;
};

// The seed-derived inputs of one epoch.
struct Inputs {
  std::vector<std::vector<format::Row>> history;  // one insert per day
  std::vector<std::vector<format::Row>> batches;  // one per loop step
  std::vector<DeleteSpec> deletes;                // indexed by batch
  uint64_t user_bytes = 0;        // encoded size of every row of an epoch
  uint64_t timed_user_bytes = 0;  // ... of the rows of the timed batches
};

int FlagIndex(const format::Row& row) {
  const std::string& f = std::get<std::string>(row.fields[8]);
  return f == "A" ? 0 : f == "N" ? 1 : 2;
}

void Stamp(format::Row* row, int64_t shipdate) {
  int64_t ship = std::get<int64_t>(row->fields[5]);
  int64_t receipt = std::get<int64_t>(row->fields[6]);
  row->fields[5] = format::Value(shipdate);
  row->fields[6] = format::Value(shipdate + (receipt - ship));
}

Inputs MakeInputs(uint64_t seed) {
  Inputs in;
  workload::TpchOptions tpch;
  tpch.seed = DeriveSeed(seed, 1);
  workload::TpchLineitemGenerator gen(tpch);
  Random rng(DeriveSeed(seed, 2));
  for (int d = 0; d < kHistoryDays; ++d) {
    std::vector<format::Row> rows = gen.NextBatch(kHistoryRowsPerDay);
    for (size_t i = 0; i < rows.size(); ++i) {
      Stamp(&rows[i], (kBaseDay + d) * kDay +
                          static_cast<int64_t>(i * kDay / rows.size()));
    }
    in.history.push_back(std::move(rows));
  }
  const int batches = kSetupBatches + kTimedBatches;
  for (int b = 0; b < batches; ++b) {
    const int64_t hot = kBaseDay + kHistoryDays + b / kBatchesPerDay;
    std::vector<format::Row> rows = gen.NextBatch(kBatchRows);
    for (size_t i = 0; i < rows.size(); ++i) {
      const int64_t slot = (b % kBatchesPerDay) * kBatchRows + i;
      const int64_t sec = slot * kDay / (kBatchesPerDay * kBatchRows);
      Stamp(&rows[i], (i % 10 == 0 ? hot - 1 : hot) * kDay + sec);
    }
    in.batches.push_back(std::move(rows));
    // Deletes alternate between the previous day and the one before.
    const int64_t day = (b / kDeleteEvery) % 2 == 0 ? hot - 1 : hot - 2;
    in.deletes.push_back({day, 1 + static_cast<int64_t>(rng.Uniform(10))});
  }
  Bytes encoded;
  const format::Schema schema = workload::TpchLineitemGenerator::Schema();
  for (const auto& rows : in.history) {
    for (const format::Row& r : rows) format::EncodeRow(schema, r, &encoded);
  }
  for (int b = 0; b < batches; ++b) {
    if (b == kSetupBatches) in.timed_user_bytes = encoded.size();
    for (const format::Row& r : in.batches[b]) {
      format::EncodeRow(schema, r, &encoded);
    }
  }
  in.user_bytes = encoded.size();
  in.timed_user_bytes = in.user_bytes - in.timed_user_bytes;
  return in;
}

// Timings and counts of the timed window.
struct MixedSamples {
  Samples commit_ms, insert_ms, delete_ms, query_ms, query_sim_ms;
  Samples maintenance_ms, compact_ms;
  Samples traced_op_ms, untraced_op_ms;
  double write_s = 0;  // time inside Insert, Delete, compaction and
                       // maintenance
  Samples rows_per_s;  // one sample per epoch
  uint64_t rows_inserted = 0;
  uint64_t queries = 0;
  uint64_t compact_passes = 0;
  uint64_t bytes_rewritten = 0;
};

/// One deployment running the loop, with the oracle model of its rows.
class Lakehouse {
 public:
  Lakehouse(const Inputs& in, Outcome* out, Tracer* tracer)
      : in_(in), out_(out), tracer_(tracer) {
    table::TableOptions options;
    options.delete_mode = table::DeleteMode::kMergeOnRead;
    auto created = lake_.lakehouse().CreateTable(
        "events", workload::TpchLineitemGenerator::Schema(),
        table::PartitionSpec::Day("l_shipdate"), &options);
    out_->Op(created.status(), "CreateTable");
    if (created.ok()) table_ = *created;
  }

  core::StreamLake& lake() { return lake_; }
  bool ok() const { return table_ != nullptr; }

  void LoadHistory() {
    for (const auto& rows : in_.history) {
      out_->Op(table_->Insert(rows), "Insert history");
      AddToModel(rows);
    }
  }

  /// Loop step `b`; timings go to `s` when it is non-null.
  void Step(int b, MixedSamples* s) {
    const int64_t hot = kBaseDay + kHistoryDays + b / kBatchesPerDay;
    if (b > 0 && b % kBatchesPerDay == 0) CompactCold(hot, s);

    // Insert the batch.
    const std::vector<format::Row>& rows = in_.batches[b];
    tracer_->BeginOp(++op_n_);
    Status inserted =
        Timed("client.insert", "table.insert", s, &MixedSamples::insert_ms,
              /*commit=*/true, [&] { return table_->Insert(rows); });
    out_->Op(inserted, "Insert");
    if (inserted.ok()) {
      AddToModel(rows);
      if (s != nullptr) s->rows_inserted += rows.size();
    }
    dirty_.insert(hot);
    dirty_.insert(hot - 1);

    // Recent-window query over the hot and previous day.
    Select(hot, s);

    if (b % kDeleteEvery == kDeleteEvery / 2) Delete(in_.deletes[b], s);
    if (b % kMaintenanceEvery == kMaintenanceEvery - 1) Maintain(s);
  }

  /// Rows the model holds alive in `day`.
  uint64_t AliveIn(int64_t day) const {
    uint64_t n = 0;
    auto it = model_.find(day);
    if (it == model_.end()) return 0;
    for (const ModelRow& r : it->second) n += r.alive;
    return n;
  }

  uint64_t AliveTotal() const {
    uint64_t n = 0;
    for (const auto& [day, rows] : model_) n += AliveIn(day);
    return n;
  }

 private:
  // Run `call` with a root span `op` and a child span `layer`. When
  // timing, its wall time goes to `samples`, and to the commit latencies
  // too when `commit` is set.
  template <typename F>
  auto Timed(const char* op, const char* layer, MixedSamples* s,
             Samples MixedSamples::*samples, bool commit, F&& call)
      -> decltype(call()) {
    uint64_t t0 = WallNanos();
    auto result = [&] {
      Tracer::Span root(tracer_, op);
      Tracer::Span span(tracer_, layer);
      return call();
    }();
    const double ms = (WallNanos() - t0) / 1e6;
    if (s != nullptr) {
      if (commit) s->write_s += ms / 1e3;
      (s->*samples).Add(ms);
      if (commit) s->commit_ms.Add(ms);
      // The tracing overhead compares inserts only: the p50 of a mix of
      // operation kinds moves with the mix.
      if (samples == &MixedSamples::insert_ms) {
        (tracer_->active() ? s->traced_op_ms : s->untraced_op_ms).Add(ms);
      }
    }
    return result;
  }

  void AddToModel(const std::vector<format::Row>& rows) {
    for (const format::Row& r : rows) {
      int64_t ship = std::get<int64_t>(r.fields[5]);
      model_[ship / kDay].push_back(
          {ship, std::get<int64_t>(r.fields[2]),
           static_cast<uint8_t>(FlagIndex(r)), true});
    }
  }

  void Select(int64_t hot, MixedSamples* s) {
    query::QuerySpec spec;
    spec.where.Add(query::Predicate::Ge("l_shipdate",
                                        format::Value((hot - 1) * kDay)));
    spec.group_by = {"l_returnflag"};
    spec.aggregates = {query::AggregateSpec::CountStar("c"),
                       query::AggregateSpec::Sum("l_quantity", "q")};
    spec.order_by = "l_returnflag";
    tracer_->BeginOp(++op_n_);
    if (tracer_->active()) {
      // Catalog replay probe, outside the query's own timing.
      Tracer::Span span(tracer_, "table.catalog.live_files");
      out_->Op(table_->LiveFiles().status(), "LiveFiles probe");
    }
    table::SelectMetrics metrics;
    auto result = Timed("client.select", "table.select", s,
                        &MixedSamples::query_ms, /*commit=*/false,
                        [&] { return table_->Select(spec, {}, &metrics); });
    out_->Op(result.status(), "Select");
    if (s != nullptr) {
      s->query_sim_ms.Add(metrics.elapsed_ns / 1e6);
      s->queries += 1;
    }
    if (!result.ok()) return;
    // Oracle over the model's two recent days.
    int64_t count[3] = {0, 0, 0}, sum[3] = {0, 0, 0};
    for (int64_t day : {hot - 1, hot}) {
      auto it = model_.find(day);
      if (it == model_.end()) continue;
      for (const ModelRow& r : it->second) {
        if (!r.alive) continue;
        ++count[r.flag];
        sum[r.flag] += r.quantity;
      }
    }
    size_t row = 0;
    bool match = true;
    for (int f = 0; f < 3 && match; ++f) {
      if (count[f] == 0) continue;
      if (row >= result->rows.size()) {
        match = false;
        break;
      }
      const format::Row& got = result->rows[row++];
      match = got.fields.size() == 3 &&
              got.fields[0] == format::Value(std::string(kReturnFlags[f])) &&
              got.fields[1] == format::Value(count[f]) &&
              got.fields[2] == format::Value(static_cast<double>(sum[f]));
    }
    out_->Check(match && row == result->rows.size(),
                "recent-window select at day " + std::to_string(hot));
  }

  void Delete(const DeleteSpec& d, MixedSamples* s) {
    query::Conjunction where;
    where.Add(query::Predicate::Ge("l_shipdate", format::Value(d.day * kDay)));
    where.Add(
        query::Predicate::Lt("l_shipdate", format::Value((d.day + 1) * kDay)));
    where.Add(query::Predicate::Eq("l_returnflag",
                                   format::Value(std::string("R"))));
    where.Add(query::Predicate::Le("l_quantity", format::Value(d.max_quantity)));
    tracer_->BeginOp(++op_n_);
    auto deleted =
        Timed("client.delete", "table.delete", s, &MixedSamples::delete_ms,
              /*commit=*/true, [&] { return table_->Delete(where); });
    out_->Op(deleted.status(), "Delete");
    if (!deleted.ok()) return;
    uint64_t expected = 0;
    for (ModelRow& r : model_[d.day]) {
      if (r.alive && r.flag == 2 && r.quantity <= d.max_quantity) {
        r.alive = false;
        ++expected;
      }
    }
    dirty_.insert(d.day);
    out_->Check(*deleted == expected,
                "MOR delete removed " + std::to_string(*deleted) + " rows, " +
                    std::to_string(expected) + " expected");
  }

  // Compact every dirty partition that has gone cold (older than the
  // previous day), then check its visible row count against the model.
  void CompactCold(int64_t hot, MixedSamples* s) {
    tracer_->BeginOp(++op_n_);
    uint64_t t0 = WallNanos();
    std::vector<int64_t> compacted;
    {
      Tracer::Span root(tracer_, "client.compact");
      for (auto it = dirty_.begin(); it != dirty_.end();) {
        if (*it >= hot - 1) break;
        const std::string partition = "day=" + std::to_string(*it);
        auto result = [&] {
          Tracer::Span span(tracer_, "table.compact");
          return table_->CompactPartition(partition);
        }();
        out_->Op(result.status(), "CompactPartition " + partition);
        if (result.ok() && s != nullptr) {
          s->bytes_rewritten += result->bytes_rewritten;
        }
        compacted.push_back(*it);
        it = dirty_.erase(it);
      }
    }
    const double ms = (WallNanos() - t0) / 1e6;
    if (s != nullptr) {
      s->write_s += ms / 1e3;
      s->compact_ms.Add(ms);
      s->compact_passes += 1;
      pending_maintenance_ms_ += ms;
    }
    // Compaction must not change what readers see.
    for (int64_t day : compacted) {
      query::QuerySpec count;
      count.where.Add(
          query::Predicate::Ge("l_shipdate", format::Value(day * kDay)));
      count.where.Add(
          query::Predicate::Lt("l_shipdate", format::Value((day + 1) * kDay)));
      count.aggregates = {query::AggregateSpec::CountStar("c")};
      auto result = table_->Select(count);
      out_->Op(result.status(), "count after compaction");
      if (!result.ok()) continue;
      int64_t rows = result->rows.empty()
                         ? 0
                         : std::get<int64_t>(result->rows[0].fields[0]);
      out_->Check(static_cast<uint64_t>(rows) == AliveIn(day),
                  "compacted day " + std::to_string(day) + " shows " +
                      std::to_string(rows) + " rows, " +
                      std::to_string(AliveIn(day)) + " expected");
    }
  }

  void Maintain(MixedSamples* s) {
    tracer_->BeginOp(++op_n_);
    uint64_t t0 = WallNanos();
    {
      Tracer::Span root(tracer_, "client.maintenance");
      {
        Tracer::Span span(tracer_, "table.rewrite_manifest");
        out_->Op(table_->RewriteManifest().status(), "RewriteManifest");
      }
      {
        Tracer::Span span(tracer_, "table.expire_snapshots");
        out_->Op(table_->ExpireSnapshots(INT64_MAX), "ExpireSnapshots");
      }
      Tracer::Span span(tracer_, "core.background_work");
      out_->Op(lake_.RunBackgroundWork(), "RunBackgroundWork");
    }
    const double ms = (WallNanos() - t0) / 1e6;
    if (s != nullptr) {
      s->write_s += ms / 1e3;
      // A maintenance sample is one cycle plus the compaction passes
      // since the previous cycle.
      s->maintenance_ms.Add(ms + pending_maintenance_ms_);
      pending_maintenance_ms_ = 0;
    }
  }

  const Inputs& in_;
  Outcome* out_;
  Tracer* tracer_;
  core::StreamLake lake_;
  table::Table* table_ = nullptr;
  std::map<int64_t, std::vector<ModelRow>> model_;
  std::set<int64_t> dirty_;  // days written since their last compaction
  uint64_t op_n_ = 0;
  double pending_maintenance_ms_ = 0;
};

}  // namespace

Outcome RunLakehouseMixed(const RunOptions& options, Tracer* tracer) {
  Outcome out;
  Inputs in;
  MixedSamples s;
  LayerWindow window;
  double stored_bytes = 0, stored_user_bytes = 0;
  double file_bytes = 0, file_rows = 0;
  uint64_t max_chain = 0;

  for (int epoch = 0; MoreEpochs(epoch, window.wall_s, options.seconds);
       ++epoch) {
    if (epoch % 2 == 0) {
      in = MakeInputs(DeriveSeed(options.seed, 100 + InputSetOf(epoch)));
    }
    // ---- set-up: deployment, history, loop through the first cycle ----
    const EpochStart start = EpochStart::Take();
    uint64_t setup_start = WallNanos();
    Lakehouse lh(in, &out, tracer);
    if (!lh.ok()) break;
    lh.LoadHistory();
    for (int b = 0; b < kSetupBatches; ++b) lh.Step(b, nullptr);
    out.setup_s.Add((WallNanos() - setup_start) / 1e9);

    // ---- timed window ----
    window.Begin(lh.lake());
    const double write_before = s.write_s;
    const uint64_t rows_before = s.rows_inserted;
    uint64_t commits0 = DeploymentProbe::Take(lh.lake()).commits;
    for (int b = kSetupBatches; b < kSetupBatches + kTimedBatches; ++b) {
      lh.Step(b, &s);
    }
    window.End(lh.lake());
    window.user_bytes += in.timed_user_bytes;
    s.rows_per_s.Add((s.rows_inserted - rows_before) /
                     (s.write_s - write_before));
    max_chain = std::max<uint64_t>(
        max_chain, DeploymentProbe::Take(lh.lake()).commits - commits0);

    // ---- checks and counts (untimed) ----
    auto table = lh.lake().lakehouse().GetTable("events");
    uint64_t visible = 0;
    if (table.ok()) {
      query::QuerySpec all;
      all.aggregates = {query::AggregateSpec::CountStar("c")};
      auto count = (*table)->Select(all);
      out.Op(count.status(), "count(*)");
      if (count.ok() && count->rows.size() == 1) {
        visible = std::get<int64_t>(count->rows[0].fields[0]);
      }
      auto files = (*table)->LiveFiles();
      if (files.ok()) {
        for (const table::DataFileMeta& f : *files) {
          file_bytes += f.file_bytes;
          file_rows += f.record_count;
        }
      }
    }
    out.Check(visible == lh.AliveTotal(),
              "table shows " + std::to_string(visible) + " rows, model " +
                  std::to_string(lh.AliveTotal()));

    const Fingerprint fp =
        TakeFingerprint(lh.lake(), start, InputSetOf(epoch), in.user_bytes);
    out.fingerprints.push_back(fp);
    stored_bytes += fp.live_physical_bytes;
    stored_user_bytes += in.user_bytes;
  }
  const double bytes_stored = stored_bytes / stored_user_bytes;
  window.ops = s.insert_ms.count() + s.delete_ms.count() + s.queries +
               s.compact_passes + s.maintenance_ms.count();
  window.queries = s.queries;

  // Rows per second of the write path, median over epochs. The parallel
  // Select is left out: its fan-out makes it the most sensitive to machine
  // noise, and its latency is reported on its own.
  const double rows_per_s = s.rows_per_s.Quantile(0.5);
  out.end_to_end = {
      {"op_p50_ms", {s.commit_ms.Quantile(0.5), "ms"}},
      {"sim_ms_per_op", {s.query_sim_ms.Mean(), "ms"}},
      {"cpu_ms_per_op", {window.cpu_s * 1e3 / window.ops, "ms"}},
      {"bytes_stored_per_user_byte", {bytes_stored, "B/B"}},
  };
  out.named = {
      {"commit_p50_ms", {s.commit_ms.Quantile(0.5), "ms"}},
      {"commit_p99_ms", P99(s.commit_ms)},
      {"query_p50_ms", {s.query_ms.Quantile(0.5), "ms"}},
      {"query_p99_ms", P99(s.query_ms)},
      {"maintenance_p50_ms", {s.maintenance_ms.Quantile(0.5), "ms"}},
      {"query_sim_p50_ms", {s.query_sim_ms.Quantile(0.5), "ms"}},
      {"query_sim_mean_ms", {s.query_sim_ms.Mean(), "ms"}},
      {"rows_ingested_per_s", {rows_per_s, "1/s"}},
      {"bytes_stored_per_user_byte", {bytes_stored, "B/B"}},
  };
  out.notes = {
      {"samples", "commit=" + std::to_string(s.commit_ms.count()) +
                      " query=" + std::to_string(s.query_ms.count()) +
                      " maintenance=" +
                      std::to_string(s.maintenance_ms.count())},
      {"epoch", std::to_string(kSetupBatches) + " set-up + " +
                    std::to_string(kTimedBatches) + " timed batches of " +
                    std::to_string(kBatchRows) + " rows"},
      {"commits_per_timed_window", std::to_string(max_chain)},
  };

  if (tracer->enabled()) {
    FillPerLayer(window, *tracer, &out);
    SetLayer(&out, "table.file_bytes_per_row", file_bytes / file_rows);
    SetLayer(&out, "table.compact.bytes_rewritten",
             static_cast<double>(s.bytes_rewritten) /
                 std::max<uint64_t>(1, s.compact_passes));
    SetLayer(&out, "trace.overhead_pct",
             100.0 * (s.traced_op_ms.Quantile(0.5) /
                          s.untraced_op_ms.Quantile(0.5) -
                      1.0));
  }
  return out;
}

}  // namespace perfbench
