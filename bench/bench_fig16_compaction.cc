// Reproduces Fig. 16(a) and the block-utilization claim of Section VII-E:
// a TPC-H-based ingestion test bed where a compaction strategy runs while
// data streams into the lake, comparing
//   * None               — never compact (the baseline queries run against),
//   * Default-compaction — the static 30-second-interval strategy,
//   * Auto-compaction    — LakeBrain's DQN agent (trained first, like the
//                          paper's 3.5 h / 5000-query training phase).
// Reported per data volume: query-performance improvement over the
// no-compaction baseline. A second sweep varies ingestion speed and
// reports average block utilization ("approximately 50% higher ... on
// average during system operation").
//
// Every figure is simulated time or a deterministic count, so
// --json_out=PATH (bench_report.h) reports the printed table's values
// exactly; CI gates them.

#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "bench_report.h"
#include "core/streamlake.h"
#include "lakebrain/compaction.h"
#include "workload/tpch.h"

using namespace streamlake;

namespace {

constexpr uint64_t kBlockSize = 64 << 10;
constexpr uint64_t kTargetFileBytes = 512 << 10;
constexpr int kIngestBatchRows = 120;
// Rows arrive with shipdates inside one month so the day-partitioned
// table has a bounded set of hot partitions.
constexpr int64_t kWindowStart = workload::TpchLineitemGenerator::kShipDateMin;

// Streaming ingestion is time-ordered: most records of a batch land in
// the current ("hot") day partition, late records in the previous
// ("warm") day. Cold partitions can be compacted without racing
// ingestion; compacting hot/warm ones conflicts.
format::Row ClampToWindow(format::Row row, int hot_day, Random* rng) {
  int day = rng->OneIn(10) ? (hot_day + 29) % 30 : hot_day;
  row.fields[5] = format::Value(kWindowStart +
                                static_cast<int64_t>(day) * 86400);
  return row;
}

enum class Strategy { kNone, kDefault, kAuto };

struct EnvResult {
  double avg_query_ms = 0;
  double avg_utilization = 0;
  uint64_t compactions = 0;
  uint64_t conflicts = 0;
};

EnvResult RunEnvironment(Strategy strategy, uint64_t total_rows,
                         double rows_per_sec,
                         lakebrain::AutoCompactionAgent* agent,
                         uint64_t seed, int decision_every = 5) {
  core::StreamLakeOptions lake_options;
  lake_options.ssd_capacity_per_disk = 8ULL << 30;
  lake_options.table_options.target_file_bytes = kTargetFileBytes;
  core::StreamLake lake(lake_options);
  auto created = lake.lakehouse().CreateTable(
      "lineitem", workload::TpchLineitemGenerator::Schema(),
      table::PartitionSpec::Day("l_shipdate"));
  if (!created.ok()) std::exit(1);
  table::Table* table = *created;
  lakebrain::DefaultCompactor default_compactor(table, 30.0);

  workload::TpchOptions gen_options;
  gen_options.seed = seed;
  workload::TpchLineitemGenerator gen(gen_options);
  workload::TpchQueryGenerator queries(seed * 31 + 7);
  Random rng(seed);

  EnvResult result;
  uint64_t ingested = 0;
  uint64_t query_count = 0;
  uint64_t util_samples = 0;
  uint64_t batch_index = 0;
  double total_query_ns = 0;
  double next_query_at = 5.0;  // simulated seconds

  while (ingested < total_rows) {
    // Ingest one batch and advance simulated time at the ingestion rate.
    // The hot day advances every 20 batches (time-ordered arrival).
    int hot_day = static_cast<int>(ingested / (kIngestBatchRows * 20)) % 30;
    std::string hot_partition =
        "day=" + std::to_string((kWindowStart + hot_day * 86400) / 86400);
    std::vector<format::Row> batch;
    for (int i = 0; i < kIngestBatchRows; ++i) {
      batch.push_back(ClampToWindow(gen.NextRow(), hot_day, &rng));
    }
    uint64_t plan_snapshot = (*table->Info()).current_snapshot_id;
    if (!table->Insert(batch).ok()) std::exit(1);
    ingested += batch.size();
    lake.clock().AdvanceTo(lake.clock().NowNanos() +
                           static_cast<uint64_t>(kIngestBatchRows /
                                                 rows_per_sec * 1e9));

    // Strategy acts. Both strategies plan against the pre-ingest
    // snapshot: ingestion racing into the same partition conflicts, as
    // in production. The auto agent evaluates every few batches; the
    // default strategy ticks on its 30-second interval.
    ++batch_index;
    if (strategy == Strategy::kDefault) {
      auto run = default_compactor.MaybeRun(lake.clock().NowSeconds(),
                                            plan_snapshot);
      if (run.ok()) {
        result.compactions += run->partitions_compacted;
        result.conflicts += run->conflicts;
      }
    } else if (strategy == Strategy::kAuto &&
               batch_index % decision_every == 0) {
      auto files = *table->LiveFiles();
      std::set<std::string> partitions;
      for (const auto& f : files) partitions.insert(f.partition);
      lakebrain::GlobalFeatures global;
      global.target_file_bytes = kTargetFileBytes;
      global.ingestion_files_per_sec = rows_per_sec / kIngestBatchRows;
      global.concurrent_queries = 1;
      std::string warm_partition =
          "day=" + std::to_string(
                       (kWindowStart + ((hot_day + 29) % 30) * 86400) / 86400);
      for (const std::string& partition : partitions) {
        double access = partition == hot_partition ? 1.0
                        : partition == warm_partition ? 0.5
                                                      : 0.05;
        auto decision =
            agent->Step(table, partition, global, access, plan_snapshot);
        if (!decision.ok()) std::exit(1);
        if (decision->succeeded) ++result.compactions;
        if (decision->conflicted) ++result.conflicts;
      }
    }

    // Utilization sampled continuously "during system operation".
    {
      std::vector<uint64_t> sizes;
      // Materialize before iterating: a range-for over *temporary-Result
      // dangles (the Result dies before the loop body runs).
      auto live = table->LiveFiles();
      SL_CHECK_OK(live);
      for (const auto& f : *live) sizes.push_back(f.file_bytes);
      result.avg_utilization += lakebrain::BlockUtilization(sizes, kBlockSize);
      ++util_samples;
    }
    // Periodic analytics over the growing table.
    if (lake.clock().NowSeconds() >= next_query_at) {
      next_query_at += 5.0;
      query::QuerySpec spec = queries.NextQuery();
      table::SelectMetrics metrics;
      auto r = table->Select(spec, {}, &metrics);
      if (r.ok()) {
        total_query_ns += metrics.elapsed_ns;
        ++query_count;
      }
    }
  }
  if (query_count > 0) result.avg_query_ms = total_query_ns / query_count / 1e6;
  if (util_samples > 0) result.avg_utilization /= util_samples;
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchReport report("fig16_compaction", &argc, argv);
  // ---- Train the RL agent (the paper's 3.5 h training phase) ----
  lakebrain::AutoCompactionAgent::Options agent_options;
  agent_options.block_size = kBlockSize;
  agent_options.training = true;
  agent_options.dqn.epsilon_decay_steps = 3000;
  lakebrain::AutoCompactionAgent agent(agent_options);
  std::printf("training the auto-compaction DQN");
  std::fflush(stdout);
  for (int episode = 0; episode < 6; ++episode) {
    RunEnvironment(Strategy::kAuto, 24000,
                   /*rows_per_sec=*/150 * (episode + 1), &agent,
                   /*seed=*/100 + episode, /*decision_every=*/1);
    std::printf(".");
    std::fflush(stdout);
  }
  agent.set_training(false);
  std::printf(" done (%llu transitions)\n\n",
              static_cast<unsigned long long>(agent.agent().replay_size()));

  // ---- Fig. 16(a): query improvement vs data volume ----
  std::printf("Fig. 16(a): query performance improvement over the "
              "no-compaction baseline\n");
  std::printf("(data volumes 24..90 GB scaled to rows)\n\n");
  std::printf("%12s %14s %16s %16s %12s\n", "rows", "none (ms)",
              "default (+%)", "auto (+%)", "auto wins");
  for (uint64_t rows : {8000, 16000, 24000, 32000}) {
    EnvResult none = RunEnvironment(Strategy::kNone, rows, 400, nullptr, 7);
    EnvResult def = RunEnvironment(Strategy::kDefault, rows, 400, nullptr, 7);
    EnvResult autoc = RunEnvironment(Strategy::kAuto, rows, 400, &agent, 7);
    double def_gain = 100.0 * (none.avg_query_ms - def.avg_query_ms) /
                      none.avg_query_ms;
    double auto_gain = 100.0 * (none.avg_query_ms - autoc.avg_query_ms) /
                       none.avg_query_ms;
    std::printf("%12llu %14.2f %15.1f%% %15.1f%% %12s\n",
                static_cast<unsigned long long>(rows), none.avg_query_ms,
                def_gain, auto_gain, auto_gain >= def_gain ? "yes" : "no");
    const std::string r = "r" + std::to_string(rows) + ".";
    report.Add(r + "none_query_ms", none.avg_query_ms);
    report.Add(r + "default_gain_pct", def_gain);
    report.Add(r + "auto_gain_pct", auto_gain);
    report.Add(r + "auto_wins", auto_gain >= def_gain ? 1 : 0);
  }

  // ---- Block utilization vs ingestion speed ----
  std::printf("\nBlock utilization vs ingestion speed (auto vs default)\n\n");
  std::printf("%16s %12s %12s %14s %18s\n", "rows/sec", "default", "auto",
              "auto/default", "auto conflicts");
  for (double rate : {100.0, 200.0, 400.0, 800.0}) {
    EnvResult def = RunEnvironment(Strategy::kDefault, 16000, rate, nullptr, 9);
    EnvResult autoc = RunEnvironment(Strategy::kAuto, 16000, rate, &agent, 9);
    std::printf("%16.0f %12.3f %12.3f %13.2fx %18llu\n", rate,
                def.avg_utilization, autoc.avg_utilization,
                autoc.avg_utilization / def.avg_utilization,
                static_cast<unsigned long long>(autoc.conflicts));
    const std::string r =
        "rate" + std::to_string(static_cast<int>(rate)) + ".";
    report.Add(r + "default_utilization", def.avg_utilization);
    report.Add(r + "auto_utilization", autoc.avg_utilization);
    report.Add(r + "auto_over_default",
               autoc.avg_utilization / def.avg_utilization);
    report.Add(r + "auto_conflicts", static_cast<double>(autoc.conflicts));
  }
  return report.WriteIfRequested() ? 0 : 1;
}
