// LakeBrain, the storage-side optimizer (Section VI), hands-on:
//   1. train the DQN auto-compaction agent on a live ingestion workload
//      and watch it learn to compact cold fragmented partitions while
//      skipping the ingestion-hot one;
//   2. learn an SPN cardinality estimator from a data sample, build a
//      predicate-aware QD-tree partitioning from a query workload, and
//      repartition the table by it.
//
// Run: ./build/examples/lakebrain_demo

#include <cstdio>
#include <set>

#include "core/streamlake.h"
#include "lakebrain/compaction.h"
#include "lakebrain/partition_advisor.h"
#include "workload/tpch.h"

using namespace streamlake;

int main() {
  // ---------------- Part 1: RL auto-compaction ----------------
  std::printf("=== LakeBrain auto-compaction ===\n");
  lakebrain::AutoCompactionAgent::Options agent_options;
  agent_options.block_size = 32 << 10;
  agent_options.dqn.epsilon_decay_steps = 1500;
  lakebrain::AutoCompactionAgent agent(agent_options);

  lakebrain::GlobalFeatures global;
  global.target_file_bytes = 256 << 10;
  global.ingestion_files_per_sec = 2;

  uint64_t compactions = 0, conflicts = 0, skips = 0;
  table::Table* table = nullptr;
  // Episodic training: each episode is a fresh table ingesting a stream
  // (fragmentation keeps recurring, so the agent sees the whole state
  // space, like the paper's 3.5-hour training workload).
  for (int episode = 0; episode < 5; ++episode) {
    core::StreamLakeOptions options;
    options.table_options.target_file_bytes = 256 << 10;
    auto* lake = new core::StreamLake(options);  // leak: demo-lifetime only
    auto created = lake->lakehouse().CreateTable(
        "events", workload::TpchLineitemGenerator::Schema(),
        table::PartitionSpec::Day("l_shipdate"));
    if (!created.ok()) return 1;
    table = *created;
    workload::TpchLineitemGenerator gen(
        workload::TpchOptions{.seed = 7 + static_cast<uint64_t>(episode)});
    Random analytics_rng(9 + episode);
    Random rng(episode + 1);

    for (int round = 0; round < 120; ++round) {
      // Time-ordered ingestion: the hot day advances every 15 rounds.
      int hot_day = (round / 15) % 8;
      std::vector<format::Row> batch;
      for (int i = 0; i < 60; ++i) {
        format::Row row = gen.NextRow();
        int day = rng.OneIn(10) ? (hot_day + 7) % 8 : hot_day;
        row.fields[5] =
            format::Value(workload::TpchLineitemGenerator::kShipDateMin +
                          int64_t{day} * 86400);
        batch.push_back(std::move(row));
      }
      uint64_t plan = (*table->Info()).current_snapshot_id;
      if (!table->Insert(batch).ok()) return 1;

      auto files = *table->LiveFiles();
      std::set<std::string> partitions;
      for (const auto& f : files) partitions.insert(f.partition);
      std::string hot_partition =
          "day=" + std::to_string(
                       (workload::TpchLineitemGenerator::kShipDateMin +
                        int64_t{hot_day} * 86400) /
                       86400);
      for (const std::string& partition : partitions) {
        double access = partition == hot_partition ? 1.0 : 0.05;
        auto decision = agent.Step(table, partition, global, access, plan);
        if (!decision.ok()) return 1;
        if (decision->succeeded) ++compactions;
        if (decision->conflicted) ++conflicts;
        if (!decision->attempted) ++skips;
      }
      // Concurrent analytics (also feeds the table's access statistics).
      if (round % 25 == 24) {
        query::QuerySpec spec;
        spec.where.Add(query::Predicate::Le(
            "l_quantity",
            format::Value(static_cast<int64_t>(10 + analytics_rng.Uniform(40)))));
        spec.aggregates = {query::AggregateSpec::CountStar()};
        if (!table->Select(spec).ok()) return 1;
      }
    }
  }
  std::printf("training: %llu compactions, %llu conflicts, %llu skips "
              "(%zu replay transitions, epsilon %.2f)\n",
              static_cast<unsigned long long>(compactions),
              static_cast<unsigned long long>(conflicts),
              static_cast<unsigned long long>(skips),
              agent.agent().replay_size(), agent.agent().epsilon());

  // What did it learn? Q-values for a fragmented-cold vs hot partition.
  lakebrain::PartitionFeatures fragmented;
  fragmented.file_count = 25;
  fragmented.small_file_count = 25;
  fragmented.access_frequency = 0.05;
  fragmented.partition_utilization = 0.05;
  lakebrain::PartitionFeatures hot = fragmented;
  hot.access_frequency = 1.0;
  auto q_cold = agent.agent().QValues(
      lakebrain::BuildStateVector(global, fragmented));
  auto q_hot = agent.agent().QValues(lakebrain::BuildStateVector(global, hot));
  std::printf("learned policy: fragmented-cold partition -> %s "
              "(Q: skip %.3f, compact %.3f)\n",
              q_cold[1] > q_cold[0] ? "COMPACT" : "skip", q_cold[0], q_cold[1]);
  std::printf("               ingestion-hot partition  -> %s "
              "(Q: skip %.3f, compact %.3f)\n",
              q_hot[1] > q_hot[0] ? "COMPACT" : "skip", q_hot[0], q_hot[1]);
  std::printf("(the hot partition's compaction penalty — conflict risk — is "
              "what the agent learned to avoid)\n");
  std::printf("partition access counts observed by the table: %zu partitions "
              "tracked\n\n",
              table->PartitionAccessCounts().size());

  // ---------------- Part 2: SPN + QD-tree partitioning ----------------
  // The partition advisor samples the table to train an SPN cardinality
  // estimator, builds a QD-tree from the workload's predicates, and
  // rewrites the rows into a new table grouped by the tree's leaves.
  std::printf("=== LakeBrain predicate-aware partitioning ===\n");
  core::StreamLake lake;
  workload::TpchOptions tpch;
  tpch.rows_per_sf = 20000;
  workload::TpchLineitemGenerator lineitem(tpch);
  auto source = lake.lakehouse().CreateTable(
      "lineitem", workload::TpchLineitemGenerator::Schema(),
      table::PartitionSpec::None());
  if (!source.ok() || !(*source)->Insert(lineitem.GenerateAll()).ok()) {
    return 1;
  }

  workload::TpchQueryGenerator queries(3);
  std::vector<query::Conjunction> workload_predicates;
  for (const auto& spec : queries.Generate(50)) {
    workload_predicates.push_back(spec.where);
  }
  lakebrain::PartitionAdvisor::Options advisor_options;
  advisor_options.sample_fraction = 0.05;
  advisor_options.tree.min_partition_rows = 500;
  advisor_options.tree.max_leaves = 24;
  lakebrain::PartitionAdvisor advisor(advisor_options);
  auto plan = advisor.Advise(*source, workload_predicates);
  if (!plan.ok()) return 1;
  query::Conjunction probe{
      query::Predicate::Le("l_quantity", format::Value(int64_t{10}))};
  std::printf("SPN (%zu nodes): P(l_quantity <= 10) ~= %.3f (truth 0.20)\n",
              plan->estimator.num_nodes(),
              plan->estimator.EstimateSelectivity(probe));
  std::printf("QD-tree: %zu partitions built from 50 workload queries\n",
              plan->tree.num_leaves());
  auto moved =
      advisor.Repartition(&lake.lakehouse(), *source, "lineitem_qd", *plan);
  auto target = lake.lakehouse().GetTable("lineitem_qd");
  if (!moved.ok() || !target.ok()) return 1;
  std::printf("repartitioned %llu rows into %zu partitions\n",
              static_cast<unsigned long long>(moved->rows_moved),
              moved->partitions);
  // How much does a fresh query skip, before and after?
  query::QuerySpec fresh = queries.NextQuery();
  std::printf("query '%s' reads %zu of %zu partitions\n",
              fresh.where.ToString().c_str(),
              plan->tree.MatchingLeaves(fresh.where).size(),
              plan->tree.num_leaves());
  table::SelectMetrics before, after;
  auto before_result = (*source)->Select(fresh, {}, &before);
  auto after_result = (*target)->Select(fresh, {}, &after);
  if (!before_result.ok() || !after_result.ok() ||
      before_result->rows != after_result->rows) {
    return 1;
  }
  auto skipped = [](const table::SelectMetrics& m) {
    const uint64_t total = m.data_bytes_skipped + m.data_bytes_read;
    return total == 0 ? 0.0 : 100.0 * m.data_bytes_skipped / total;
  };
  std::printf("  same answer; %.0f%% of bytes skipped before, %.0f%% after\n",
              skipped(before), skipped(after));
  return 0;
}
