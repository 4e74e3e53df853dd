#include "lakebrain/partition_advisor.h"

#include "common/random.h"

namespace streamlake::lakebrain {

PartitionAdvisor::PartitionAdvisor(Options options) : options_(options) {}

Result<PartitionAdvisor::Plan> PartitionAdvisor::Advise(
    table::Table* table, const std::vector<query::Conjunction>& workload) {
  SL_ASSIGN_OR_RETURN(table::TableInfo info, table->Info());
  // Full scan (advisors run offline); sample for SPN training.
  query::QuerySpec all;
  SL_ASSIGN_OR_RETURN(query::QueryResult rows, table->Select(all));
  if (rows.rows.empty()) {
    return Status::InvalidArgument("cannot advise on an empty table");
  }
  Random rng(options_.seed);
  std::vector<format::Row> sample;
  for (const format::Row& row : rows.rows) {
    if (rng.NextDouble() < options_.sample_fraction) sample.push_back(row);
  }
  if (sample.size() < 16) {
    // Tiny tables: train on everything.
    sample = rows.rows;
  }
  SpnOptions spn_options = options_.spn;
  spn_options.seed = options_.seed;
  if (spn_options.priors.empty()) {
    // Best-effort: seed the SPN's zero-smoothing priors from the live
    // files' aggregated footer stats (ndv / null_count per column).
    auto footer_stats = table->AggregateFooterStats();
    if (footer_stats.ok()) {
      for (const table::ColumnFooterStats& s : *footer_stats) {
        ColumnPrior prior;
        prior.ndv = s.ndv;
        prior.null_fraction =
            s.rows > 0 ? static_cast<double>(s.null_count) / s.rows : 0.0;
        spn_options.priors.push_back(prior);
      }
    }
  }
  SL_ASSIGN_OR_RETURN(SumProductNetwork spn,
                      SumProductNetwork::Train(info.schema, sample,
                                               spn_options));
  SL_ASSIGN_OR_RETURN(QdTree tree,
                      QdTree::Build(info.schema, workload, spn,
                                    rows.rows.size(), options_.tree));
  return Plan{std::move(spn), std::move(tree), rows.rows.size()};
}

Result<PartitionAdvisor::RepartitionStats> PartitionAdvisor::Repartition(
    table::LakehouseService* lakehouse, table::Table* source,
    const std::string& target_name, const Plan& plan) {
  SL_ASSIGN_OR_RETURN(table::TableInfo info, source->Info());
  query::QuerySpec all;
  SL_ASSIGN_OR_RETURN(query::QueryResult rows, source->Select(all));

  // Group rows by QD-tree leaf.
  std::vector<std::vector<format::Row>> by_leaf(plan.tree.num_leaves());
  for (format::Row& row : rows.rows) {
    by_leaf[plan.tree.AssignRow(row)].push_back(std::move(row));
  }

  SL_ASSIGN_OR_RETURN(table::Table * target,
                      lakehouse->CreateTable(target_name, info.schema,
                                             table::PartitionSpec::None()));
  RepartitionStats stats;
  // One insert (= one commit, own files) per leaf: the files' column
  // stats become the leaf's predicate ranges, so normal file skipping
  // realizes the tree's pruning.
  for (std::vector<format::Row>& leaf_rows : by_leaf) {
    if (leaf_rows.empty()) continue;
    SL_RETURN_NOT_OK(target->Insert(leaf_rows));
    stats.rows_moved += leaf_rows.size();
    ++stats.partitions;
  }
  return stats;
}

}  // namespace streamlake::lakebrain
