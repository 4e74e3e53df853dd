#include "lakebrain/compaction.h"

#include <cmath>
#include <set>

#include "common/metrics.h"

namespace streamlake::lakebrain {

double BlockUtilization(const std::vector<uint64_t>& file_sizes,
                        uint64_t block_size) {
  if (file_sizes.empty()) return 1.0;
  double used = 0;
  double allocated = 0;
  for (uint64_t f : file_sizes) {
    if (f == 0) continue;
    used += static_cast<double>(f);
    allocated += static_cast<double>(block_size) *
                 ((f + block_size - 1) / block_size);
  }
  return allocated == 0 ? 1.0 : used / allocated;
}

std::vector<double> BuildStateVector(const GlobalFeatures& global,
                                     const PartitionFeatures& partition) {
  // log1p-normalize counts/rates so the network sees O(1) inputs.
  auto squash = [](double v) { return std::log1p(std::max(0.0, v)); };
  return {
      squash(global.target_file_bytes / (1 << 20)),
      squash(global.ingestion_files_per_sec),
      squash(global.concurrent_queries),
      global.global_block_utilization,
      squash(partition.file_count),
      squash(partition.small_file_count),
      squash(partition.access_frequency),
      partition.partition_utilization,
  };
}

std::vector<uint64_t> PartitionFileSizes(const table::LiveFileList& files,
                                         const std::string& partition) {
  std::vector<uint64_t> sizes;
  for (const table::DataFileMeta& f : files) {
    if (f.partition == partition) sizes.push_back(f.file_bytes);
  }
  return sizes;
}

PartitionFeatures ComputePartitionFeatures(
    const std::vector<uint64_t>& file_sizes, uint64_t block_size,
    double access_frequency) {
  PartitionFeatures features;
  features.access_frequency = access_frequency;
  for (uint64_t size : file_sizes) {
    features.file_count += 1;
    if (size < block_size) features.small_file_count += 1;
  }
  features.partition_utilization = BlockUtilization(file_sizes, block_size);
  return features;
}

double AutoCompactionAgent::ExpectedImprovement(
    const std::vector<uint64_t>& file_sizes, uint64_t block_size,
    uint64_t target_file_bytes) {
  uint64_t small_bytes = 0;
  std::vector<uint64_t> after;
  for (uint64_t size : file_sizes) {
    if (size < target_file_bytes) {
      small_bytes += size;
    } else {
      after.push_back(size);
    }
  }
  // Binpack estimate: small files merge into ceil(total/target) files.
  while (small_bytes > 0) {
    uint64_t take = std::min<uint64_t>(small_bytes, target_file_bytes);
    after.push_back(take);
    small_bytes -= take;
  }
  return BlockUtilization(after, block_size) -
         BlockUtilization(file_sizes, block_size);
}

AutoCompactionAgent::AutoCompactionAgent(Options options)
    : options_(options), agent_(options.dqn) {}

Result<CompactionDecision> AutoCompactionAgent::Step(
    table::Table* table, const std::string& partition,
    const GlobalFeatures& global, double access_frequency,
    uint64_t base_snapshot_id) {
  SL_ASSIGN_OR_RETURN(auto files, table->LiveFiles());
  const std::vector<uint64_t> sizes = PartitionFileSizes(files, partition);
  PartitionFeatures features =
      ComputePartitionFeatures(sizes, options_.block_size, access_frequency);
  std::vector<double> state = BuildStateVector(global, features);

  static Counter* steps =
      MetricsRegistry::Global().GetCounter("lakebrain.compaction.steps");
  static Counter* attempts =
      MetricsRegistry::Global().GetCounter("lakebrain.compaction.attempts");
  static Counter* successes =
      MetricsRegistry::Global().GetCounter("lakebrain.compaction.successes");
  static Counter* conflicts =
      MetricsRegistry::Global().GetCounter("lakebrain.compaction.conflicts");
  static Counter* files_merged =
      MetricsRegistry::Global().GetCounter("lakebrain.compaction.files_merged");
  steps->Increment();

  int action = options_.training ? agent_.SelectAction(state)
                                 : agent_.GreedyAction(state);
  CompactionDecision decision;
  decision.utilization_before = features.partition_utilization;

  double expected =
      ExpectedImprovement(sizes, options_.block_size,
                          static_cast<uint64_t>(global.target_file_bytes));

  if (action == 1) {
    decision.attempted = true;
    attempts->Increment();
    auto result = table->CompactPartition(partition, base_snapshot_id);
    if (result.ok()) {
      decision.succeeded = true;
      successes->Increment();
      decision.files_merged = result->files_before;
      files_merged->Increment(result->files_before);
      SL_ASSIGN_OR_RETURN(auto new_files, table->LiveFiles());
      PartitionFeatures after =
          ComputePartitionFeatures(PartitionFileSizes(new_files, partition),
                                   options_.block_size, access_frequency);
      decision.utilization_after = after.partition_utilization;
      // Reward: the utilization improvement, minus the fixed cost of
      // running a compaction.
      decision.reward = (decision.utilization_after -
                         decision.utilization_before) -
                        options_.compaction_cost;
    } else if (result.status().IsConflict()) {
      decision.conflicted = true;
      conflicts->Increment();
      decision.utilization_after = decision.utilization_before;
      // "If it fails, the reward is the minus of (1 - the expected
      // improvement of the block utilization)."
      decision.reward = -(1.0 - expected);
    } else {
      return result.status();
    }
  } else {
    decision.utilization_after = decision.utilization_before;
    decision.reward = 0;
  }

  if (options_.training) {
    SL_ASSIGN_OR_RETURN(auto next_files, table->LiveFiles());
    PartitionFeatures next_features =
        ComputePartitionFeatures(PartitionFileSizes(next_files, partition),
                                 options_.block_size, access_frequency);
    std::vector<double> next_state = BuildStateVector(global, next_features);
    agent_.Observe(state, action, decision.reward, next_state, false);
    agent_.TrainStep();
  }
  return decision;
}

Result<DefaultCompactor::RunStats> DefaultCompactor::MaybeRun(
    double now_seconds, uint64_t base_snapshot_id) {
  RunStats stats;
  if (now_seconds - last_run_seconds_ < interval_seconds_) return stats;
  last_run_seconds_ = now_seconds;
  stats.ran = true;
  // The rule-based job plans once, then rewrites partition by partition;
  // ingestion landing after the plan conflicts.
  uint64_t base_snapshot = base_snapshot_id;
  if (base_snapshot == 0) {
    SL_ASSIGN_OR_RETURN(table::TableInfo info, table_->Info());
    base_snapshot = info.current_snapshot_id;
  }
  SL_ASSIGN_OR_RETURN(auto files, table_->LiveFiles());
  std::set<std::string> partitions;
  for (const table::DataFileMeta& f : files) partitions.insert(f.partition);
  for (const std::string& partition : partitions) {
    auto result = table_->CompactPartition(partition, base_snapshot);
    if (result.ok()) {
      if (result->files_before > result->files_after) {
        ++stats.partitions_compacted;
      }
    } else if (result.status().IsConflict()) {
      ++stats.conflicts;
    } else {
      return result.status();
    }
  }
  return stats;
}

}  // namespace streamlake::lakebrain
