#ifndef STREAMLAKE_LAKEBRAIN_COMPACTION_H_
#define STREAMLAKE_LAKEBRAIN_COMPACTION_H_

#include <map>
#include <string>

#include "lakebrain/dqn.h"
#include "table/table.h"

namespace streamlake::lakebrain {

/// Block utilization at one state (Section VI-A):
///   sum(f_i) / (K * sum(ceil(f_i / K)))
/// where f_i are file sizes and K the block size. Low utilization means
/// many blocks hold small-file tails.
double BlockUtilization(const std::vector<uint64_t>& file_sizes,
                        uint64_t block_size);

/// Features describing the entire storage system (one half of the DQN
/// state; Section VI-A lists "target file size, ingestion speed, query
/// patterns, global block utilization").
struct GlobalFeatures {
  double target_file_bytes = 4 * 1024 * 1024;
  double ingestion_files_per_sec = 0;
  double concurrent_queries = 0;
  double global_block_utilization = 1.0;
};

/// Per-partition features (the other half: "data access frequency, data
/// access ordering, block utilization of the partition").
struct PartitionFeatures {
  double file_count = 0;
  double small_file_count = 0;
  double access_frequency = 0;
  double partition_utilization = 1.0;
};

/// Concatenated, normalized DQN input.
std::vector<double> BuildStateVector(const GlobalFeatures& global,
                                     const PartitionFeatures& partition);

/// Byte sizes of `partition`'s live files, in path order.
std::vector<uint64_t> PartitionFileSizes(const table::LiveFileList& files,
                                         const std::string& partition);

/// Compute partition features from its live files' sizes.
PartitionFeatures ComputePartitionFeatures(
    const std::vector<uint64_t>& file_sizes, uint64_t block_size,
    double access_frequency);

struct CompactionDecision {
  bool attempted = false;   // the agent chose to compact
  bool succeeded = false;
  bool conflicted = false;  // commit conflict with concurrent ingestion
  double reward = 0;
  double utilization_before = 0;
  double utilization_after = 0;
  uint64_t files_merged = 0;
};

/// \brief The RL auto-compaction agent of Fig. 10: per partition, decide
/// compact-or-not from system+partition state, execute binpack compaction
/// through the table, and learn from the observed reward.
class AutoCompactionAgent {
 public:
  struct Options {
    uint64_t block_size = 1 << 20;
    /// Fixed resource cost charged against a successful compaction's
    /// utilization gain ("compaction consumes a relatively large amount
    /// of computing resources").
    double compaction_cost = 0.05;
    bool training = true;
    DqnOptions dqn;
  };

  explicit AutoCompactionAgent(Options options);

  /// Evaluate `partition` and act. `base_snapshot_id` is the snapshot the
  /// compaction plan is built on — the environment passes a stale base to
  /// model planning/commit races (0 = current head, no race).
  Result<CompactionDecision> Step(table::Table* table,
                                  const std::string& partition,
                                  const GlobalFeatures& global,
                                  double access_frequency = 0,
                                  uint64_t base_snapshot_id = 0);

  /// Estimated utilization gain of binpacking the partition's small files.
  /// `file_sizes` are the partition's live file sizes.
  static double ExpectedImprovement(const std::vector<uint64_t>& file_sizes,
                                    uint64_t block_size,
                                    uint64_t target_file_bytes);

  void set_training(bool training) { options_.training = training; }
  DqnAgent& agent() { return agent_; }

 private:
  Options options_;
  DqnAgent agent_;
};

/// \brief The rule-based baseline ("Default-compaction"): compact every
/// partition on a fixed interval (the paper's static 30-second strategy).
class DefaultCompactor {
 public:
  DefaultCompactor(table::Table* table, double interval_seconds)
      : table_(table), interval_seconds_(interval_seconds) {}

  /// Compact all partitions if the interval has elapsed. Returns how many
  /// partitions were compacted (conflicts counted separately).
  /// `base_snapshot_id` is the snapshot the job planned on (0 = plan at
  /// run start); ingestion landing after the plan conflicts, the failure
  /// mode Section VI-A describes for static strategies.
  struct RunStats {
    uint64_t partitions_compacted = 0;
    uint64_t conflicts = 0;
    bool ran = false;
  };
  Result<RunStats> MaybeRun(double now_seconds, uint64_t base_snapshot_id = 0);

 private:
  table::Table* table_;
  double interval_seconds_;
  double last_run_seconds_ = -1e18;
};

}  // namespace streamlake::lakebrain

#endif  // STREAMLAKE_LAKEBRAIN_COMPACTION_H_
