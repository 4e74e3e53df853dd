#ifndef STREAMLAKE_LAKEBRAIN_PARTITION_ADVISOR_H_
#define STREAMLAKE_LAKEBRAIN_PARTITION_ADVISOR_H_

#include "lakebrain/qdtree.h"
#include "table/lakehouse.h"

namespace streamlake::lakebrain {

/// \brief End-to-end predicate-aware repartitioning (Section VI-B applied
/// to a live table): sample the table, train the SPN, build the QD-tree
/// from the observed query workload, and materialize a repartitioned copy
/// whose files follow the tree's leaves — so ordinary file-stats pruning
/// realizes the tree's skipping.
class PartitionAdvisor {
 public:
  struct Options {
    /// Fraction of rows sampled for SPN training (paper: 3%).
    double sample_fraction = 0.03;
    SpnOptions spn;
    QdTreeOptions tree;
    uint64_t seed = 97;
  };

  explicit PartitionAdvisor(Options options);

  struct Plan {
    SumProductNetwork estimator;
    QdTree tree;
    uint64_t table_rows = 0;
  };

  /// Learn a partitioning plan for `table` from `workload` (the pushdown
  /// predicate conjunctions of the observed queries).
  Result<Plan> Advise(table::Table* table,
                      const std::vector<query::Conjunction>& workload);

  struct RepartitionStats {
    uint64_t rows_moved = 0;
    size_t partitions = 0;
  };

  /// Materialize `plan` into a NEW table `target_name` (created in
  /// `lakehouse`) whose rows are grouped by the tree's leaves. The source
  /// table is left untouched (cut over readers when satisfied).
  Result<RepartitionStats> Repartition(table::LakehouseService* lakehouse,
                                       table::Table* source,
                                       const std::string& target_name,
                                       const Plan& plan);

 private:
  Options options_;
};

}  // namespace streamlake::lakebrain

#endif  // STREAMLAKE_LAKEBRAIN_PARTITION_ADVISOR_H_
