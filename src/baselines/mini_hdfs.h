#ifndef STREAMLAKE_BASELINES_MINI_HDFS_H_
#define STREAMLAKE_BASELINES_MINI_HDFS_H_

#include <map>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "storage/storage_pool.h"

namespace streamlake::baselines {

/// \brief Faithful mini-reimplementation of HDFS semantics, the batch
/// baseline of Section VII: a namenode mapping paths to 128 MB blocks,
/// each block replicated 3x across datanodes ("improving the disk
/// utilization rate from 33% to 91%" compares against exactly this).
///
/// Runs on the same simulated device substrate as StreamLake, so storage
/// and time comparisons are apples-to-apples.
class MiniHdfs {
 public:
  struct Options {
    uint64_t block_size = 128ULL << 20;
    int replication = 3;
  };

  explicit MiniHdfs(storage::StoragePool* pool);
  MiniHdfs(storage::StoragePool* pool, Options options);

  /// Create or replace a file.
  Status WriteFile(const std::string& path, ByteView data);
  Result<Bytes> ReadFile(const std::string& path) const;
  Status DeleteFile(const std::string& path);
  bool Exists(const std::string& path) const;
  Result<uint64_t> FileSize(const std::string& path) const;
  std::vector<std::string> List(const std::string& prefix) const;

  /// Logical bytes stored (before replication).
  uint64_t TotalLogicalBytes() const;
  /// Physical bytes allocated (logical x replication, rounded to blocks'
  /// actual sizes — HDFS allocates by need, not whole blocks).
  uint64_t TotalPhysicalBytes() const;

  const Options& options() const { return options_; }

 private:
  struct Block {
    std::vector<storage::Extent> replicas;
    uint64_t size = 0;
  };
  struct Inode {
    std::vector<Block> blocks;
    uint64_t size = 0;
  };

  /// Return every replica of `inode`'s blocks to the pool.
  void FreeBlocks(const Inode& inode);

  storage::StoragePool* pool_;
  Options options_;
  mutable Mutex mu_{LockRank::kMiniHdfs, "baselines.mini_hdfs"};
  std::map<std::string, Inode> namespace_ GUARDED_BY(mu_);  // the namenode
};

}  // namespace streamlake::baselines

#endif  // STREAMLAKE_BASELINES_MINI_HDFS_H_
