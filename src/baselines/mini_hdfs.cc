#include "baselines/mini_hdfs.h"

#include <algorithm>

namespace streamlake::baselines {

MiniHdfs::MiniHdfs(storage::StoragePool* pool) : MiniHdfs(pool, Options()) {}

MiniHdfs::MiniHdfs(storage::StoragePool* pool, Options options)
    : pool_(pool), options_(options) {}

Status MiniHdfs::WriteFile(const std::string& path, ByteView data) {
  Inode inode;
  inode.size = data.size();
  uint64_t pos = 0;
  do {
    uint64_t len = std::min<uint64_t>(options_.block_size, data.size() - pos);
    Block block;
    block.size = len;
    // HDFS allocates per-replica extents on distinct nodes.
    SL_ASSIGN_OR_RETURN(block.replicas,
                        pool_->AllocateSpread(options_.replication,
                                              std::max<uint64_t>(len, 1)));
    SL_RETURN_NOT_OK(
        storage::WriteReplicas(block.replicas, 0, data.subview(pos, len)));
    inode.blocks.push_back(std::move(block));
    pos += len;
  } while (pos < data.size());

  MutexLock lock(&mu_);
  auto it = namespace_.find(path);
  if (it != namespace_.end()) FreeBlocks(it->second);
  namespace_[path] = std::move(inode);
  return Status::OK();
}

void MiniHdfs::FreeBlocks(const Inode& inode) {
  for (const Block& block : inode.blocks) pool_->FreeExtents(block.replicas);
}

Result<Bytes> MiniHdfs::ReadFile(const std::string& path) const {
  std::vector<Block> blocks;
  uint64_t size = 0;
  {
    MutexLock lock(&mu_);
    auto it = namespace_.find(path);
    if (it == namespace_.end()) return Status::NotFound(path);
    blocks = it->second.blocks;
    size = it->second.size;
  }
  Bytes out;
  out.reserve(size);
  for (const Block& block : blocks) {
    SL_ASSIGN_OR_RETURN(Bytes data,
                        storage::ReadReplica(block.replicas, 0, block.size));
    AppendBytes(&out, ByteView(data));
  }
  return out;
}

Status MiniHdfs::DeleteFile(const std::string& path) {
  MutexLock lock(&mu_);
  auto it = namespace_.find(path);
  if (it == namespace_.end()) return Status::NotFound(path);
  FreeBlocks(it->second);
  namespace_.erase(it);
  return Status::OK();
}

bool MiniHdfs::Exists(const std::string& path) const {
  MutexLock lock(&mu_);
  return namespace_.count(path) > 0;
}

Result<uint64_t> MiniHdfs::FileSize(const std::string& path) const {
  MutexLock lock(&mu_);
  auto it = namespace_.find(path);
  if (it == namespace_.end()) return Status::NotFound(path);
  return it->second.size;
}

std::vector<std::string> MiniHdfs::List(const std::string& prefix) const {
  MutexLock lock(&mu_);
  std::vector<std::string> out;
  for (auto it = namespace_.lower_bound(prefix); it != namespace_.end(); ++it) {
    if (it->first.compare(0, prefix.size(), prefix) != 0) break;
    out.push_back(it->first);
  }
  return out;
}

uint64_t MiniHdfs::TotalLogicalBytes() const {
  MutexLock lock(&mu_);
  uint64_t total = 0;
  for (const auto& [path, inode] : namespace_) total += inode.size;
  return total;
}

uint64_t MiniHdfs::TotalPhysicalBytes() const {
  MutexLock lock(&mu_);
  uint64_t total = 0;
  for (const auto& [path, inode] : namespace_) {
    total += inode.size * options_.replication;
  }
  return total;
}

}  // namespace streamlake::baselines
