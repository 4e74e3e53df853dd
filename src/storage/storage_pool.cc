#include "storage/storage_pool.h"

#include <set>

namespace streamlake::storage {

Result<Bytes> ReadReplica(std::span<const Extent> replicas, uint64_t offset,
                          uint64_t length, uint64_t skip) {
  Status last = Status::IOError("no replicas");
  for (size_t i = 0; i < replicas.size(); ++i) {
    if (i < 64 && (skip >> i & 1) != 0) continue;
    const Extent& extent = replicas[i];
    auto data = extent.device->Read(extent.offset + offset, length);
    if (data.ok()) return data;
    last = data.status();
  }
  return last;
}

Status WriteReplicas(std::span<const Extent> replicas, uint64_t offset,
                     ByteView data) {
  for (const Extent& extent : replicas) {
    SL_RETURN_NOT_OK(extent.device->Write(extent.offset + offset, data));
  }
  return Status::OK();
}

StoragePool::StoragePool(std::string name, sim::MediaType media,
                         sim::SimClock* clock)
    : name_(std::move(name)), media_(media), clock_(clock) {
  auto& registry = MetricsRegistry::Global();
  const std::string prefix = "storage.pool." + name_ + ".";
  alloc_ops_ = registry.GetCounter(prefix + "alloc_ops");
  alloc_bytes_ = registry.GetCounter(prefix + "alloc_bytes");
  freed_bytes_ = registry.GetCounter(prefix + "freed_bytes");
  allocated_gauge_ = registry.GetGauge(prefix + "allocated_bytes");
  tier_read_bytes_ = registry.GetGauge(prefix + "device_read_bytes");
  tier_write_bytes_ = registry.GetGauge(prefix + "device_write_bytes");
}

uint32_t StoragePool::AddDevice(uint32_t node_id, uint64_t capacity_bytes) {
  MutexLock lock(&mu_);
  uint32_t id = static_cast<uint32_t>(devices_.size());
  devices_.push_back(std::make_unique<BlockDevice>(id, node_id, capacity_bytes,
                                                   media_, clock_));
  states_.emplace_back();
  return id;
}

void StoragePool::AddCluster(uint32_t nodes, uint32_t disks_per_node,
                             uint64_t capacity_per_disk) {
  for (uint32_t n = 0; n < nodes; ++n) {
    for (uint32_t d = 0; d < disks_per_node; ++d) {
      AddDevice(n, capacity_per_disk);
    }
  }
}

bool StoragePool::TryAllocate(size_t idx, uint64_t size, Extent* out) {
  DeviceState& state = states_[idx];
  BlockDevice* dev = devices_[idx].get();
  // First fit from the free list.
  for (auto it = state.free_list.begin(); it != state.free_list.end(); ++it) {
    if (it->second >= size) {
      out->device = dev;
      out->offset = it->first;
      out->size = size;
      if (it->second == size) {
        state.free_list.erase(it);
      } else {
        it->first += size;
        it->second -= size;
      }
      return true;
    }
  }
  if (state.next_offset + size <= dev->capacity()) {
    out->device = dev;
    out->offset = state.next_offset;
    out->size = size;
    state.next_offset += size;
    return true;
  }
  return false;
}

Result<std::vector<Extent>> StoragePool::AllocateExtents(int count,
                                                         uint64_t size,
                                                         bool distinct_nodes) {
  MutexLock lock(&mu_);
  if (devices_.empty()) return Status::ResourceExhausted("pool has no disks");
  std::vector<Extent> extents;
  std::set<uint32_t> used_nodes;
  std::set<uint32_t> used_devices;
  size_t start = rr_cursor_;
  rr_cursor_ = (rr_cursor_ + 1) % devices_.size();

  for (int e = 0; e < count; ++e) {
    bool placed = false;
    for (size_t probe = 0; probe < devices_.size(); ++probe) {
      size_t idx = (start + e + probe) % devices_.size();
      BlockDevice* dev = devices_[idx].get();
      if (dev->failed()) continue;  // never place data on a failed disk
      if (used_devices.count(dev->id())) continue;
      if (distinct_nodes && used_nodes.count(dev->node_id())) continue;
      Extent extent;
      if (TryAllocate(idx, size, &extent)) {
        used_devices.insert(dev->id());
        used_nodes.insert(dev->node_id());
        extents.push_back(extent);
        placed = true;
        break;
      }
    }
    if (!placed) {
      // Roll back partial allocation.
      for (const Extent& ext : extents) {
        states_[ext.device->id()].free_list.emplace_back(ext.offset, ext.size);
      }
      return Status::ResourceExhausted(
          "cannot place " + std::to_string(count) + " extents of " +
          std::to_string(size) + "B in pool " + name_);
    }
  }
  allocated_bytes_ += static_cast<uint64_t>(count) * size;
  alloc_ops_->Increment();
  alloc_bytes_->Increment(static_cast<uint64_t>(count) * size);
  allocated_gauge_->Set(static_cast<int64_t>(allocated_bytes_));
  return extents;
}

Result<std::vector<Extent>> StoragePool::AllocateSpread(int count,
                                                        uint64_t size) {
  auto extents = AllocateExtents(count, size, /*distinct_nodes=*/true);
  if (extents.ok()) return extents;
  return AllocateExtents(count, size, /*distinct_nodes=*/false);
}

void StoragePool::FreeExtents(std::span<const Extent> extents) {
  for (const Extent& extent : extents) FreeExtent(extent);
}

void StoragePool::FreeExtent(const Extent& extent) {
  MutexLock lock(&mu_);
  states_[extent.device->id()].free_list.emplace_back(extent.offset,
                                                      extent.size);
  allocated_bytes_ -= extent.size;
  freed_bytes_->Increment(extent.size);
  allocated_gauge_->Set(static_cast<int64_t>(allocated_bytes_));
}

uint64_t StoragePool::TotalCapacity() const {
  MutexLock lock(&mu_);
  uint64_t total = 0;
  for (const auto& dev : devices_) total += dev->capacity();
  return total;
}

uint64_t StoragePool::AllocatedBytes() const {
  MutexLock lock(&mu_);
  return allocated_bytes_;
}

void StoragePool::SetNodeFailed(uint32_t node_id, bool failed) {
  MutexLock lock(&mu_);
  for (auto& dev : devices_) {
    if (dev->node_id() == node_id) dev->SetFailed(failed);
  }
}

sim::DeviceStats StoragePool::AggregateStats() const {
  MutexLock lock(&mu_);
  sim::DeviceStats total;
  for (const auto& dev : devices_) {
    sim::DeviceStats s = dev->device_model().stats();
    total.read_ops += s.read_ops;
    total.write_ops += s.write_ops;
    total.bytes_read += s.bytes_read;
    total.bytes_written += s.bytes_written;
    total.busy_ns += s.busy_ns;
  }
  // Export the tier's cumulative device I/O so registry snapshots carry
  // per-pool numbers (sampled whenever the pool is inspected).
  tier_read_bytes_->Set(static_cast<int64_t>(total.bytes_read));
  tier_write_bytes_->Set(static_cast<int64_t>(total.bytes_written));
  return total;
}

}  // namespace streamlake::storage
