#include "access/block_service.h"

#include <algorithm>

namespace streamlake::access {

Status BlockService::Gate(const std::string& token, AdmitOp op,
                          uint64_t bytes) {
  if (admission_ == nullptr) return Status::OK();
  SL_ASSIGN_OR_RETURN(std::string tenant, acl_->Authenticate(token));
  return admission_->Admit(tenant, op, 1, bytes).status();
}

Result<uint64_t> BlockService::CreateVolume(const std::string& token,
                                            uint64_t size_bytes) {
  SL_ASSIGN_OR_RETURN([[maybe_unused]] std::string principal,
                      acl_->Authenticate(token));
  if (size_bytes == 0) return Status::InvalidArgument("empty volume");
  MutexLock lock(&mu_);
  uint64_t lun = next_lun_++;
  volumes_[lun].size = size_bytes;
  return lun;
}

Status BlockService::DeleteVolume(const std::string& token, uint64_t lun) {
  SL_RETURN_NOT_OK(acl_->CheckRequest(token, Resource(lun),
                                      Permission::kAdmin));
  MutexLock lock(&mu_);
  auto it = volumes_.find(lun);
  if (it == volumes_.end()) return Status::NotFound("lun " + std::to_string(lun));
  for (auto& [chunk, extents] : it->second.chunks) pool_->FreeExtents(extents);
  volumes_.erase(it);
  return Status::OK();
}

Result<std::vector<storage::Extent>*> BlockService::EnsureChunk(
    Volume* volume, uint64_t chunk) {
  auto it = volume->chunks.find(chunk);
  if (it != volume->chunks.end()) return &it->second;
  // First write to this chunk: allocate its extents now (thin provision).
  SL_ASSIGN_OR_RETURN(auto extents,
                      pool_->AllocateSpread(replication_, chunk_bytes_));
  auto [inserted, ok] = volume->chunks.emplace(chunk, std::move(extents));
  return &inserted->second;
}

Status BlockService::Write(const std::string& token, uint64_t lun,
                           uint64_t offset, ByteView data) {
  SL_RETURN_NOT_OK(acl_->CheckRequest(token, Resource(lun),
                                      Permission::kWrite));
  SL_RETURN_NOT_OK(Gate(token, AdmitOp::kBlockWrite, data.size()));
  MutexLock lock(&mu_);
  auto it = volumes_.find(lun);
  if (it == volumes_.end()) return Status::NotFound("lun " + std::to_string(lun));
  Volume& volume = it->second;
  if (offset + data.size() > volume.size) {
    return Status::InvalidArgument("write past end of volume");
  }
  uint64_t pos = 0;
  while (pos < data.size()) {
    uint64_t chunk = (offset + pos) / chunk_bytes_;
    uint64_t in_chunk = (offset + pos) % chunk_bytes_;
    uint64_t len = std::min<uint64_t>(chunk_bytes_ - in_chunk,
                                      data.size() - pos);
    SL_ASSIGN_OR_RETURN(auto* extents, EnsureChunk(&volume, chunk));
    SL_RETURN_NOT_OK(
        storage::WriteReplicas(*extents, in_chunk, data.subview(pos, len)));
    pos += len;
  }
  return Status::OK();
}

Result<Bytes> BlockService::Read(const std::string& token, uint64_t lun,
                                 uint64_t offset, uint64_t length) {
  SL_RETURN_NOT_OK(acl_->CheckRequest(token, Resource(lun),
                                      Permission::kRead));
  SL_RETURN_NOT_OK(Gate(token, AdmitOp::kBlockRead, length));
  MutexLock lock(&mu_);
  auto it = volumes_.find(lun);
  if (it == volumes_.end()) return Status::NotFound("lun " + std::to_string(lun));
  Volume& volume = it->second;
  if (offset + length > volume.size) {
    return Status::InvalidArgument("read past end of volume");
  }
  Bytes out(length, 0);
  uint64_t pos = 0;
  while (pos < length) {
    uint64_t chunk = (offset + pos) / chunk_bytes_;
    uint64_t in_chunk = (offset + pos) % chunk_bytes_;
    uint64_t len = std::min<uint64_t>(chunk_bytes_ - in_chunk, length - pos);
    auto chunk_it = volume.chunks.find(chunk);
    if (chunk_it != volume.chunks.end()) {
      SL_ASSIGN_OR_RETURN(Bytes data, storage::ReadReplica(chunk_it->second,
                                                           in_chunk, len));
      std::memcpy(out.data() + pos, data.data(), len);
    }
    // Unallocated chunks read as zeros (thin provisioning).
    pos += len;
  }
  return out;
}

Result<uint64_t> BlockService::AllocatedBytes(const std::string& token,
                                              uint64_t lun) const {
  SL_RETURN_NOT_OK(acl_->CheckRequest(token, Resource(lun),
                                      Permission::kRead));
  MutexLock lock(&mu_);
  auto it = volumes_.find(lun);
  if (it == volumes_.end()) return Status::NotFound("lun " + std::to_string(lun));
  return it->second.chunks.size() * chunk_bytes_ * replication_;
}

}  // namespace streamlake::access
