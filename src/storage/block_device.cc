#include "storage/block_device.h"

namespace streamlake::storage {

BlockDevice::BlockDevice(uint32_t id, uint32_t node_id,
                         uint64_t capacity_bytes, sim::MediaType media,
                         sim::SimClock* clock)
    : id_(id),
      node_id_(node_id),
      capacity_(capacity_bytes),
      media_(media),
      model_(sim::DeviceProfile::ForMedia(media), clock) {}

Status BlockDevice::Write(uint64_t offset, ByteView data) {
  if (failed_.load()) {
    return Status::IOError("disk " + std::to_string(id_) + " failed");
  }
  if (offset + data.size() > capacity_) {
    return Status::ResourceExhausted("disk " + std::to_string(id_) +
                                     " write past capacity");
  }
  {
    MutexLock lock(&mu_);
    uint64_t pos = 0;
    while (pos < data.size()) {
      uint64_t page = (offset + pos) / kPageSize;
      uint64_t in_page = (offset + pos) % kPageSize;
      uint64_t len = std::min<uint64_t>(kPageSize - in_page, data.size() - pos);
      Bytes& storage = pages_[page];
      if (storage.size() < in_page + len) storage.resize(kPageSize);
      std::memcpy(storage.data() + in_page, data.data() + pos, len);
      pos += len;
    }
  }
  model_.ChargeWrite(data.size());
  return Status::OK();
}

Result<Bytes> BlockDevice::Read(uint64_t offset, uint64_t length) const {
  if (failed_.load()) {
    return Status::IOError("disk " + std::to_string(id_) + " failed");
  }
  if (offset + length > capacity_) {
    return Status::InvalidArgument("read past end of disk " +
                                   std::to_string(id_));
  }
  Bytes out(length, 0);
  {
    MutexLock lock(&mu_);
    uint64_t pos = 0;
    while (pos < length) {
      uint64_t page = (offset + pos) / kPageSize;
      uint64_t in_page = (offset + pos) % kPageSize;
      uint64_t len = std::min<uint64_t>(kPageSize - in_page, length - pos);
      auto it = pages_.find(page);
      if (it != pages_.end()) {
        std::memcpy(out.data() + pos, it->second.data() + in_page, len);
      }
      // Unwritten pages read back as zeros (thin provisioning).
      pos += len;
    }
  }
  model_.ChargeRead(length);
  return out;
}

}  // namespace streamlake::storage
