#include "storage/plog.h"

#include <algorithm>
#include <utility>

#include "common/coding.h"
#include "common/hash.h"
#include "common/logging.h"

namespace streamlake::storage {

namespace {
// Record frame: [payload_len:4][crc32c(payload):4][payload].
constexpr uint64_t kRecordHeader = 8;
}  // namespace

uint64_t Plog::ExtentSizeFor(const PlogConfig& config) {
  if (config.redundancy.scheme == RedundancyConfig::Scheme::kReplication) {
    return config.capacity;
  }
  uint64_t stripe_data = config.stripe_unit * config.redundancy.ec_data;
  uint64_t stripes = (config.capacity + stripe_data - 1) / stripe_data;
  return stripes * config.stripe_unit;
}

uint64_t Plog::ExtentSize() const { return ExtentSizeFor(config_); }

Result<std::unique_ptr<Plog>> Plog::Create(StoragePool* pool,
                                           PlogConfig config,
                                           uint64_t now_ns) {
  // Reads name the replicas that missed a range in a 64-bit mask.
  if (config.redundancy.scheme == RedundancyConfig::Scheme::kReplication &&
      config.redundancy.replicas > 64) {
    return Status::InvalidArgument("a PLog keeps at most 64 replicas");
  }
  SL_ASSIGN_OR_RETURN(auto extents,
                      pool->AllocateSpread(config.redundancy.Width(),
                                           ExtentSizeFor(config)));
  // Extents go in through the constructor: no member is ever written on
  // an object that might already be visible to another thread.
  return std::unique_ptr<Plog>(
      new Plog(pool, config, std::move(extents), now_ns));
}

Plog::Plog(StoragePool* pool, PlogConfig config, std::vector<Extent> extents,
           uint64_t now_ns)
    : pool_(pool),
      config_(config),
      extents_(std::move(extents)),
      missed_(extents_.size()),
      created_at_ns_(now_ns),
      last_append_ns_(now_ns) {
  if (config_.redundancy.scheme == RedundancyConfig::Scheme::kErasureCoding) {
    rs_ = std::make_unique<ReedSolomon>(config_.redundancy.ec_data,
                                        config_.redundancy.ec_parity);
  }
}

Plog::~Plog() = default;

Result<uint64_t> Plog::Append(ByteView record) {
  MutexLock lock(&mu_);
  if (freed_) return Status::InvalidArgument("plog freed");
  if (sealed_) return Status::InvalidArgument("plog sealed");
  uint64_t frame_size = kRecordHeader + record.size();
  if (size_ + frame_size > config_.capacity) {
    return Status::ResourceExhausted("plog full");
  }

  Bytes frame;
  frame.reserve(frame_size);
  PutFixed32(&frame, static_cast<uint32_t>(record.size()));
  PutFixed32(&frame, Crc32c(record));
  AppendBytes(&frame, record);

  uint64_t offset = size_;
  if (config_.redundancy.scheme == RedundancyConfig::Scheme::kReplication) {
    std::vector<size_t> missed;
    for (size_t i = 0; i < extents_.size(); ++i) {
      const Extent& extent = extents_[i];
      Status s = extent.device->Write(extent.offset + offset, ByteView(frame));
      if (!s.ok()) missed.push_back(i);
    }
    if (missed.size() == extents_.size()) {
      return Status::IOError("all replicas failed");
    }
    for (size_t i : missed) MarkMissedLocked(i, offset, frame_size);
  } else {
    // EC: buffer, then stripe out every full stripe. All ready stripes
    // flush in one scatter-gather write per shard (the data bus's
    // "intelligent stripe aggregation", Section III).
    AppendBytes(&pending_, ByteView(frame));
    const uint64_t stripe_data = StripeDataSize();
    uint64_t full_stripes = pending_.size() / stripe_data;
    if (full_stripes > 0) {
      Status s = WriteStripesLocked(
          striped_bytes_ / stripe_data,
          ByteView(pending_.data(), full_stripes * stripe_data));
      // An unacknowledged frame must not stay buffered: the next append
      // takes its offset.
      if (!s.ok()) pending_.resize(pending_.size() - frame_size);
      SL_RETURN_NOT_OK(s);
      pending_.erase(pending_.begin(),
                     pending_.begin() + full_stripes * stripe_data);
      striped_bytes_ += full_stripes * stripe_data;
    }
  }
  size_ += frame_size;
  ++record_count_;
  payload_bytes_ += record.size();
  return offset;
}

Status Plog::WriteStripesLocked(uint64_t first_stripe, ByteView data) {
  // `data` holds one or more full stripes. Encode each stripe, then issue
  // ONE contiguous device write per shard covering all of them (shard j's
  // stripe payloads are adjacent on disk).
  const uint64_t stripe_data = StripeDataSize();
  const uint64_t stripes = data.size() / stripe_data;
  const int width = config_.redundancy.Width();
  std::vector<Bytes> per_shard(width);
  for (int i = 0; i < width; ++i) {
    per_shard[i].reserve(stripes * config_.stripe_unit);
  }
  for (uint64_t s = 0; s < stripes; ++s) {
    std::vector<Bytes> shards =
        rs_->Encode(data.subview(s * stripe_data, stripe_data));
    for (int i = 0; i < width; ++i) {
      AppendBytes(&per_shard[i], ByteView(shards[i]));
    }
  }
  std::vector<int> missed;
  for (int i = 0; i < width; ++i) {
    const Extent& extent = extents_[i];
    Status status = extent.device->Write(
        extent.offset + first_stripe * config_.stripe_unit,
        ByteView(per_shard[i]));
    if (!status.ok()) missed.push_back(i);
  }
  if (static_cast<int>(missed.size()) > config_.redundancy.ec_parity) {
    // Not acknowledged, so no shard is marked: these stripes stay
    // buffered and the next stripe write covers them in full.
    return Status::IOError("stripe write lost more shards than parity");
  }
  for (int i : missed) {
    MarkMissedLocked(i, first_stripe * config_.stripe_unit,
                     stripes * config_.stripe_unit);
  }
  return Status::OK();
}

Status Plog::Flush() {
  MutexLock lock(&mu_);
  if (freed_) return Status::InvalidArgument("plog freed");
  if (config_.redundancy.scheme == RedundancyConfig::Scheme::kReplication ||
      pending_.empty()) {
    return Status::OK();
  }
  // Pad the tail to a full stripe; the pad becomes dead logical space and
  // the frontier moves to the next stripe boundary.
  const uint64_t stripe_data = StripeDataSize();
  uint64_t stripe_index = striped_bytes_ / stripe_data;
  Bytes padded = pending_;
  padded.resize(stripe_data, 0);
  SL_RETURN_NOT_OK(WriteStripesLocked(stripe_index, ByteView(padded)));
  striped_bytes_ += stripe_data;
  size_ = striped_bytes_;
  pending_.clear();
  return Status::OK();
}

Status Plog::Seal() {
  SL_RETURN_NOT_OK(Flush());
  MutexLock lock(&mu_);
  sealed_ = true;
  return Status::OK();
}

bool Plog::sealed() const {
  MutexLock lock(&mu_);
  return sealed_;
}

Result<Bytes> Plog::ReadRecord(uint64_t offset) const {
  MutexLock lock(&mu_);
  if (freed_) return Status::InvalidArgument("plog freed");
  SL_ASSIGN_OR_RETURN(Bytes header, ReadRangeLocked(offset, kRecordHeader));
  uint32_t len = DecodeFixed32(header.data());
  uint32_t expected_crc = DecodeFixed32(header.data() + 4);
  if (offset + kRecordHeader + len > size_) {
    return Status::Corruption("record length past log frontier");
  }
  SL_ASSIGN_OR_RETURN(Bytes payload,
                      ReadRangeLocked(offset + kRecordHeader, len));
  if (Crc32c(ByteView(payload)) != expected_crc) {
    return Status::Corruption("record crc mismatch");
  }
  return payload;
}

Result<Bytes> Plog::ReadRangeLocked(uint64_t offset, uint64_t length) const {
  if (offset + length > size_) {
    return Status::InvalidArgument("read past plog frontier");
  }
  if (config_.redundancy.scheme == RedundancyConfig::Scheme::kReplication) {
    return ReadReplicatedLocked(offset, length);
  }

  // EC path. Bytes may live in the pending buffer (not yet striped).
  Bytes out;
  out.reserve(length);
  uint64_t striped_len = offset < striped_bytes_
                             ? std::min(length, striped_bytes_ - offset)
                             : 0;
  if (striped_len > 0) {
    const uint64_t stripe_data = StripeDataSize();
    const uint64_t unit = config_.stripe_unit;
    const uint64_t first_stripe = offset / stripe_data;
    const uint64_t last_stripe = (offset + striped_len - 1) / stripe_data;
    const uint64_t num_stripes = last_stripe - first_stripe + 1;
    // Fast path: a small read inside one shard unit is one device op.
    if (num_stripes == 1 &&
        (offset % stripe_data) / unit ==
            ((offset + striped_len - 1) % stripe_data) / unit) {
      uint64_t shard = (offset % stripe_data) / unit;
      uint64_t in_shard = (offset % stripe_data) % unit;
      auto data = ReadExtentLocked(shard, first_stripe * unit + in_shard,
                                   striped_len);
      if (data.ok()) {
        AppendBytes(&out, ByteView(*data));
      } else {
        SL_ASSIGN_OR_RETURN(Bytes stripe,
                            ReconstructStripeLocked(first_stripe));
        uint64_t in_stripe = offset % stripe_data;
        out.insert(out.end(), stripe.begin() + in_stripe,
                   stripe.begin() + in_stripe + striped_len);
      }
    } else {
      // Bulk scatter-gather: ONE contiguous read per data shard covering
      // every needed stripe, then reassemble the logical range. Failed
      // shards fall back to per-stripe parity reconstruction.
      std::vector<std::optional<Bytes>> shard_data(
          config_.redundancy.ec_data);
      for (int j = 0; j < config_.redundancy.ec_data; ++j) {
        auto data =
            ReadExtentLocked(j, first_stripe * unit, num_stripes * unit);
        if (data.ok()) shard_data[j] = std::move(*data);
      }
      std::map<uint64_t, Bytes> reconstructed;  // stripe -> logical bytes
      uint64_t pos = offset;
      uint64_t remaining = striped_len;
      while (remaining > 0) {
        uint64_t stripe_index = pos / stripe_data;
        uint64_t in_stripe = pos % stripe_data;
        uint64_t shard = in_stripe / unit;
        uint64_t in_shard = in_stripe % unit;
        uint64_t run = std::min({remaining, unit - in_shard});
        if (shard_data[shard].has_value()) {
          const Bytes& data = *shard_data[shard];
          uint64_t base = (stripe_index - first_stripe) * unit + in_shard;
          out.insert(out.end(), data.begin() + base,
                     data.begin() + base + run);
        } else {
          auto it = reconstructed.find(stripe_index);
          if (it == reconstructed.end()) {
            SL_ASSIGN_OR_RETURN(Bytes stripe,
                                ReconstructStripeLocked(stripe_index));
            it = reconstructed.emplace(stripe_index, std::move(stripe)).first;
          }
          out.insert(out.end(), it->second.begin() + in_stripe,
                     it->second.begin() + in_stripe + run);
        }
        pos += run;
        remaining -= run;
      }
    }
  }
  if (striped_len < length) {
    // Tail served from the stripe buffer.
    uint64_t buf_off = offset + striped_len - striped_bytes_;
    uint64_t tail = length - striped_len;
    if (buf_off + tail > pending_.size()) {
      return Status::InvalidArgument("read past pending tail");
    }
    out.insert(out.end(), pending_.begin() + buf_off,
               pending_.begin() + buf_off + tail);
  }
  return out;
}

Result<Bytes> Plog::ReadReplicatedLocked(uint64_t offset,
                                         uint64_t length) const {
  const uint64_t end = offset + length;
  Bytes out;
  uint64_t begin = offset;
  do {
    // The piece ends where some replica's missed range next begins or
    // ends, so every replica holds it whole or not at all. With no missed
    // range the whole range is one piece.
    uint64_t cut = end;
    for (const std::vector<MissedRange>& ranges : missed_) {
      for (const MissedRange& range : ranges) {
        for (uint64_t edge : {range.begin, range.end}) {
          if (edge > begin && edge < cut) cut = edge;
        }
      }
    }
    uint64_t missed = 0;  // replicas that lack the piece
    for (size_t i = 0; i < extents_.size(); ++i) {
      if (MissedLocked(i, begin, cut - begin)) missed |= uint64_t{1} << i;
    }
    SL_ASSIGN_OR_RETURN(Bytes piece,
                        ReadReplica(extents_, begin, cut - begin, missed));
    if (begin == offset) {
      out = std::move(piece);
    } else {
      AppendBytes(&out, ByteView(piece));
    }
    begin = cut;
  } while (begin < end);
  return out;
}

void Plog::MarkMissedLocked(size_t i, uint64_t offset, uint64_t length) {
  std::vector<MissedRange>& ranges = missed_[i];
  // Writes missed during one outage are adjacent: keep them one range.
  if (!ranges.empty() && ranges.back().end == offset) {
    ranges.back().end = offset + length;
  } else {
    ranges.push_back({offset, offset + length});
  }
}

bool Plog::MissedLocked(size_t i, uint64_t offset, uint64_t length) const {
  for (const MissedRange& range : missed_[i]) {
    if (range.begin < offset + length && offset < range.end) return true;
  }
  return false;
}

Result<Bytes> Plog::ReadExtentLocked(size_t i, uint64_t offset,
                                     uint64_t length) const {
  if (MissedLocked(i, offset, length)) {
    return Status::IOError("extent missed a write");
  }
  const Extent& extent = extents_[i];
  return extent.device->Read(extent.offset + offset, length);
}

Result<Bytes> Plog::ReconstructStripeLocked(uint64_t stripe_index) const {
  const int width = config_.redundancy.Width();
  std::vector<std::optional<Bytes>> shards(width);
  int available = 0;
  for (int i = 0; i < width; ++i) {
    auto data = ReadExtentLocked(i, stripe_index * config_.stripe_unit,
                                 config_.stripe_unit);
    if (data.ok()) {
      shards[i] = std::move(*data);
      ++available;
    }
  }
  if (available < config_.redundancy.ec_data) {
    return Status::IOError("stripe lost beyond parity tolerance");
  }
  return rs_->Decode(shards, StripeDataSize());
}

Status Plog::MigrateTo(StoragePool* target) {
  SL_RETURN_NOT_OK(Flush());
  MutexLock lock(&mu_);
  if (freed_) return Status::InvalidArgument("plog freed");
  SL_ASSIGN_OR_RETURN(Bytes content, ReadRangeLocked(0, size_));

  SL_ASSIGN_OR_RETURN(auto new_extents,
                      target->AllocateSpread(config_.redundancy.Width(),
                                             ExtentSize()));

  std::vector<Extent> old_extents = std::move(extents_);
  std::vector<std::vector<MissedRange>> old_missed = std::exchange(
      missed_, std::vector<std::vector<MissedRange>>(new_extents.size()));
  StoragePool* old_pool = pool_;
  extents_ = std::move(new_extents);
  pool_ = target;

  Status write_status = Status::OK();
  if (config_.redundancy.scheme == RedundancyConfig::Scheme::kReplication) {
    for (const Extent& extent : extents_) {
      Status s = extent.device->Write(extent.offset, ByteView(content));
      if (!s.ok()) write_status = s;
    }
  } else {
    const uint64_t stripe_data = StripeDataSize();
    for (uint64_t pos = 0; pos < content.size(); pos += stripe_data) {
      uint64_t len = std::min(stripe_data, content.size() - pos);
      Bytes stripe(content.begin() + pos, content.begin() + pos + len);
      stripe.resize(stripe_data, 0);
      Status s = WriteStripesLocked(pos / stripe_data, ByteView(stripe));
      if (!s.ok()) write_status = s;
    }
  }
  if (!write_status.ok()) {
    // Roll back to the old extents; free the new ones.
    target->FreeExtents(extents_);
    extents_ = std::move(old_extents);
    missed_ = std::move(old_missed);
    pool_ = old_pool;
    return write_status;
  }
  old_pool->FreeExtents(old_extents);
  return Status::OK();
}

std::vector<int> Plog::FailedExtents() const {
  MutexLock lock(&mu_);
  return FailedExtentsLocked();
}

std::vector<int> Plog::FailedExtentsLocked() const {
  std::vector<int> failed;
  for (size_t i = 0; i < extents_.size(); ++i) {
    if (!missed_[i].empty() || extents_[i].device->failed()) {
      failed.push_back(static_cast<int>(i));
    }
  }
  return failed;
}

Status Plog::RepairFailedExtents() {
  MutexLock lock(&mu_);
  if (freed_) return Status::InvalidArgument("plog freed");
  std::vector<int> failed = FailedExtentsLocked();
  if (failed.empty()) return Status::OK();
  // A range one extent missed is lost only if too many others lack it as
  // well; rebuilding finds that. Whole devices down are counted up front.
  const auto down = std::count_if(failed.begin(), failed.end(), [&](int idx) {
    return extents_[idx].device->failed();
  });
  if (down > config_.redundancy.FaultTolerance()) {
    return Status::IOError("losses exceed fault tolerance; data unrecoverable");
  }

  for (int idx : failed) {
    // Rebuild the extent's contents from the other extents first, so a
    // range no survivor holds fails before anything is allocated.
    Bytes content;
    if (config_.redundancy.scheme == RedundancyConfig::Scheme::kReplication) {
      // The full log range, each piece from a replica that holds it.
      SL_ASSIGN_OR_RETURN(content, ReadRangeLocked(0, size_));
    } else {
      // This shard, stripe by stripe, from the survivors.
      const uint64_t stripe_data = StripeDataSize();
      const uint64_t stripes =
          (striped_bytes_ + stripe_data - 1) / stripe_data;
      content.reserve(stripes * config_.stripe_unit);
      for (uint64_t s = 0; s < stripes; ++s) {
        SL_ASSIGN_OR_RETURN(Bytes stripe, ReconstructStripeLocked(s));
        std::vector<Bytes> shards = rs_->Encode(ByteView(stripe));
        AppendBytes(&content, ByteView(shards[idx]));
      }
    }
    // Allocate the replacement, avoiding failed devices (the allocator
    // skips them implicitly only by capacity).
    SL_ASSIGN_OR_RETURN(auto replacement,
                        pool_->AllocateExtents(1, ExtentSize(),
                                               /*distinct_nodes=*/false));
    Extent new_extent = replacement[0];
    if (new_extent.device->failed()) {
      // A richer allocator would filter failed disks.
      pool_->FreeExtent(new_extent);
      return Status::IOError("no healthy disk available for repair");
    }
    Status written =
        new_extent.device->Write(new_extent.offset, ByteView(content));
    if (!written.ok()) {
      pool_->FreeExtent(new_extent);
      return written;
    }
    pool_->FreeExtent(extents_[idx]);
    extents_[idx] = new_extent;
    missed_[idx].clear();
  }
  return Status::OK();
}

uint64_t Plog::size() const {
  MutexLock lock(&mu_);
  return size_;
}

uint64_t Plog::record_count() const {
  MutexLock lock(&mu_);
  return record_count_;
}

void Plog::AddGarbage(uint64_t bytes) {
  MutexLock lock(&mu_);
  garbage_bytes_ += bytes;
}

uint64_t Plog::live_bytes() const {
  MutexLock lock(&mu_);
  return payload_bytes_ - std::min(payload_bytes_, garbage_bytes_);
}

Status Plog::Free() {
  MutexLock lock(&mu_);
  if (freed_) return Status::OK();
  pool_->FreeExtents(extents_);
  extents_.clear();
  freed_ = true;
  return Status::OK();
}

}  // namespace streamlake::storage
