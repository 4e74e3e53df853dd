#ifndef STREAMLAKE_STORAGE_PLOG_H_
#define STREAMLAKE_STORAGE_PLOG_H_

#include <memory>
#include <vector>

#include "common/mutex.h"
#include "storage/erasure_coding.h"
#include "storage/storage_pool.h"

namespace streamlake::storage {

/// How a PLog protects its data (CREATE_OPTIONS_S in Fig. 3 lets stream
/// objects choose "replicate or erasure code").
struct RedundancyConfig {
  enum class Scheme { kReplication, kErasureCoding };

  Scheme scheme = Scheme::kReplication;
  int replicas = 3;   // replication: total copies
  int ec_data = 4;    // EC: data shards (k)
  int ec_parity = 1;  // EC: parity shards (m)

  static RedundancyConfig Replication(int copies) {
    RedundancyConfig c;
    c.scheme = Scheme::kReplication;
    c.replicas = copies;
    return c;
  }
  static RedundancyConfig ErasureCoding(int k, int m) {
    RedundancyConfig c;
    c.scheme = Scheme::kErasureCoding;
    c.ec_data = k;
    c.ec_parity = m;
    return c;
  }

  /// Number of extents (disks) one PLog spans.
  int Width() const {
    return scheme == Scheme::kReplication ? replicas : ec_data + ec_parity;
  }
  /// Physical bytes written per logical byte.
  double Amplification() const {
    return scheme == Scheme::kReplication
               ? static_cast<double>(replicas)
               : static_cast<double>(ec_data + ec_parity) / ec_data;
  }
  /// Simultaneous disk/node failures survived.
  int FaultTolerance() const {
    return scheme == Scheme::kReplication ? replicas - 1 : ec_parity;
  }
};

struct PlogConfig {
  /// Logical address space of one PLog ("128 MB of addresses per shard").
  uint64_t capacity = 128ULL << 20;
  /// EC stripe unit: bytes per shard per stripe.
  uint64_t stripe_unit = 64ULL << 10;
  RedundancyConfig redundancy;
};

/// \brief Persistence Log: the unit of durable storage under stream and
/// table objects (Fig. 4-e/f).
///
/// A PLog controls a fixed logical address range backed by extents on
/// multiple disks spread across nodes. Appends are framed with a CRC.
/// Replication writes each record to every replica extent; erasure coding
/// accumulates a stripe buffer and writes k data + m parity shards per
/// stripe. Reads survive up to FaultTolerance() disk failures (EC decodes
/// missing shards from parity).
class Plog {
 public:
  /// Allocates extents in `pool` across distinct nodes when possible.
  static Result<std::unique_ptr<Plog>> Create(StoragePool* pool,
                                              PlogConfig config,
                                              uint64_t now_ns = 0);

  ~Plog();

  Plog(const Plog&) = delete;
  Plog& operator=(const Plog&) = delete;

  /// Append one record; returns its logical offset. Fails with
  /// ResourceExhausted when the PLog is full (caller seals and rolls over)
  /// and IOError when too many disks are down to meet the redundancy bar.
  Result<uint64_t> Append(ByteView record);

  /// Read the record at `offset` (as returned by Append).
  Result<Bytes> ReadRecord(uint64_t offset) const;

  /// Persist any buffered (EC) stripe tail. Pads to a stripe boundary, so
  /// subsequent appends begin on the next stripe.
  Status Flush();

  /// Flush and mark immutable.
  Status Seal();
  bool sealed() const;

  /// Move this PLog's data to `target` (the tiering service's primitive).
  /// Logical offsets are preserved; old extents are freed.
  Status MigrateTo(StoragePool* target);

  /// Indices of extents that cannot serve every read: their device
  /// reports failure, or they missed a write that the PLog still
  /// acknowledged.
  std::vector<int> FailedExtents() const;

  /// Data reconstruction (Section III: the pools implement "data
  /// reconstruction"): rebuild every failed extent's contents from the
  /// surviving replicas/shards onto freshly allocated extents. Fails if
  /// losses exceed the redundancy's fault tolerance.
  Status RepairFailedExtents();

  uint64_t size() const;      // logical bytes appended (incl. stripe pads)
  uint64_t capacity() const { return config_.capacity; }
  uint64_t record_count() const;
  StoragePool* pool() const {
    MutexLock lock(&mu_);
    return pool_;
  }
  const RedundancyConfig& redundancy() const { return config_.redundancy; }

  /// Garbage accounting for the pool GC: bytes of deleted records.
  void AddGarbage(uint64_t bytes);
  /// Live payload bytes (appended payloads minus garbage).
  uint64_t live_bytes() const;

  uint64_t created_at_ns() const { return created_at_ns_; }
  uint64_t last_append_ns() const {
    MutexLock lock(&mu_);
    return last_append_ns_;
  }
  void set_last_append_ns(uint64_t ns) {
    MutexLock lock(&mu_);
    last_append_ns_ = ns;
  }

  /// Release all extents back to the pool. The PLog is unusable afterwards.
  Status Free();

 private:
  Plog(StoragePool* pool, PlogConfig config, std::vector<Extent> extents,
       uint64_t now_ns);

  uint64_t StripeDataSize() const {
    return config_.stripe_unit * config_.redundancy.ec_data;
  }
  static uint64_t ExtentSizeFor(const PlogConfig& config);
  uint64_t ExtentSize() const;

  std::vector<int> FailedExtentsLocked() const REQUIRES(mu_);
  /// Record that extent `i` missed an acknowledged write of
  /// [offset, offset + length) of its own address space.
  void MarkMissedLocked(size_t i, uint64_t offset, uint64_t length)
      REQUIRES(mu_);
  /// Whether extent `i` missed any byte of [offset, offset + length).
  bool MissedLocked(size_t i, uint64_t offset, uint64_t length) const
      REQUIRES(mu_);
  /// Read extent `i` at `offset` within it; a range it missed is
  /// unreadable.
  Result<Bytes> ReadExtentLocked(size_t i, uint64_t offset,
                                 uint64_t length) const REQUIRES(mu_);
  /// Replication: read the range piece by piece, each piece from the
  /// replicas that hold all of it.
  Result<Bytes> ReadReplicatedLocked(uint64_t offset, uint64_t length) const
      REQUIRES(mu_);

  // EC internals (mu_ held):
  /// Encode and persist one or more consecutive full stripes with a
  /// single device write per shard.
  Status WriteStripesLocked(uint64_t first_stripe, ByteView data)
      REQUIRES(mu_);
  Result<Bytes> ReadRangeLocked(uint64_t offset, uint64_t length) const
      REQUIRES(mu_);
  Result<Bytes> ReconstructStripeLocked(uint64_t stripe_index) const
      REQUIRES(mu_);

  // pool_/extents_ are swapped wholesale by MigrateTo; every access (the
  // append/read/repair paths and the pool() accessor) holds mu_.
  StoragePool* pool_ GUARDED_BY(mu_);
  PlogConfig config_;
  std::vector<Extent> extents_ GUARDED_BY(mu_);
  // Per extent: the [begin, end) ranges of its address space that missed
  // a write the PLog still acknowledged (its device was down). Those bytes
  // are stale until repair rebuilds the extent; reads of them go to the
  // other replicas or shards, and the rest of the extent still serves.
  struct MissedRange {
    uint64_t begin = 0;
    uint64_t end = 0;
  };
  std::vector<std::vector<MissedRange>> missed_ GUARDED_BY(mu_);
  std::unique_ptr<ReedSolomon> rs_;  // EC only

  mutable Mutex mu_{LockRank::kPlog, "storage.plog"};
  uint64_t size_ GUARDED_BY(mu_) = 0;           // logical frontier
  uint64_t striped_bytes_ GUARDED_BY(mu_) = 0;  // EC: bytes durably striped
  Bytes pending_ GUARDED_BY(mu_);  // EC: stripe buffer (logical tail)
  bool sealed_ GUARDED_BY(mu_) = false;
  bool freed_ GUARDED_BY(mu_) = false;
  uint64_t record_count_ GUARDED_BY(mu_) = 0;
  uint64_t payload_bytes_ GUARDED_BY(mu_) = 0;
  uint64_t garbage_bytes_ GUARDED_BY(mu_) = 0;
  uint64_t created_at_ns_ = 0;
  uint64_t last_append_ns_ GUARDED_BY(mu_) = 0;
};

}  // namespace streamlake::storage

#endif  // STREAMLAKE_STORAGE_PLOG_H_
