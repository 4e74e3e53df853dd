#ifndef STREAMLAKE_CORE_STREAMLAKE_H_
#define STREAMLAKE_CORE_STREAMLAKE_H_

#include <memory>

#include "access/admission.h"
#include "access/block_service.h"
#include "access/s3_gateway.h"
#include "common/threadpool.h"
#include "convert/converter.h"
#include "storage/repair.h"
#include "storage/tiering.h"
#include "streaming/archive.h"
#include "streaming/consumer.h"
#include "streaming/producer.h"
#include "streaming/txn_manager.h"
#include "table/lakehouse.h"

namespace streamlake::core {

/// Cluster-level configuration of one StreamLake deployment (a simulated
/// OceanStor Pacific cluster plus the data-service layer).
struct StreamLakeOptions {
  // Cluster shape (the paper's testbed: 3 nodes).
  uint32_t nodes = 3;
  uint32_t ssd_disks_per_node = 2;
  uint32_t hdd_disks_per_node = 2;
  uint64_t ssd_capacity_per_disk = 2ULL << 30;
  uint64_t hdd_capacity_per_disk = 16ULL << 30;
  /// Hardware Set-2 of Section VII-C adds persistent memory as a cache.
  bool with_pmem_cache = false;
  size_t pmem_cache_slices = 4096;

  // Store layer.
  storage::PlogStoreConfig plog;
  sim::TransportType bus_transport = sim::TransportType::kRdma;

  // Data service layer.
  uint32_t stream_workers = 3;
  /// Worker threads of the shared stream I/O pool that fans out
  /// StreamObject::Append slice persists; 0 disables the pool (slices
  /// persist inline).
  uint32_t stream_io_threads = 4;
  table::MetadataMode metadata_mode = table::MetadataMode::kAccelerated;
  table::TableOptions table_options;
  /// Worker threads of the shared table-scan pool that fans out
  /// Table::Select file scans; 0 disables the pool (Selects scan
  /// serially).
  uint32_t scan_threads = 4;
  /// Byte budget of the decoded-block cache serving repeat Selects and
  /// time-travel reads; 0 disables the cache.
  uint64_t block_cache_bytes = 64ULL << 20;
  storage::TieringPolicy tiering_policy;

  /// Per-tenant admission control over the access layer (disabled by
  /// default: no accounting, no gates handed out).
  access::AdmissionConfig admission;

  StreamLakeOptions() {
    plog.num_shards = 128;  // scaled-down 4096 of the paper
    // Keep worst-case reservation (shards x width x capacity) well under
    // the pool size: 128 x 3 x 8 MB = 3 GB against 12 GB of SSD.
    plog.plog.capacity = 8ULL << 20;
    plog.plog.redundancy = storage::RedundancyConfig::Replication(3);
  }
};

/// \brief The StreamLake system facade: owns the simulated cluster and
/// every service of Fig. 2 (store layer, data service layer, access
/// helpers) wired together.
class StreamLake {
 public:
  explicit StreamLake(StreamLakeOptions options = StreamLakeOptions());
  ~StreamLake();

  StreamLake(const StreamLake&) = delete;
  StreamLake& operator=(const StreamLake&) = delete;

  // ---- store layer ----
  sim::SimClock& clock() { return clock_; }
  storage::StoragePool& ssd_pool() { return *ssd_pool_; }
  storage::StoragePool& hdd_pool() { return *hdd_pool_; }
  storage::PlogStore& plogs() { return *plogs_; }
  storage::ObjectStore& objects() { return *objects_; }
  sim::NetworkModel& data_bus() { return *bus_; }

  // ---- data service layer ----
  stream::StreamObjectManager& stream_objects() { return *stream_objects_; }
  streaming::StreamDispatcher& dispatcher() { return *dispatcher_; }
  table::LakehouseService& lakehouse() { return *lakehouse_; }
  table::MetadataStore& metadata() { return *metadata_; }
  /// Decoded-block cache shared by every table; nullptr when disabled.
  table::DecodedBlockCache* block_cache() { return block_cache_.get(); }
  convert::ConversionService& converter() { return *converter_; }
  streaming::ArchiveService& archive() { return *archive_; }
  storage::TieringService& tiering() { return *tiering_; }
  storage::RepairService& repair() { return *repair_; }

  // ---- access layer ----
  access::AccessController& acl() { return *acl_; }
  access::S3Gateway& s3() { return *s3_; }
  access::BlockService& blocks() { return *blocks_; }
  /// Client-facing network (S3/front traffic), distinct from the data bus.
  sim::NetworkModel& front_network() { return *front_net_; }
  /// The admission controller; nullptr when options.admission.enabled is
  /// false.
  access::AdmissionController* admission() { return admission_.get(); }

  streaming::Producer NewProducer() {
    return streaming::Producer(dispatcher_.get());
  }
  /// A producer gated through per-tenant admission as `tenant` (producer
  /// backpressure: over-quota sends block until their throttle window
  /// passes). No-op attachment when admission is disabled or the facade's
  /// in-path gates are off (admission.gate_access_layer = false).
  streaming::Producer NewProducer(const std::string& tenant) {
    streaming::Producer producer(dispatcher_.get());
    if (admission_ != nullptr && options_.admission.gate_access_layer) {
      producer.SetAdmission(admission_.get(), tenant, /*blocking=*/true);
    }
    return producer;
  }
  streaming::Consumer NewConsumer(const std::string& group) {
    return streaming::Consumer(dispatcher_.get(), service_meta_.get(), group);
  }
  streaming::TransactionManager NewTransactionManager() {
    return streaming::TransactionManager(dispatcher_.get(),
                                         service_meta_.get());
  }

  /// The SCM device behind the metadata KV engine (for benches).
  sim::DeviceModel* metadata_engine_device() { return meta_engine_.get(); }

  /// Physical bytes currently allocated across both pools (the storage
  /// usage metric of Table I).
  uint64_t PhysicalBytesAllocated() const;

  /// Operational snapshot of the whole deployment (what an admin console
  /// would render).
  struct ClusterReport {
    double sim_seconds = 0;
    // Store layer.
    uint64_t ssd_capacity = 0, ssd_allocated = 0;
    uint64_t hdd_capacity = 0, hdd_allocated = 0;
    uint64_t plogs = 0, plog_live_bytes = 0, plog_logical_bytes = 0;
    uint64_t objects = 0;
    sim::DeviceStats ssd_io, hdd_io;
    sim::NetworkStats bus_io;
    // Data service layer.
    uint32_t stream_workers = 0;
    size_t stream_objects = 0;
    uint64_t scm_cache_hits = 0, scm_cache_misses = 0;
    size_t tables = 0;
    size_t pending_metadata_flushes = 0;
    uint64_t block_cache_hits = 0, block_cache_misses = 0;
    // Access layer (zeros when admission is disabled).
    uint64_t admission_admitted_ops = 0;
    uint64_t admission_throttled_ops = 0;
    uint64_t admission_shed_ops = 0;

    /// Multi-line human-readable rendering.
    std::string ToString() const;
  };
  ClusterReport Report() const;

  /// Run one SQL statement against the lakehouse (parse, plan, execute).
  /// SELECT — including multi-table joins, which pin every table's
  /// snapshot before scanning — returns its result set; INSERT / DELETE /
  /// UPDATE return one "affected" row.
  Result<query::QueryResult> Query(const std::string& sql,
                                   table::SelectMetrics* metrics = nullptr);

  /// Run pending background work once: MetaFresher flush + tiering scan.
  Status RunBackgroundWork();

  const StreamLakeOptions& options() const { return options_; }

 private:
  StreamLakeOptions options_;
  sim::SimClock clock_;
  std::unique_ptr<sim::DeviceModel> pmem_;
  /// The distributed KV engine backing dispatcher topology and lakehouse
  /// metadata ("optimized for RDMA and Storage Class Memory"): its I/O is
  /// charged at SCM cost.
  std::unique_ptr<sim::DeviceModel> meta_engine_;
  std::unique_ptr<storage::StoragePool> ssd_pool_;
  std::unique_ptr<storage::StoragePool> hdd_pool_;
  std::unique_ptr<sim::NetworkModel> bus_;
  std::unique_ptr<sim::NetworkModel> compute_link_;
  kv::KvStore index_kv_;  // PLog/object indexes
  std::unique_ptr<kv::KvStore> service_meta_;    // dispatcher topology etc.
  std::unique_ptr<kv::KvStore> metadata_cache_;  // metadata acceleration
  std::unique_ptr<storage::PlogStore> plogs_;
  std::unique_ptr<storage::ObjectStore> objects_;
  // Declared before stream_objects_: objects may have batches in flight
  // on this pool, so it must outlive (destruct after) the manager.
  std::unique_ptr<ThreadPool> stream_io_pool_;
  std::unique_ptr<stream::StreamObjectManager> stream_objects_;
  std::unique_ptr<streaming::StreamDispatcher> dispatcher_;
  std::unique_ptr<table::MetadataStore> metadata_;
  // Declared before lakehouse_: tables may have scan jobs in flight on
  // this pool and blocks in this cache, so both must outlive (destruct
  // after) the service that owns the tables.
  std::unique_ptr<ThreadPool> scan_pool_;
  std::unique_ptr<table::DecodedBlockCache> block_cache_;
  std::unique_ptr<table::LakehouseService> lakehouse_;
  std::unique_ptr<convert::ConversionService> converter_;
  std::unique_ptr<streaming::ArchiveService> archive_;
  std::unique_ptr<storage::TieringService> tiering_;
  std::unique_ptr<storage::RepairService> repair_;
  // Access layer: front network, ACLs, admission gate, protocol services.
  std::unique_ptr<sim::NetworkModel> front_net_;
  std::unique_ptr<access::AccessController> acl_;
  std::unique_ptr<access::AdmissionController> admission_;
  std::unique_ptr<access::S3Gateway> s3_;
  std::unique_ptr<access::BlockService> blocks_;
};

}  // namespace streamlake::core

#endif  // STREAMLAKE_CORE_STREAMLAKE_H_
