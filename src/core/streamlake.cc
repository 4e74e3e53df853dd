#include "core/streamlake.h"

#include <cstdio>

#include "table/block_cache.h"

namespace streamlake::core {

StreamLake::StreamLake(StreamLakeOptions options)
    : options_(options) {
  if (options_.with_pmem_cache) {
    pmem_ = std::make_unique<sim::DeviceModel>(sim::DeviceProfile::Pmem(),
                                               &clock_);
  }
  meta_engine_ = std::make_unique<sim::DeviceModel>(sim::DeviceProfile::Pmem(),
                                                    &clock_);
  kv::KvOptions meta_kv_options;
  meta_kv_options.wal_device = meta_engine_.get();
  meta_kv_options.read_device = meta_engine_.get();
  service_meta_ = std::make_unique<kv::KvStore>(meta_kv_options);
  metadata_cache_ = std::make_unique<kv::KvStore>(meta_kv_options);
  ssd_pool_ = std::make_unique<storage::StoragePool>(
      "ssd", sim::MediaType::kNvmeSsd, &clock_);
  ssd_pool_->AddCluster(options_.nodes, options_.ssd_disks_per_node,
                        options_.ssd_capacity_per_disk);
  hdd_pool_ = std::make_unique<storage::StoragePool>(
      "hdd", sim::MediaType::kSasHdd, &clock_);
  hdd_pool_->AddCluster(options_.nodes, options_.hdd_disks_per_node,
                        options_.hdd_capacity_per_disk);
  bus_ = std::make_unique<sim::NetworkModel>(
      sim::NetworkProfile::ForTransport(options_.bus_transport), &clock_);
  compute_link_ = std::make_unique<sim::NetworkModel>(
      sim::NetworkProfile::ForTransport(options_.bus_transport), &clock_);

  plogs_ = std::make_unique<storage::PlogStore>(ssd_pool_.get(), options_.plog,
                                                &clock_);
  // Fragments must fit in one PLog record (with framing headroom).
  objects_ = std::make_unique<storage::ObjectStore>(
      plogs_.get(), &index_kv_, options_.plog.plog.capacity / 2);
  if (options_.stream_io_threads > 0) {
    stream_io_pool_ = std::make_unique<ThreadPool>(
        static_cast<int>(options_.stream_io_threads), "core.stream_io");
  }
  stream_objects_ = std::make_unique<stream::StreamObjectManager>(
      plogs_.get(), &index_kv_, &clock_, pmem_.get(),
      options_.pmem_cache_slices, stream_io_pool_.get());
  dispatcher_ = std::make_unique<streaming::StreamDispatcher>(
      stream_objects_.get(), service_meta_.get(), bus_.get(), &clock_,
      options_.stream_workers);
  metadata_ = std::make_unique<table::MetadataStore>(
      objects_.get(), metadata_cache_.get(), options_.metadata_mode);
  if (options_.scan_threads > 0) {
    scan_pool_ = std::make_unique<ThreadPool>(
        static_cast<int>(options_.scan_threads), "core.table_scan");
  }
  if (options_.block_cache_bytes > 0) {
    block_cache_ =
        std::make_unique<table::DecodedBlockCache>(options_.block_cache_bytes);
  }
  lakehouse_ = std::make_unique<table::LakehouseService>(
      metadata_.get(), objects_.get(), &clock_, compute_link_.get(),
      options_.table_options, scan_pool_.get(), block_cache_.get());
  converter_ = std::make_unique<convert::ConversionService>(
      dispatcher_.get(), stream_objects_.get(), lakehouse_.get(),
      service_meta_.get(), &clock_);
  archive_ = std::make_unique<streaming::ArchiveService>(
      dispatcher_.get(), objects_.get(), service_meta_.get());
  tiering_ = std::make_unique<storage::TieringService>(
      plogs_.get(), ssd_pool_.get(), hdd_pool_.get(), &clock_,
      options_.tiering_policy);
  repair_ = std::make_unique<storage::RepairService>(plogs_.get());

  // Access layer: clients reach the protocol services over TCP (the data
  // bus stays RDMA-class); every entry point shares one ACL table and,
  // when enabled, one admission controller.
  front_net_ = std::make_unique<sim::NetworkModel>(
      sim::NetworkProfile::ForTransport(sim::TransportType::kTcp), &clock_);
  acl_ = std::make_unique<access::AccessController>();
  if (options_.admission.enabled) {
    admission_ = std::make_unique<access::AdmissionController>(
        options_.admission, &clock_);
  }
  AdmissionGate* gate =
      options_.admission.gate_access_layer ? admission_.get() : nullptr;
  s3_ = std::make_unique<access::S3Gateway>(objects_.get(), acl_.get(),
                                            front_net_.get(), gate);
  blocks_ = std::make_unique<access::BlockService>(
      ssd_pool_.get(), acl_.get(), /*chunk_bytes=*/4ULL << 20,
      /*replication=*/2, gate);
}

StreamLake::~StreamLake() = default;

uint64_t StreamLake::PhysicalBytesAllocated() const {
  return ssd_pool_->AllocatedBytes() + hdd_pool_->AllocatedBytes();
}

StreamLake::ClusterReport StreamLake::Report() const {
  ClusterReport report;
  report.sim_seconds = clock_.NowSeconds();
  report.ssd_capacity = ssd_pool_->TotalCapacity();
  report.ssd_allocated = ssd_pool_->AllocatedBytes();
  report.hdd_capacity = hdd_pool_->TotalCapacity();
  report.hdd_allocated = hdd_pool_->AllocatedBytes();
  report.plogs = plogs_->TotalPlogs();
  report.plog_live_bytes = plogs_->TotalLiveBytes();
  report.plog_logical_bytes = plogs_->TotalLogicalBytes();
  report.objects = objects_->num_objects();
  report.ssd_io = ssd_pool_->AggregateStats();
  report.hdd_io = hdd_pool_->AggregateStats();
  report.bus_io = bus_->stats();
  report.stream_workers = dispatcher_->num_workers();
  report.stream_objects = stream_objects_->num_objects();
  if (stream_objects_->cache() != nullptr) {
    report.scm_cache_hits = stream_objects_->cache()->hits();
    report.scm_cache_misses = stream_objects_->cache()->misses();
  }
  report.tables = metadata_->ListTables().size();
  report.pending_metadata_flushes = metadata_->pending_flushes();
  if (block_cache_ != nullptr) {
    table::DecodedBlockCache::Stats cache = block_cache_->GetStats();
    report.block_cache_hits = cache.hits;
    report.block_cache_misses = cache.misses;
  }
  if (admission_ != nullptr) {
    for (const auto& [tenant, stats] : admission_->AllStats()) {
      report.admission_admitted_ops += stats.admitted_ops;
      report.admission_throttled_ops += stats.throttled_ops;
      report.admission_shed_ops += stats.shed_ops;
    }
  }
  return report;
}

std::string StreamLake::ClusterReport::ToString() const {
  char buf[1024];
  double hit_rate = scm_cache_hits + scm_cache_misses == 0
                        ? 0.0
                        : 100.0 * scm_cache_hits /
                              (scm_cache_hits + scm_cache_misses);
  double block_hit_rate = block_cache_hits + block_cache_misses == 0
                              ? 0.0
                              : 100.0 * block_cache_hits /
                                    (block_cache_hits + block_cache_misses);
  std::snprintf(
      buf, sizeof(buf),
      "cluster @ %.1f sim-s\n"
      "  ssd: %.1f / %.1f GB allocated | io r=%llu w=%llu ops\n"
      "  hdd: %.1f / %.1f GB allocated | io r=%llu w=%llu ops\n"
      "  plogs: %llu (%.1f MB live of %.1f MB logical) | objects: %llu\n"
      "  bus: %llu msgs, %.1f MB\n"
      "  workers: %u | stream objects: %zu | scm hit rate: %.1f%%\n"
      "  tables: %zu | pending metadata flushes: %zu | block cache hit "
      "rate: %.1f%%\n"
      "  admission: %llu admitted (%llu throttled), %llu shed\n",
      sim_seconds, ssd_allocated / 1073741824.0, ssd_capacity / 1073741824.0,
      static_cast<unsigned long long>(ssd_io.read_ops),
      static_cast<unsigned long long>(ssd_io.write_ops),
      hdd_allocated / 1073741824.0, hdd_capacity / 1073741824.0,
      static_cast<unsigned long long>(hdd_io.read_ops),
      static_cast<unsigned long long>(hdd_io.write_ops),
      static_cast<unsigned long long>(plogs),
      plog_live_bytes / 1048576.0, plog_logical_bytes / 1048576.0,
      static_cast<unsigned long long>(objects),
      static_cast<unsigned long long>(bus_io.messages),
      bus_io.bytes / 1048576.0, stream_workers, stream_objects, hit_rate,
      tables, pending_metadata_flushes, block_hit_rate,
      static_cast<unsigned long long>(admission_admitted_ops),
      static_cast<unsigned long long>(admission_throttled_ops),
      static_cast<unsigned long long>(admission_shed_ops));
  return buf;
}

Result<query::QueryResult> StreamLake::Query(const std::string& sql,
                                             table::SelectMetrics* metrics) {
  SL_ASSIGN_OR_RETURN(query::SqlStatement statement, query::ParseSql(sql));
  return lakehouse_->Query(statement, {}, metrics);
}

Status StreamLake::RunBackgroundWork() {
  SL_ASSIGN_OR_RETURN([[maybe_unused]] size_t flushed,
                      metadata_->FlushPending());
  SL_ASSIGN_OR_RETURN(auto tiering_stats, tiering_->Run());
  // PLog migration rewrote data between tiers; cached decoded blocks keep
  // their logical content but would dodge the re-read cost accounting of
  // the new tier, so drop them wholesale (coarse but rare).
  if (block_cache_ != nullptr && tiering_stats.migrated_plogs > 0) {
    block_cache_->InvalidateAll();
  }
  SL_ASSIGN_OR_RETURN([[maybe_unused]] auto repair_stats, repair_->Run());
  return Status::OK();
}

}  // namespace streamlake::core
