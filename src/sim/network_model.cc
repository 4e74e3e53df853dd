#include "sim/network_model.h"

namespace streamlake::sim {

NetworkProfile NetworkProfile::Rdma() {
  return NetworkProfile{
      .name = "rdma",
      .per_message_ns = 2 * kMicro,
      .bandwidth_bytes_per_sec = 1250ULL * 1000 * 1000,  // 10 Gb ethernet
  };
}

NetworkProfile NetworkProfile::Tcp() {
  return NetworkProfile{
      .name = "tcp",
      .per_message_ns = 30 * kMicro,
      .bandwidth_bytes_per_sec = 1250ULL * 1000 * 1000,
  };
}

NetworkProfile NetworkProfile::Local() {
  return NetworkProfile{
      .name = "local",
      .per_message_ns = 200,
      .bandwidth_bytes_per_sec = 10000ULL * 1000 * 1000,
  };
}

NetworkProfile NetworkProfile::ForTransport(TransportType transport) {
  switch (transport) {
    case TransportType::kRdma:
      return Rdma();
    case TransportType::kTcp:
      return Tcp();
    case TransportType::kLocal:
      return Local();
  }
  return Tcp();
}

uint64_t NetworkModel::ChargeTransfer(uint64_t bytes) {
  uint64_t cost = TransferCostNanos(bytes);
  clock_->Advance(cost);
  messages_.fetch_add(1, std::memory_order_relaxed);
  bytes_.fetch_add(bytes, std::memory_order_relaxed);
  busy_ns_.fetch_add(cost, std::memory_order_relaxed);
  return cost;
}

NetworkStats NetworkModel::stats() const {
  NetworkStats s;
  s.messages = messages_.load(std::memory_order_relaxed);
  s.bytes = bytes_.load(std::memory_order_relaxed);
  s.busy_ns = busy_ns_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace streamlake::sim
