#ifndef STREAMLAKE_SIM_NETWORK_MODEL_H_
#define STREAMLAKE_SIM_NETWORK_MODEL_H_

#include <atomic>
#include <cstdint>
#include <string>

#include "sim/clock.h"

namespace streamlake::sim {

/// Transport classes of the data exchange bus (Section III). RDMA bypasses
/// the CPU/TCP stack, so its per-message overhead is ~an order of magnitude
/// lower while the wire bandwidth (10 Gb ethernet in the testbed) is shared.
enum class TransportType { kRdma, kTcp, kLocal };

struct NetworkProfile {
  std::string name;
  uint64_t per_message_ns = 0;  // protocol/switching overhead per message
  uint64_t bandwidth_bytes_per_sec = 1;

  static NetworkProfile Rdma();
  static NetworkProfile Tcp();
  /// Intra-process handoff (producer -> worker on same node).
  static NetworkProfile Local();
  static NetworkProfile ForTransport(TransportType transport);
};

struct NetworkStats {
  uint64_t messages = 0;
  uint64_t bytes = 0;
  uint64_t busy_ns = 0;
};

/// Charges simulated transfer cost for messages crossing the data bus.
class NetworkModel {
 public:
  NetworkModel(NetworkProfile profile, SimClock* clock)
      : profile_(std::move(profile)), clock_(clock) {}

  uint64_t TransferCostNanos(uint64_t bytes) const {
    return profile_.per_message_ns +
           bytes * kSecond / profile_.bandwidth_bytes_per_sec;
  }

  /// Charge one message of `bytes` to the clock; returns charged nanos.
  uint64_t ChargeTransfer(uint64_t bytes);

  const NetworkProfile& profile() const { return profile_; }
  NetworkStats stats() const;

 private:
  NetworkProfile profile_;
  SimClock* clock_;
  std::atomic<uint64_t> messages_{0};
  std::atomic<uint64_t> bytes_{0};
  std::atomic<uint64_t> busy_ns_{0};
};

}  // namespace streamlake::sim

#endif  // STREAMLAKE_SIM_NETWORK_MODEL_H_
