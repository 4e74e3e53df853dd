#ifndef STREAMLAKE_WORKLOAD_OPENMESSAGING_H_
#define STREAMLAKE_WORKLOAD_OPENMESSAGING_H_

#include "streaming/consumer.h"
#include "streaming/producer.h"

namespace streamlake::workload {

/// Configuration of one OpenMessaging-style run ("messages are sent from
/// producers to consumers in a fixed size of 1 KB", Section VII-C).
struct OmbConfig {
  std::string topic = "omb";
  uint32_t partitions = 16;
  size_t message_bytes = 1024;
  /// Offered rate in messages per simulated second.
  double target_rate = 100000;
  uint64_t total_messages = 50000;
  size_t consume_batch = 512;
  /// Poll the consumer every this many produced messages.
  size_t poll_every = 256;
};

struct OmbResult {
  uint64_t messages_produced = 0;
  uint64_t messages_consumed = 0;
  double duration_sec = 0;            // simulated
  double produce_throughput = 0;      // msg / simulated second
  double end_to_end_p50_us = 0;       // send -> consume, simulated
  double end_to_end_p99_us = 0;
  double end_to_end_max_us = 0;
};

/// \brief Paced produce/consume driver measuring throughput and
/// end-to-end latency percentiles on the simulated clock, exposed as a
/// library so users can benchmark their own deployments. No bench runs it:
/// the Fig. 14 benches model their own load and latency.
class OmbDriver {
 public:
  OmbDriver(streaming::StreamDispatcher* dispatcher, kv::KvStore* offsets,
            sim::SimClock* clock)
      : dispatcher_(dispatcher), offsets_(offsets), clock_(clock) {}

  /// Creates the topic (if absent) and runs one paced sweep.
  Result<OmbResult> Run(const OmbConfig& config);

 private:
  streaming::StreamDispatcher* dispatcher_;
  kv::KvStore* offsets_;
  sim::SimClock* clock_;
};

}  // namespace streamlake::workload

#endif  // STREAMLAKE_WORKLOAD_OPENMESSAGING_H_
