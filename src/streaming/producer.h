#ifndef STREAMLAKE_STREAMING_PRODUCER_H_
#define STREAMLAKE_STREAMING_PRODUCER_H_

#include <map>
#include <string>
#include <vector>

#include "common/admission_gate.h"
#include "streaming/dispatcher.h"
#include "streaming/message.h"

namespace streamlake::streaming {

/// \brief Kafka-compatible producer (Fig. 7): publishes messages to topics
/// through the dispatcher's routing.
///
/// Every message carries a (producer_id, sequence) pair, so a network
/// retry (Resend) is deduplicated by the stream object — idempotent writes.
class Producer {
 public:
  explicit Producer(StreamDispatcher* dispatcher)
      : dispatcher_(dispatcher),
        producer_id_(dispatcher->NextProducerId()) {}

  /// Publish one message; returns the offset it landed at in its stream.
  Result<uint64_t> Send(const std::string& topic, const Message& message);

  /// Publish a batch routed by each message's key.
  Status SendBatch(const std::string& topic,
                   const std::vector<Message>& messages);

  /// Re-send the last Send() verbatim, as a client would after a timeout.
  /// The duplicate is dropped server-side (same producer sequence).
  /// Retries are not re-metered: the original send already paid admission,
  /// and the duplicate is dropped server-side anyway.
  Result<uint64_t> ResendLast();

  /// Gate every Send/SendBatch through per-tenant admission as `tenant`.
  /// Blocking (the default) is producer backpressure: an over-quota send
  /// waits on the simulated clock until its throttle window passes, then
  /// proceeds — kResourceExhausted only when the tenant's waiter queue is
  /// full. Non-blocking sends shed immediately instead of waiting.
  void SetAdmission(AdmissionGate* gate, std::string tenant,
                    bool blocking = true) {
    admission_ = gate;
    tenant_ = std::move(tenant);
    admission_blocking_ = blocking;
  }

  uint64_t producer_id() const { return producer_id_; }

 private:
  /// Pass the admission gate for `ops` messages totalling `bytes`.
  Status Gate(uint64_t ops, uint64_t bytes);

  /// Hand `messages` (sequenced from `first_seq`) to `route`'s worker,
  /// persisting the partial final slice when `flush`. A concurrent
  /// ResizeWorkers can move the stream off that worker after routing, and
  /// the worker then refuses it with NotFound before appending anything;
  /// like a Kafka client on a stale leader, re-route by stream index and
  /// retry with the same sequence numbers, up to kMaxReroutes times.
  Result<uint64_t> Deliver(const std::string& topic,
                           StreamDispatcher::Route route,
                           const std::vector<Message>& messages,
                           uint64_t first_seq, bool flush);
  static constexpr int kMaxReroutes = 8;

  struct LastSend {
    std::string topic;
    Message message;
    uint64_t seq = 0;
  };

  StreamDispatcher* dispatcher_;
  const uint64_t producer_id_;
  AdmissionGate* admission_ = nullptr;  // optional per-tenant QoS gate
  std::string tenant_;
  bool admission_blocking_ = true;
  std::map<uint64_t, uint64_t> next_seq_;  // per stream object
  LastSend last_;
  bool has_last_ = false;
};

}  // namespace streamlake::streaming

#endif  // STREAMLAKE_STREAMING_PRODUCER_H_
