#ifndef STREAMLAKE_STREAMING_STREAM_WORKER_H_
#define STREAMLAKE_STREAMING_STREAM_WORKER_H_

#include <cstdint>
#include <set>
#include <vector>

#include "common/mutex.h"
#include "sim/network_model.h"
#include "stream/stream_object.h"
#include "streaming/message.h"

namespace streamlake::streaming {

/// \brief A stream worker of the data service layer (Fig. 6): handles the
/// streams assigned to it and talks to their stream objects through a
/// stream object client over the RDMA data bus.
///
/// Workers are stateless with respect to the stream data, which is what
/// makes scaling "without data migration" possible: reassigning a stream
/// to another worker only rewires metadata.
class StreamWorker {
 public:
  StreamWorker(uint32_t id, stream::StreamObjectManager* objects,
               sim::NetworkModel* bus)
      : id_(id), objects_(objects), bus_(bus) {}

  uint32_t id() const { return id_; }

  void AssignStream(uint64_t stream_object_id);
  void UnassignStream(uint64_t stream_object_id);
  size_t num_streams() const;
  bool HandlesStream(uint64_t stream_object_id) const;

  /// Publish messages into one stream object. Charges the data-bus
  /// transfer (client -> worker -> stream object) and appends; `flush`
  /// persists the partial final slice too (StreamObject::Append).
  Result<uint64_t> Produce(uint64_t stream_object_id,
                           const std::vector<Message>& messages,
                           uint64_t producer_id, uint64_t first_seq,
                           bool flush = false);

  /// Fetch up to `max_records` messages from a stream at `offset`.
  Result<std::vector<stream::StreamRecord>> Fetch(uint64_t stream_object_id,
                                                  uint64_t offset,
                                                  size_t max_records);

  /// First offset with event time >= `timestamp` (consumer seeks).
  Result<uint64_t> FindOffsetByTimestamp(uint64_t stream_object_id,
                                         int64_t timestamp);

 private:
  /// The object of a stream this worker handles. NotFound otherwise, or
  /// when the object is gone: Producer::Deliver re-routes on NotFound.
  Result<stream::StreamObject*> ObjectFor(uint64_t stream_object_id) const;

  const uint32_t id_;
  stream::StreamObjectManager* objects_;
  sim::NetworkModel* bus_;
  mutable Mutex mu_{LockRank::kStreamWorker, "streaming.worker"};
  std::set<uint64_t> streams_ GUARDED_BY(mu_);
};

}  // namespace streamlake::streaming

#endif  // STREAMLAKE_STREAMING_STREAM_WORKER_H_
