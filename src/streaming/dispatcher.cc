#include "streaming/dispatcher.h"

#include "common/coding.h"
#include "common/hash.h"

namespace streamlake::streaming {

namespace {

// The durable records of a topic. Its config key is the commit record:
// written after every other key of the topic and deleted before any, so
// Recover, which restores exactly the topics that have one, never meets a
// torn topic.
std::string TopicKey(const std::string& topic, const char* field) {
  return "topic/" + topic + "/" + field;
}

std::string StreamKey(const std::string& topic, uint32_t index) {
  return "topic/" + topic + "/stream/" + std::to_string(index);
}

std::string AssignKey(uint64_t stream_object_id) {
  return "assign/" + std::to_string(stream_object_id);
}

}  // namespace

StreamDispatcher::StreamDispatcher(stream::StreamObjectManager* objects,
                                   kv::KvStore* meta, sim::NetworkModel* bus,
                                   sim::SimClock* clock,
                                   uint32_t initial_workers)
    : objects_(objects), meta_(meta), bus_(bus), clock_(clock) {
  for (uint32_t i = 0; i < initial_workers; ++i) {
    workers_.push_back(std::make_unique<StreamWorker>(i, objects_, bus_));
    last_heartbeat_ns_.push_back(clock_->NowNanos());
  }
}

void StreamDispatcher::UnassignLocked(uint64_t stream_object_id) {
  auto it = stream_to_worker_.find(stream_object_id);
  if (it == stream_to_worker_.end()) return;
  workers_[it->second]->UnassignStream(stream_object_id);
  stream_to_worker_.erase(it);
}

Status StreamDispatcher::AssignStreamLocked(uint64_t stream_object_id,
                                            uint32_t worker_index) {
  auto it = stream_to_worker_.find(stream_object_id);
  if (it != stream_to_worker_.end() && it->second == worker_index) {
    return Status::OK();
  }
  UnassignLocked(stream_object_id);
  workers_[worker_index]->AssignStream(stream_object_id);
  stream_to_worker_[stream_object_id] = worker_index;
  // Topology change recorded in the fault-tolerant KV store; refreshing
  // this mapping is the whole cost of a scaling event.
  return meta_->Put(AssignKey(stream_object_id), std::to_string(worker_index));
}

Status StreamDispatcher::GrowTopicLocked(const std::string& topic,
                                         TopicState& state, uint32_t n) {
  stream::StreamObjectOptions options;
  options.io_quota_records_per_sec = state.config.quota;
  options.use_scm_cache = state.config.scm_cache;
  const uint32_t base = static_cast<uint32_t>(state.stream_object_ids.size());
  std::vector<uint64_t> added;
  Status s = Status::OK();
  for (uint32_t i = base; s.ok() && i < base + n; ++i) {
    auto id = objects_->CreateObject(options);
    if (!id.ok()) {
      s = id.status();
      break;
    }
    added.push_back(*id);
    // Round-robin placement "to ensure even distribution and workload
    // balancing across the cluster".
    s = AssignStreamLocked(*id, i % static_cast<uint32_t>(workers_.size()));
    if (s.ok()) s = meta_->Put(StreamKey(topic, i), std::to_string(*id));
  }
  // Recover reads the stream keys through the count, so the count goes
  // after them, and a new topic's commit record after the count.
  bool counted = false;
  if (s.ok()) {
    s = meta_->Put(TopicKey(topic, "streams"), std::to_string(base + n));
    counted = s.ok();
  }
  if (s.ok() && base == 0) {
    Bytes encoded;
    state.config.EncodeTo(&encoded);
    s = meta_->Put(TopicKey(topic, "config"), BytesToString(encoded));
  }
  if (!s.ok()) {
    // Retract what was written, count first. The fresh stream objects hold
    // no records; destroying them takes a condition wait that must not run
    // under mu_ (see DeleteTopic), so their ids are left unreferenced.
    const char* why = "grow-topic rollback";
    if (counted) meta_->Delete(TopicKey(topic, "streams")).LogIgnored(why);
    for (uint32_t i = 0; i < added.size(); ++i) {
      UnassignLocked(added[i]);
      meta_->Delete(AssignKey(added[i])).LogIgnored(why);
      meta_->Delete(StreamKey(topic, base + i)).LogIgnored(why);
    }
    return s;
  }
  state.stream_object_ids.insert(state.stream_object_ids.end(), added.begin(),
                                 added.end());
  state.config.stream_num = base + n;
  return Status::OK();
}

Status StreamDispatcher::CreateTopic(const std::string& topic,
                                     const TopicConfig& config) {
  MutexLock lock(&mu_);
  if (topics_.count(topic)) {
    return Status::AlreadyExists("topic " + topic);
  }
  if (config.stream_num == 0) {
    return Status::InvalidArgument("stream_num must be positive");
  }
  TopicState state;
  state.config = config;
  SL_RETURN_NOT_OK(GrowTopicLocked(topic, state, config.stream_num));
  // Publish last: the topic becomes routable only after every durable
  // write of the protocol has succeeded.
  topics_[topic] = std::move(state);
  return Status::OK();
}

Status StreamDispatcher::AddStreams(const std::string& topic,
                                    uint32_t additional) {
  MutexLock lock(&mu_);
  auto it = topics_.find(topic);
  if (it == topics_.end()) return Status::NotFound("topic " + topic);
  return GrowTopicLocked(topic, it->second, additional);
}

Status StreamDispatcher::DeleteTopic(const std::string& topic) {
  // Retract the commit record first, then detach the topic and unassign
  // its streams under the lock; destroy the stream objects outside it —
  // DestroyObject drains in-flight appends (a condition wait) and must not
  // park every other dispatcher operation.
  TopicState state;
  {
    MutexLock lock(&mu_);
    auto it = topics_.find(topic);
    if (it == topics_.end()) return Status::NotFound("topic " + topic);
    SL_RETURN_NOT_OK(meta_->Delete(TopicKey(topic, "config")));
    state = std::move(it->second);
    topics_.erase(it);
    for (uint64_t id : state.stream_object_ids) UnassignLocked(id);
  }
  for (uint32_t i = 0; i < state.stream_object_ids.size(); ++i) {
    uint64_t id = state.stream_object_ids[i];
    SL_RETURN_NOT_OK(objects_->DestroyObject(id));
    SL_RETURN_NOT_OK(meta_->Delete(AssignKey(id)));
    SL_RETURN_NOT_OK(meta_->Delete(StreamKey(topic, i)));
  }
  return meta_->Delete(TopicKey(topic, "streams"));
}

Result<size_t> StreamDispatcher::Recover() {
  MutexLock lock(&mu_);
  if (!topics_.empty()) {
    return Status::InvalidArgument("recovery requires an empty dispatcher");
  }
  size_t recovered = 0;
  for (const auto& [key, value] : meta_->Scan("topic/")) {
    constexpr std::string_view kSuffix = "/config";
    if (key.size() <= 6 + kSuffix.size() ||
        key.compare(key.size() - kSuffix.size(), kSuffix.size(), kSuffix) !=
            0) {
      continue;
    }
    std::string topic = key.substr(6, key.size() - 6 - kSuffix.size());
    TopicState state;
    SL_ASSIGN_OR_RETURN(state.config, TopicConfig::DecodeFrom(ByteView(value)));
    const std::string count_key = TopicKey(topic, "streams");
    SL_ASSIGN_OR_RETURN(std::string count, meta_->Get(count_key));
    SL_ASSIGN_OR_RETURN(uint32_t streams,
                        ParseDecimal<uint32_t>(count, count_key));
    if (streams == 0) return Status::Corruption(count_key + ": no streams");
    for (uint32_t i = 0; i < streams; ++i) {
      const std::string stream_key = StreamKey(topic, i);
      SL_ASSIGN_OR_RETURN(std::string id_str, meta_->Get(stream_key));
      SL_ASSIGN_OR_RETURN(uint64_t id,
                          ParseDecimal<uint64_t>(id_str, stream_key));
      if (objects_->GetObject(id) == nullptr) {
        return Status::Corruption("stream object " + id_str +
                                  " missing; recover the object manager "
                                  "first");
      }
      state.stream_object_ids.push_back(id);
      // Restore the recorded assignment, folding onto the live workers.
      uint32_t worker = i;
      auto assigned = meta_->Get(AssignKey(id));
      if (assigned.ok()) {
        SL_ASSIGN_OR_RETURN(worker,
                            ParseDecimal<uint32_t>(*assigned, AssignKey(id)));
      }
      SL_RETURN_NOT_OK(AssignStreamLocked(
          id, worker % static_cast<uint32_t>(workers_.size())));
    }
    state.config.stream_num = streams;
    topics_[topic] = std::move(state);
    ++recovered;
  }
  return recovered;
}

bool StreamDispatcher::HasTopic(const std::string& topic) const {
  MutexLock lock(&mu_);
  return topics_.count(topic) > 0;
}

Result<TopicConfig> StreamDispatcher::GetTopicConfig(
    const std::string& topic) const {
  MutexLock lock(&mu_);
  auto it = topics_.find(topic);
  if (it == topics_.end()) return Status::NotFound("topic " + topic);
  return it->second.config;
}

Result<uint32_t> StreamDispatcher::NumStreams(const std::string& topic) const {
  MutexLock lock(&mu_);
  auto it = topics_.find(topic);
  if (it == topics_.end()) return Status::NotFound("topic " + topic);
  return static_cast<uint32_t>(it->second.stream_object_ids.size());
}

Result<uint64_t> StreamDispatcher::StreamObjectId(const std::string& topic,
                                                  uint32_t index) const {
  MutexLock lock(&mu_);
  auto it = topics_.find(topic);
  if (it == topics_.end()) return Status::NotFound("topic " + topic);
  if (index >= it->second.stream_object_ids.size()) {
    return Status::InvalidArgument("stream index out of range");
  }
  return it->second.stream_object_ids[index];
}

StreamDispatcher::Route StreamDispatcher::RouteLocked(const TopicState& state,
                                                      uint32_t index) const {
  const uint64_t id = state.stream_object_ids[index];
  return Route{index, id, workers_[stream_to_worker_.at(id)].get()};
}

Result<StreamDispatcher::Route> StreamDispatcher::RouteProduce(
    const std::string& topic, const std::string& key) {
  MutexLock lock(&mu_);
  auto it = topics_.find(topic);
  if (it == topics_.end()) return Status::NotFound("topic " + topic);
  TopicState& state = it->second;
  const uint64_t pick = key.empty() ? state.next_rr++ : Hash64(ByteView(key));
  return RouteLocked(
      state, static_cast<uint32_t>(pick % state.stream_object_ids.size()));
}

Result<StreamDispatcher::Route> StreamDispatcher::RouteFetch(
    const std::string& topic, uint32_t stream_index) {
  MutexLock lock(&mu_);
  auto it = topics_.find(topic);
  if (it == topics_.end()) return Status::NotFound("topic " + topic);
  if (stream_index >= it->second.stream_object_ids.size()) {
    return Status::InvalidArgument("stream index out of range");
  }
  return RouteLocked(it->second, stream_index);
}

Status StreamDispatcher::RebalanceLocked(uint32_t worker_count) {
  uint32_t cursor = 0;
  for (auto& [topic, state] : topics_) {
    for (uint64_t id : state.stream_object_ids) {
      SL_RETURN_NOT_OK(AssignStreamLocked(id, cursor % worker_count));
      ++cursor;
    }
  }
  return Status::OK();
}

Status StreamDispatcher::ResizeWorkers(uint32_t count) {
  MutexLock lock(&mu_);
  if (count == 0) return Status::InvalidArgument("need at least one worker");
  for (uint32_t w = static_cast<uint32_t>(workers_.size()); w < count; ++w) {
    workers_.push_back(std::make_unique<StreamWorker>(w, objects_, bus_));
    last_heartbeat_ns_.push_back(clock_->NowNanos());
  }
  // Rebalance over the surviving workers; shrinking retires the (now
  // empty) tail afterwards. No stream data moves.
  SL_RETURN_NOT_OK(RebalanceLocked(count));
  if (count < workers_.size()) {
    for (size_t w = count; w < workers_.size(); ++w) {
      retired_workers_.push_back(std::move(workers_[w]));
    }
    workers_.resize(count);
    last_heartbeat_ns_.resize(count);
  }
  return Status::OK();
}

void StreamDispatcher::Heartbeat(uint32_t worker_index) {
  MutexLock lock(&mu_);
  if (worker_index < last_heartbeat_ns_.size()) {
    last_heartbeat_ns_[worker_index] = clock_->NowNanos();
  }
}

Result<StreamDispatcher::HealthSweepStats> StreamDispatcher::SweepDeadWorkers(
    uint64_t timeout_ns) {
  MutexLock lock(&mu_);
  HealthSweepStats stats;
  const uint64_t now = clock_->NowNanos();
  std::vector<bool> dead(workers_.size(), false);
  std::vector<uint32_t> alive;
  for (uint32_t w = 0; w < workers_.size(); ++w) {
    if (now - last_heartbeat_ns_[w] > timeout_ns) {
      dead[w] = true;
      ++stats.dead_workers;
    } else {
      alive.push_back(w);
    }
  }
  if (stats.dead_workers == 0 || alive.empty()) {
    if (alive.empty() && stats.dead_workers > 0) {
      return Status::ResourceExhausted("every stream worker is dead");
    }
    return stats;
  }
  // Topology refresh only: streams of dead workers move to live ones
  // round-robin. No data migration — the point of the disaggregation.
  size_t cursor = 0;
  std::vector<std::pair<uint64_t, uint32_t>> to_move;
  for (const auto& [stream_id, worker] : stream_to_worker_) {
    if (dead[worker]) {
      to_move.emplace_back(stream_id, alive[cursor++ % alive.size()]);
    }
  }
  for (const auto& [stream_id, target] : to_move) {
    SL_RETURN_NOT_OK(AssignStreamLocked(stream_id, target));
    ++stats.streams_reassigned;
  }
  return stats;
}

uint32_t StreamDispatcher::num_workers() const {
  MutexLock lock(&mu_);
  return static_cast<uint32_t>(workers_.size());
}

StreamWorker* StreamDispatcher::worker(uint32_t index) {
  MutexLock lock(&mu_);
  return index < workers_.size() ? workers_[index].get() : nullptr;
}

uint64_t StreamDispatcher::NextProducerId() {
  MutexLock lock(&mu_);
  return next_producer_id_++;
}

}  // namespace streamlake::streaming
