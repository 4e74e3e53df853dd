// `ingest`: the Fig. 12 / Table I collection path on an EC(4,1)
// deployment. One producer sends batches of ~1.2 KB DPI messages to a
// topic with convert_2_table on (delete_msg = true), one consumer tails the
// topic, and the conversion service runs whenever its message-count trigger
// is reached. No Select is issued.
//
// Epochs run in pairs on fresh deployments; both epochs of a pair replay
// the same seed-derived messages, so their deterministic counts must match.

#include <functional>

#include "bench.h"
#include "workload/dpi_log.h"

namespace perfbench {

namespace {

using namespace streamlake;

constexpr size_t kBatchMessages = 100;
constexpr uint64_t kConvertEvery = 5000;    // split_offset trigger
constexpr uint64_t kWarmupMessages = 5000;  // one conversion, untimed
constexpr uint64_t kEpochMessages = 30000;  // six conversions, timed
constexpr size_t kPollMax = 1024;
constexpr char kTopic[] = "collect";

using Batch = std::vector<streaming::Message>;

uint64_t MessageHash(const streaming::Message& m) {
  return std::hash<std::string>{}(m.key) * 31 +
         std::hash<std::string>{}(m.value) + static_cast<uint64_t>(m.timestamp);
}

// Latency samples of the timed window.
struct IngestSamples {
  Samples produce_ms, produce_sim_ms, poll_ms, convert_ms;
  Samples traced_op_ms, untraced_op_ms;
  double busy_s = 0;     // time inside SendBatch, Poll and Run
  double convert_s = 0;  // time inside Run
  Samples msgs_per_s;    // one sample per epoch
};

/// One deployment with its topic, producer and consumer, and the running
/// counts the checks compare.
class Pipeline {
 public:
  Pipeline(Outcome* out, Tracer* tracer)
      : out_(out), tracer_(tracer), lake_(Options()),
        producer_(lake_.NewProducer()), consumer_(lake_.NewConsumer("etl")) {
    streaming::TopicConfig config;
    config.stream_num = 3;
    config.convert_2_table.enabled = true;
    config.convert_2_table.table_schema = workload::DpiLogGenerator::Schema();
    config.convert_2_table.table_path = "dpi";
    config.convert_2_table.partition_spec =
        table::PartitionSpec::Identity("province");
    config.convert_2_table.split_offset = kConvertEvery;
    // Only the message-count trigger fires within a run.
    config.convert_2_table.split_time_sec = 1'000'000'000;
    config.convert_2_table.delete_msg = true;
    out_->Op(lake_.dispatcher().CreateTopic(kTopic, config), "CreateTopic");
    out_->Op(consumer_.Subscribe(kTopic), "Subscribe");
  }

  core::StreamLake& lake() { return lake_; }
  uint64_t produced() const { return produced_; }
  uint64_t consumed() const { return consumed_; }
  uint64_t converted() const { return converted_; }
  uint64_t consumed_hash() const { return consumed_hash_; }

  /// Send one batch, tail the topic until caught up, and convert when the
  /// trigger is due. Timings go to `s` when it is non-null.
  void Step(const Batch& batch, IngestSamples* s) {
    Tracer::Span op_span(tracer_, "client.produce");
    uint64_t sim0 = lake_.clock().NowNanos();
    uint64_t t0 = WallNanos();
    Status sent = [&] {
      Tracer::Span span(tracer_, "streaming.send_batch");
      return producer_.SendBatch(kTopic, batch);
    }();
    uint64_t t1 = WallNanos();
    out_->Op(sent, "SendBatch");
    if (sent.ok()) produced_ += batch.size();
    if (s != nullptr) {
      s->produce_ms.Add((t1 - t0) / 1e6);
      s->produce_sim_ms.Add((lake_.clock().NowNanos() - sim0) / 1e6);
      s->busy_s += (t1 - t0) / 1e9;
    }

    while (consumed_ < produced_) {
      uint64_t p0 = WallNanos();
      auto polled = [&] {
        Tracer::Span span(tracer_, "streaming.poll");
        return consumer_.Poll(kPollMax);
      }();
      uint64_t p1 = WallNanos();
      out_->Op(polled.status(), "Poll");
      if (s != nullptr) {
        s->poll_ms.Add((p1 - p0) / 1e6);
        s->busy_s += (p1 - p0) / 1e9;
      }
      if (!polled.ok() || polled->empty()) break;
      for (const streaming::ConsumedMessage& m : *polled) {
        consumed_hash_ += MessageHash(m.message);
      }
      consumed_ += polled->size();
    }

    if (produced_ - converted_ < kConvertEvery) return;
    uint64_t c0 = WallNanos();
    auto run = [&] {
      Tracer::Span span(tracer_, "convert.run");
      return lake_.converter().Run(kTopic);
    }();
    uint64_t c1 = WallNanos();
    out_->Op(run.status(), "ConversionService::Run");
    if (s != nullptr) {
      s->convert_ms.Add((c1 - c0) / 1e6);
      s->convert_s += (c1 - c0) / 1e9;
      s->busy_s += (c1 - c0) / 1e9;
    }
    if (!run.ok()) return;
    out_->Check(run->triggered && run->parse_errors == 0 &&
                    run->converted_records == produced_ - converted_,
                "conversion converted " +
                    std::to_string(run->converted_records) + " of " +
                    std::to_string(produced_ - converted_) + " records");
    converted_ += run->converted_records;
  }

 private:
  static core::StreamLakeOptions Options() {
    core::StreamLakeOptions options;
    options.ssd_capacity_per_disk = 16ULL << 30;
    options.plog.plog.redundancy =
        storage::RedundancyConfig::ErasureCoding(4, 1);
    return options;
  }

  Outcome* out_;
  Tracer* tracer_;
  core::StreamLake lake_;
  streaming::Producer producer_;
  streaming::Consumer consumer_;
  uint64_t produced_ = 0, consumed_ = 0, converted_ = 0;
  uint64_t consumed_hash_ = 0;
};

}  // namespace

Outcome RunIngest(const RunOptions& options, Tracer* tracer) {
  Outcome out;

  // The inputs of the current pair of epochs: the warm-up batches, then
  // the timed batches.
  std::vector<Batch> batches;
  uint64_t user_bytes = 0, timed_user_bytes = 0;
  uint64_t expected_hash = 0;
  const uint64_t total = kWarmupMessages + kEpochMessages;
  const size_t warmup_batches = kWarmupMessages / kBatchMessages;
  auto make_inputs = [&](int set) {
    workload::DpiLogOptions gen_options;
    gen_options.seed = DeriveSeed(options.seed, 100 + set);
    workload::DpiLogGenerator gen(gen_options);
    batches.clear();
    user_bytes = timed_user_bytes = expected_hash = 0;
    for (uint64_t i = 0; i < total; i += kBatchMessages) {
      Batch batch;
      for (size_t j = 0; j < kBatchMessages; ++j) {
        batch.push_back(gen.NextMessage());
        user_bytes += batch.back().ByteSize();
        if (i >= kWarmupMessages) timed_user_bytes += batch.back().ByteSize();
        expected_hash += MessageHash(batch.back());
      }
      batches.push_back(std::move(batch));
    }
  };

  IngestSamples s;
  LayerWindow window;
  uint64_t timed_converted = 0;
  uint64_t op_n = 0;
  double stored_bytes = 0, stored_user_bytes = 0;
  double file_bytes = 0, file_rows = 0;

  for (int epoch = 0; MoreEpochs(epoch, window.wall_s, options.seconds);
       ++epoch) {
    if (epoch % 2 == 0) make_inputs(InputSetOf(epoch));
    // ---- set-up: deployment, topic, clients, one warm-up conversion ----
    const EpochStart start = EpochStart::Take();
    uint64_t setup_start = WallNanos();
    Pipeline pipe(&out, tracer);
    for (size_t b = 0; b < warmup_batches; ++b) {
      tracer->BeginOp(++op_n);
      pipe.Step(batches[b], nullptr);
    }
    out.setup_s.Add((WallNanos() - setup_start) / 1e9);
    const uint64_t converted_before = pipe.converted();
    const double busy_before = s.busy_s;

    // ---- timed window ----
    window.Begin(pipe.lake());
    for (size_t b = warmup_batches; b < batches.size(); ++b) {
      tracer->BeginOp(++op_n);
      uint64_t op_start = WallNanos();
      pipe.Step(batches[b], &s);
      (tracer->active() ? s.traced_op_ms : s.untraced_op_ms)
          .Add((WallNanos() - op_start) / 1e6);
    }
    window.End(pipe.lake());
    window.ops += batches.size() - warmup_batches;
    window.user_bytes += timed_user_bytes;
    timed_converted += pipe.converted() - converted_before;
    s.msgs_per_s.Add((pipe.converted() - converted_before) /
                     (s.busy_s - busy_before));

    // ---- checks (untimed) ----
    out.Check(pipe.produced() == total && pipe.consumed() == total &&
                  pipe.consumed_hash() == expected_hash,
              "consumer saw " + std::to_string(pipe.consumed()) + " of " +
                  std::to_string(pipe.produced()) + " produced messages");
    out.Check(pipe.converted() == total,
              "converted " + std::to_string(pipe.converted()) + " of " +
                  std::to_string(total));
    uint64_t table_rows = 0;
    auto dpi = pipe.lake().lakehouse().GetTable("dpi");
    if (dpi.ok()) {
      auto files = (*dpi)->LiveFiles();
      out.Op(files.status(), "LiveFiles");
      if (files.ok()) {
        for (const table::DataFileMeta& f : *files) {
          table_rows += f.record_count;
          file_bytes += f.file_bytes;
          file_rows += f.record_count;
        }
      }
    }
    out.Check(table_rows == total,
              "table holds " + std::to_string(table_rows) + " rows");

    const Fingerprint fp =
        TakeFingerprint(pipe.lake(), start, InputSetOf(epoch), user_bytes);
    out.fingerprints.push_back(fp);
    stored_bytes += fp.live_physical_bytes;
    stored_user_bytes += user_bytes;
  }
  const double bytes_stored = stored_bytes / stored_user_bytes;

  // Median over epochs: a burst of machine noise moves one epoch, not the
  // run.
  const double msgs_per_s = s.msgs_per_s.Quantile(0.5);
  const double cpu_ms_per_op = window.cpu_s * 1e3 / window.ops;
  out.end_to_end = {
      {"op_p50_ms", {s.produce_ms.Quantile(0.5), "ms"}},
      {"sim_ms_per_op", {s.produce_sim_ms.Mean(), "ms"}},
      {"cpu_ms_per_op", {cpu_ms_per_op, "ms"}},
      {"bytes_stored_per_user_byte", {bytes_stored, "B/B"}},
  };
  out.named = {
      {"produce_p50_ms", {s.produce_ms.Quantile(0.5), "ms"}},
      {"produce_p99_ms", P99(s.produce_ms)},
      {"ingest_msgs_per_s", {msgs_per_s, "1/s"}},
      {"convert_p50_ms", {s.convert_ms.Quantile(0.5), "ms"}},
      {"produce_sim_mean_ms", {s.produce_sim_ms.Mean(), "ms"}},
      {"bytes_stored_per_user_byte", {bytes_stored, "B/B"}},
  };
  out.notes = {
      {"samples", "produce=" + std::to_string(s.produce_ms.count()) +
                      " poll=" + std::to_string(s.poll_ms.count()) +
                      " convert=" + std::to_string(s.convert_ms.count())},
      {"epoch", std::to_string(kWarmupMessages) + " warm-up + " +
                    std::to_string(kEpochMessages) +
                    " timed messages in batches of " +
                    std::to_string(kBatchMessages) + ", convert every " +
                    std::to_string(kConvertEvery)},
      {"user_bytes_per_epoch", std::to_string(user_bytes) + " (last set)"},
  };

  if (tracer->enabled()) {
    FillPerLayer(window, *tracer, &out);
    SetLayer(&out, "sim.produce_ns", s.produce_sim_ms.Mean() * 1e6);
    SetLayer(&out, "convert.rows_per_s", timed_converted / s.convert_s);
    SetLayer(&out, "table.file_bytes_per_row", file_bytes / file_rows);
    SetLayer(&out, "trace.overhead_pct",
             100.0 * (s.traced_op_ms.Quantile(0.5) /
                          s.untraced_op_ms.Quantile(0.5) -
                      1.0));
  }
  return out;
}

}  // namespace perfbench
