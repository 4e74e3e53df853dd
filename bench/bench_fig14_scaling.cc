// Reproduces Fig. 14(c): partition scaling time. "The service gracefully
// scales from 1000 to 10000 partitions in less than 10 seconds", because
// scaling only rewires dispatcher metadata — no data migration.
//
// We create a topic with 1000 streams, publish data, then grow to 10000
// partitions, reporting (a) the simulated metadata-update time and (b)
// that zero bytes of stream data moved.

#include <cstdio>
#include <string>
#include <vector>

#include "bench_report.h"
#include "core/streamlake.h"

using namespace streamlake;

int main(int argc, char** argv) {
  bench::BenchReport report("fig14_scaling", &argc, argv);
  core::StreamLakeOptions options;
  core::StreamLake lake(options);

  streaming::TopicConfig config;
  config.stream_num = 1000;
  if (!lake.dispatcher().CreateTopic("scale", config).ok()) {
    std::fprintf(stderr, "create topic failed\n");
    return 1;
  }
  auto producer = lake.NewProducer();
  for (int i = 0; i < 5000; ++i) {
    SL_CHECK_OK(producer.Send("scale", streaming::Message("k" + std::to_string(i), "v")));
  }
  std::printf("Fig. 14(c): partition scaling (metadata-only)\n\n");
  std::printf("%22s %16s %16s %14s\n", "partitions", "scale time (s)",
              "data moved (B)", "worker moves");

  sim::DeviceStats before_io = lake.ssd_pool().AggregateStats();
  std::vector<uint32_t> targets = {2000, 4000, 6000, 8000, 10000};
  uint32_t current = 1000;
  uint64_t data_moved = 0;
  for (uint32_t target : targets) {
    uint64_t t0 = lake.clock().NowNanos();
    if (!lake.dispatcher().AddStreams("scale", target - current).ok()) {
      std::fprintf(stderr, "scaling failed\n");
      return 1;
    }
    uint64_t elapsed = lake.clock().NowNanos() - t0;
    sim::DeviceStats after_io = lake.ssd_pool().AggregateStats();
    const uint64_t moved = after_io.bytes_written - before_io.bytes_written;
    std::printf("%10u -> %8u %16.3f %16llu %14s\n", current, target,
                elapsed / 1e9, static_cast<unsigned long long>(moved),
                "metadata-only");
    report.Add("p" + std::to_string(target) + ".scale_ns",
               static_cast<double>(elapsed));
    data_moved += moved;
    before_io = after_io;
    current = target;
  }

  // Worker scaling is equally metadata-only.
  uint64_t t0 = lake.clock().NowNanos();
  SL_CHECK_OK(lake.dispatcher().ResizeWorkers(24));
  const uint64_t rebalance_ns = lake.clock().NowNanos() - t0;
  std::printf("\nworkers 3 -> 24 rebalanced %u streams in %.3f simulated s\n",
              *lake.dispatcher().NumStreams("scale"), rebalance_ns / 1e9);

  // Messages remain consumable across the resize.
  auto consumer = lake.NewConsumer("g");
  SL_CHECK_OK(consumer.Subscribe("scale"));
  auto polled = consumer.Poll(10000);
  const size_t intact = polled.ok() ? polled->size() : 0;
  std::printf("post-scale consumption: %zu messages intact\n", intact);
  report.Add("data_moved_bytes", static_cast<double>(data_moved));
  report.Add("rebalance_ns", static_cast<double>(rebalance_ns));
  report.Add("messages_intact", static_cast<double>(intact));
  return report.WriteIfRequested() ? 0 : 1;
}
