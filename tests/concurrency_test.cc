// Multi-threaded stress tests for the concurrent core. Designed to run
// under ThreadSanitizer (cmake --preset tsan): each test drives real
// parallelism through the annotated Mutex wrappers, so a dropped guard or
// missed wakeup regresses into a TSan report or a hang here.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/threadpool.h"
#include "kv/kv_store.h"
#include "storage/plog_store.h"
#include "streaming/consumer.h"
#include "streaming/dispatcher.h"
#include "streaming/producer.h"
#include "streaming/txn_manager.h"

namespace streamlake {
namespace {

TEST(ThreadPoolConcurrencyTest, ParallelSubmitFromManyThreads) {
  ThreadPool pool(4);
  std::atomic<int> executed{0};
  constexpr int kSubmitters = 8;
  constexpr int kTasksEach = 200;
  std::vector<std::thread> submitters;
  submitters.reserve(kSubmitters);
  for (int t = 0; t < kSubmitters; ++t) {
    submitters.emplace_back([&] {
      for (int i = 0; i < kTasksEach; ++i) {
        pool.Submit([&] { executed.fetch_add(1, std::memory_order_relaxed); });
      }
    });
  }
  for (auto& t : submitters) t.join();
  pool.Shutdown();  // drains the queue
  EXPECT_EQ(executed.load(), kSubmitters * kTasksEach);
}

TEST(ThreadPoolConcurrencyTest, ShutdownDrainsQueuedTasks) {
  std::atomic<int> executed{0};
  constexpr int kTasks = 500;
  {
    ThreadPool pool(2);
    for (int i = 0; i < kTasks; ++i) {
      pool.Submit([&] { executed.fetch_add(1, std::memory_order_relaxed); });
    }
    pool.Shutdown();  // must drain the queue before joining
  }
  EXPECT_EQ(executed.load(), kTasks);
}

struct StreamingFixture {
  sim::SimClock clock;
  storage::StoragePool pool{"ssd", sim::MediaType::kNvmeSsd, &clock};
  sim::NetworkModel bus{sim::NetworkProfile::Rdma(), &clock};
  kv::KvStore index;
  kv::KvStore meta;
  std::unique_ptr<storage::PlogStore> plogs;
  std::unique_ptr<stream::StreamObjectManager> objects;
  std::unique_ptr<streaming::StreamDispatcher> dispatcher;

  explicit StreamingFixture(uint32_t workers = 3) {
    pool.AddCluster(3, 2, 256 << 20);
    storage::PlogStoreConfig config;
    config.num_shards = 16;
    config.plog.capacity = 16 << 20;
    config.plog.stripe_unit = 4096;
    config.plog.redundancy = storage::RedundancyConfig::Replication(3);
    plogs = std::make_unique<storage::PlogStore>(&pool, config, &clock);
    objects = std::make_unique<stream::StreamObjectManager>(
        plogs.get(), &index, &clock, nullptr, 0);
    dispatcher = std::make_unique<streaming::StreamDispatcher>(
        objects.get(), &meta, &bus, &clock, workers);
  }
};

TEST(StreamingConcurrencyTest, ConcurrentProduceAndConsume) {
  StreamingFixture f(3);
  streaming::TopicConfig config;
  config.stream_num = 4;
  ASSERT_TRUE(f.dispatcher->CreateTopic("events", config).ok());

  constexpr int kProducers = 4;
  constexpr int kPerProducer = 250;
  std::atomic<int> produced{0};
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      streaming::Producer producer(f.dispatcher.get());
      for (int i = 0; i < kPerProducer; ++i) {
        std::string key = "p" + std::to_string(p) + "-k" + std::to_string(i);
        auto offset = producer.Send(
            "events", streaming::Message(key, std::to_string(i)));
        ASSERT_TRUE(offset.ok()) << offset.status().ToString();
        produced.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  // One consumer polls while the producers are still appending; the rest
  // of the backlog drains after the join.
  streaming::Consumer consumer(f.dispatcher.get(), &f.meta, "group");
  ASSERT_TRUE(consumer.Subscribe("events").ok());
  size_t consumed = 0;
  auto drain = [&] {
    auto polled = consumer.Poll(128);
    ASSERT_TRUE(polled.ok()) << polled.status().ToString();
    consumed += polled->size();
  };
  while (produced.load(std::memory_order_relaxed) <
         kProducers * kPerProducer) {
    drain();
  }
  for (auto& t : producers) t.join();
  while (consumed < static_cast<size_t>(kProducers * kPerProducer)) {
    size_t before = consumed;
    drain();
    ASSERT_GT(consumed, before) << "consumer stopped making progress";
  }
  EXPECT_EQ(consumed, static_cast<size_t>(kProducers * kPerProducer));
}

TEST(StreamingConcurrencyTest, ResizeWorkersDuringProduce) {
  StreamingFixture f(2);
  streaming::TopicConfig config;
  config.stream_num = 8;
  ASSERT_TRUE(f.dispatcher->CreateTopic("scale", config).ok());

  std::atomic<bool> stop{false};
  std::thread resizer([&] {
    // Grow and shrink the fleet while producers hold routed worker
    // pointers; shrunk-away workers must stay alive (retired, not freed).
    for (uint32_t round = 0; round < 20; ++round) {
      ASSERT_TRUE(f.dispatcher->ResizeWorkers(2 + round % 6).ok());
    }
    stop.store(true, std::memory_order_release);
  });

  constexpr int kProducers = 3;
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      streaming::Producer producer(f.dispatcher.get());
      int i = 0;
      while (!stop.load(std::memory_order_acquire) || i < 100) {
        std::string key = "p" + std::to_string(p) + "-" + std::to_string(i);
        auto offset = producer.Send("scale", streaming::Message(key, "v"));
        ASSERT_TRUE(offset.ok()) << offset.status().ToString();
        ++i;
      }
    });
  }
  resizer.join();
  for (auto& t : producers) t.join();
}

// A ResizeWorkers between a caller's route and its worker call moves the
// stream to another worker. Workers serve any live stream object, so the
// call made through the stale route still succeeds.
TEST(StreamingConcurrencyTest, ResizeWorkersDuringConsume) {
  StreamingFixture f(2);
  streaming::TopicConfig config;
  config.stream_num = 8;
  ASSERT_TRUE(f.dispatcher->CreateTopic("scale", config).ok());
  {
    streaming::Producer producer(f.dispatcher.get());
    for (int i = 0; i < 64; ++i) {
      ASSERT_TRUE(producer
                      .Send("scale", streaming::Message(
                                         "k" + std::to_string(i), "v", i))
                      .ok());
    }
  }

  constexpr int kClients = 3;
  std::atomic<bool> stop{false};
  std::atomic<int> started{0};
  std::thread resizer([&] {
    while (started.load(std::memory_order_acquire) < kClients) {
      std::this_thread::yield();
    }
    for (uint32_t round = 0; round < 500; ++round) {
      EXPECT_TRUE(f.dispatcher->ResizeWorkers(2 + round % 6).ok());
    }
    stop.store(true, std::memory_order_release);
  });

  std::vector<std::thread> consumers;
  consumers.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    consumers.emplace_back([&, c] {
      started.fetch_add(1, std::memory_order_release);
      streaming::Consumer consumer(f.dispatcher.get(), &f.meta,
                                   "g" + std::to_string(c));
      ASSERT_TRUE(consumer.Subscribe("scale").ok());
      int i = 0;
      while (!stop.load(std::memory_order_acquire) || i < 100) {
        Status seek = consumer.SeekToTimestamp("scale", i % 64);
        ASSERT_TRUE(seek.ok()) << seek.ToString();
        auto polled = consumer.Poll(16);
        ASSERT_TRUE(polled.ok()) << polled.status().ToString();
        ++i;
      }
    });
  }
  resizer.join();
  for (auto& t : consumers) t.join();
}

TEST(StreamingConcurrencyTest, ResizeWorkersDuringTxnCommit) {
  StreamingFixture f(2);
  streaming::TopicConfig config;
  config.stream_num = 8;
  ASSERT_TRUE(f.dispatcher->CreateTopic("scale", config).ok());

  constexpr int kClients = 3;
  std::atomic<bool> stop{false};
  std::atomic<int> started{0};
  std::thread resizer([&] {
    while (started.load(std::memory_order_acquire) < kClients) {
      std::this_thread::yield();
    }
    for (uint32_t round = 0; round < 500; ++round) {
      EXPECT_TRUE(f.dispatcher->ResizeWorkers(2 + round % 6).ok());
    }
    stop.store(true, std::memory_order_release);
  });

  std::vector<std::thread> coordinators;
  coordinators.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    coordinators.emplace_back([&, c] {
      started.fetch_add(1, std::memory_order_release);
      kv::KvStore txn_log;
      streaming::TransactionManager txns(f.dispatcher.get(), &txn_log);
      int i = 0;
      while (!stop.load(std::memory_order_acquire) || i < 100) {
        auto txn = txns.Begin();
        ASSERT_TRUE(txn.ok());
        for (int m = 0; m < 4; ++m) {
          std::string key = "c" + std::to_string(c) + "-" +
                            std::to_string(i) + "-" + std::to_string(m);
          ASSERT_TRUE(
              txns.Send(*txn, "scale", streaming::Message(key, "v")).ok());
        }
        Status commit = txns.Commit(*txn);
        ASSERT_TRUE(commit.ok()) << commit.ToString();
        ++i;
      }
    });
  }
  resizer.join();
  for (auto& t : coordinators) t.join();
}

TEST(StorageConcurrencyTest, ParallelPlogWritesToSameShard) {
  sim::SimClock clock;
  storage::StoragePool pool{"ssd", sim::MediaType::kNvmeSsd, &clock};
  pool.AddCluster(3, 2, 256 << 20);
  storage::PlogStoreConfig config;
  config.num_shards = 4;
  config.plog.capacity = 64 << 20;
  config.plog.stripe_unit = 4096;
  config.plog.redundancy = storage::RedundancyConfig::Replication(3);
  storage::PlogStore plogs(&pool, config, &clock);

  constexpr int kWriters = 8;
  constexpr int kAppendsEach = 100;
  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      for (int i = 0; i < kAppendsEach; ++i) {
        std::string payload =
            "w" + std::to_string(w) + "-r" + std::to_string(i);
        auto addr = plogs.Append(/*shard=*/0, ByteView(payload));
        ASSERT_TRUE(addr.ok()) << addr.status().ToString();
        // Read-back through the same shard races appends from peers.
        auto data = plogs.Read(*addr);
        ASSERT_TRUE(data.ok()) << data.status().ToString();
        EXPECT_EQ(BytesToString(*data), payload);
      }
    });
  }
  for (auto& t : writers) t.join();
}

TEST(KvConcurrencyTest, ParallelReadersAndWriters) {
  kv::KvStore store;
  constexpr int kWriters = 4;
  constexpr int kReaders = 4;
  constexpr int kOpsEach = 300;
  std::vector<std::thread> threads;
  threads.reserve(kWriters + kReaders);
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      for (int i = 0; i < kOpsEach; ++i) {
        std::string key = "k" + std::to_string(i % 50);
        ASSERT_TRUE(
            store.Put(key, "w" + std::to_string(w) + "-" + std::to_string(i))
                .ok());
      }
    });
  }
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&] {
      for (int i = 0; i < kOpsEach; ++i) {
        auto value = store.Get("k" + std::to_string(i % 50));
        if (value.ok()) {
          EXPECT_FALSE(value->empty());
        }
      }
    });
  }
  for (auto& t : threads) t.join();
}

// ---------------- CondVar timed waits ----------------

struct TimedWaitState {
  Mutex mu{LockRank::kKvStore, "test.condvar"};
  CondVar cv;
  bool ready GUARDED_BY(mu) = false;
};

TEST(CondVarTimedWaitTest, TimesOutWhenNeverSignalled) {
  TimedWaitState state;
  MutexLock lock(&state.mu);
  bool signalled =
      state.cv.WaitFor(&state.mu, std::chrono::milliseconds(5));
  EXPECT_FALSE(signalled);
  // The mutex is reacquired after a timeout: guarded writes stay legal
  // and the lock is still on this thread's held stack.
  state.ready = true;
  EXPECT_EQ(lock_order::HeldByCurrentThread(),
            SL_LOCK_ORDER_CHECK ? 1u : 0u);
}

TEST(CondVarTimedWaitTest, WakesOnNotifyBeforeDeadline) {
  TimedWaitState state;
  std::thread signaller([&] {
    MutexLock lock(&state.mu);
    state.ready = true;
    state.cv.NotifyOne();
  });
  bool observed = false;
  {
    MutexLock lock(&state.mu);
    // Predicate loop: WaitFor can wake spuriously or before the
    // signaller has run; keep waiting with a generous deadline.
    while (!state.ready) {
      if (!state.cv.WaitFor(&state.mu, std::chrono::seconds(5))) break;
    }
    observed = state.ready;
  }
  signaller.join();
  EXPECT_TRUE(observed);
}

TEST(CondVarTimedWaitTest, ManyWaitersAllWakeOrTimeOut) {
  TimedWaitState state;
  constexpr int kWaiters = 8;
  std::atomic<int> done{0};
  std::vector<std::thread> waiters;
  waiters.reserve(kWaiters);
  for (int i = 0; i < kWaiters; ++i) {
    waiters.emplace_back([&] {
      MutexLock lock(&state.mu);
      while (!state.ready) {
        if (!state.cv.WaitFor(&state.mu, std::chrono::seconds(5))) break;
      }
      done.fetch_add(1, std::memory_order_relaxed);
    });
  }
  {
    MutexLock lock(&state.mu);
    state.ready = true;
  }
  state.cv.NotifyAll();
  for (auto& t : waiters) t.join();
  EXPECT_EQ(done.load(), kWaiters);
}

// ---------------- SharedMutex reader/writer interleavings ----------------

struct SharedCounterState {
  SharedMutex mu{LockRank::kKvStore, "test.shared_counter"};
  // Two counters kept equal under the writer lock: a reader that ever
  // observes them unequal has seen a torn update (reader overlapped a
  // writer), and a lost increment means writers overlapped each other.
  int64_t a GUARDED_BY(mu) = 0;
  int64_t b GUARDED_BY(mu) = 0;
};

TEST(SharedMutexInterleavingTest, ReadersNeverObserveTornWrites) {
  SharedCounterState state;
  constexpr int kWriters = 3;
  constexpr int kReaders = 5;
  constexpr int kOpsEach = 2000;
  std::atomic<int64_t> torn{0};
  std::vector<std::thread> threads;
  threads.reserve(kWriters + kReaders);
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&] {
      for (int i = 0; i < kOpsEach; ++i) {
        WriterMutexLock lock(&state.mu);
        ++state.a;
        ++state.b;
      }
    });
  }
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&] {
      for (int i = 0; i < kOpsEach; ++i) {
        ReaderMutexLock lock(&state.mu);
        if (state.a != state.b) torn.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(torn.load(), 0);
  WriterMutexLock lock(&state.mu);
  EXPECT_EQ(state.a, kWriters * kOpsEach);
  EXPECT_EQ(state.b, kWriters * kOpsEach);
}

TEST(SharedMutexInterleavingTest, ReadersOverlapEachOther) {
  // Shared acquisitions must not exclude each other: every reader enters
  // the shared section and stays there until it has seen a peer inside
  // too (bounded by a deadline so a regression fails rather than hangs).
  // If LockShared degraded to exclusive locking, at most one reader could
  // be inside at a time and no thread would ever observe a peer.
  SharedCounterState state;
  constexpr int kReaders = 4;
  std::atomic<int> inside{0};
  std::atomic<bool> all_in{false};
  std::atomic<int> saw_all{0};
  std::vector<std::thread> threads;
  threads.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&] {
      ReaderMutexLock lock(&state.mu);
      inside.fetch_add(1);
      // Rendezvous: stay inside until every reader has been seen inside
      // simultaneously (sticky flag, so late observers exit promptly).
      auto deadline = std::chrono::steady_clock::now() +
                      std::chrono::seconds(5);
      while (!all_in.load() &&
             std::chrono::steady_clock::now() < deadline) {
        if (inside.load() == kReaders) all_in.store(true);
        std::this_thread::yield();
      }
      if (all_in.load()) saw_all.fetch_add(1);
      inside.fetch_sub(1);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(saw_all.load(), kReaders);
}

TEST(SharedMutexInterleavingTest, NestedReaderAcquisitionFollowsRanks) {
  // A reader chain across two ranks (table access over the KV band) is
  // legal and, under the checker, lands in the lock-order graph.
  SharedMutex outer{LockRank::kTableAccess, "test.shared.outer"};
  SharedCounterState state;
  constexpr int kThreads = 4;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 500; ++i) {
        ReaderMutexLock ro(&outer);
        ReaderMutexLock ri(&state.mu);
        EXPECT_EQ(state.a, state.b);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(lock_order::HeldByCurrentThread(), 0u);
}

}  // namespace
}  // namespace streamlake
