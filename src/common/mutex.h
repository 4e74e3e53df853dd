#ifndef STREAMLAKE_COMMON_MUTEX_H_
#define STREAMLAKE_COMMON_MUTEX_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <vector>

// ---------------------------------------------------------------------------
// Clang thread-safety annotation macros.
//
// Under Clang with -Wthread-safety these expand to attributes that let the
// compiler statically verify locking discipline (fields declared GUARDED_BY a
// Mutex may only be touched while it is held; *Locked helpers declare
// REQUIRES). Under GCC and other compilers they expand to nothing, so the
// annotations are free. See https://clang.llvm.org/docs/ThreadSafetyAnalysis.html
// ---------------------------------------------------------------------------

#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(guarded_by)
#define SL_THREAD_ANNOTATION(x) __attribute__((x))
#endif
#endif
#ifndef SL_THREAD_ANNOTATION
#define SL_THREAD_ANNOTATION(x)  // no-op
#endif

#define CAPABILITY(x) SL_THREAD_ANNOTATION(capability(x))
#define SCOPED_CAPABILITY SL_THREAD_ANNOTATION(scoped_lockable)
#define GUARDED_BY(x) SL_THREAD_ANNOTATION(guarded_by(x))
#define PT_GUARDED_BY(x) SL_THREAD_ANNOTATION(pt_guarded_by(x))
#define ACQUIRED_BEFORE(...) SL_THREAD_ANNOTATION(acquired_before(__VA_ARGS__))
#define ACQUIRED_AFTER(...) SL_THREAD_ANNOTATION(acquired_after(__VA_ARGS__))
#define REQUIRES(...) \
  SL_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))
#define REQUIRES_SHARED(...) \
  SL_THREAD_ANNOTATION(requires_shared_capability(__VA_ARGS__))
#define ACQUIRE(...) SL_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
#define ACQUIRE_SHARED(...) \
  SL_THREAD_ANNOTATION(acquire_shared_capability(__VA_ARGS__))
#define RELEASE(...) SL_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
#define RELEASE_SHARED(...) \
  SL_THREAD_ANNOTATION(release_shared_capability(__VA_ARGS__))
#define TRY_ACQUIRE(...) \
  SL_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))
#define EXCLUDES(...) SL_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))
#define ASSERT_CAPABILITY(x) SL_THREAD_ANNOTATION(assert_capability(x))
#define RETURN_CAPABILITY(x) SL_THREAD_ANNOTATION(lock_returned(x))
#define NO_THREAD_SAFETY_ANALYSIS \
  SL_THREAD_ANNOTATION(no_thread_safety_analysis)

// Compatibility aliases matching the older lockable attribute names that
// still appear in third-party code; kept so grep finds one vocabulary.
#define EXCLUSIVE_LOCKS_REQUIRED(...) REQUIRES(__VA_ARGS__)
#define SHARED_LOCKS_REQUIRED(...) REQUIRES_SHARED(__VA_ARGS__)

// ---------------------------------------------------------------------------
// Lock-hierarchy (rank) checking.
//
// Every Mutex/SharedMutex is constructed with a LockRank and an instance
// name. In checking builds (STREAMLAKE_LOCK_ORDER_CHECK=1, the default for
// everything except pure Release configurations) each blocking acquisition
// verifies that the new lock's rank is STRICTLY BELOW every rank the thread
// already holds, maintains a per-thread stack of held locks, and feeds a
// process-wide observed lock-order graph. A rank inversion aborts the
// process with both lock names and the offending acquisition order — an
// ABBA deadlock becomes a deterministic crash in any single test run that
// exercises either side of the cycle. In release builds the checking
// compiles to nothing: Lock() is exactly mu_.lock().
// ---------------------------------------------------------------------------

#if defined(STREAMLAKE_LOCK_ORDER_CHECK) && STREAMLAKE_LOCK_ORDER_CHECK
#define SL_LOCK_ORDER_CHECK 1
#else
#define SL_LOCK_ORDER_CHECK 0
#endif

namespace streamlake {

/// \brief Global lock hierarchy, one band per subsystem layer, ordered
/// innermost (acquired last) to outermost (acquired first):
/// common < storage < kv < table < stream < streaming < core < baselines
/// < access. A thread may only acquire a mutex whose rank is strictly
/// below every rank it already holds, so call chains must take locks in
/// strictly descending rank order. Siblings inside a band get distinct
/// values (same-rank acquisition is also a violation — it would permit
/// ABBA between two instances). The one exception is STRIPED locks:
/// members of a lock-striped array constructed with an explicit stripe
/// index may nest within their own rank as long as stripe indices are
/// acquired in strictly ascending order, which is just as ABBA-free as
/// distinct ranks. See DESIGN.md "Lock hierarchy" / "Sharded concurrency"
/// for the rank table and how to pick a rank for a new mutex.
enum class LockRank : uint16_t {
  // ---- common: leaf utilities, acquired last ----
  kMetricsRegistry = 2,  // metric name->object map; registration is lazy
                         // (function-local statics on hot paths), so this
                         // must be acquirable under any other held lock
  kParallelFor = 3,      // one ParallelFor call's completion barrier; leaf
                         // — a job takes it only after its work, the
                         // caller only to wait, so nothing nests under it
  kTokenBucket = 4,      // one quota bucket's refill state; leaf — bucket
                         // methods never call out, so it is acquirable
                         // under the admission lock (and any module lock)
  kThreadPool = 10,

  // ---- storage: device/pool/plog write path (Fig. 4) ----
  kBlockDevice = 20,      // page map of one simulated disk
  kStoragePool = 22,      // extent allocator; held while touching devices
  kPlog = 24,             // one persistence log; held across device I/O
  kPlogStore = 26,        // shard-chain stripes; held across Plog calls.
                          // STRIPED: PlogStore spreads its shards over an
                          // array of same-rank mutexes indexed by stripe;
                          // multi-stripe ops lock ascending stripe index
  kObjectStoreWorm = 28,  // WORM prefix list (leaf within object store)

  // ---- kv: the fault-tolerant KV engine backing every index ----
  kKvStore = 30,          // STRIPED: KvStore hashes keys over same-rank
                          // sub-store stripes; WriteBatch commit locks its
                          // touched stripes in ascending index order

  // ---- table: lakehouse metadata + commit protocol ----
  kMetadataStore = 40,    // MetaFresher pending-flush queue
  kTableBlockCache = 41,  // decoded row-group LRU (leaf; commit/compaction/
                          // migration invalidate under their own locks)
  kTableAccess = 42,      // partition access counters (leaf)
  kTableCommit = 44,      // commit protocol; held across metadata/KV/object IO
  kLakehouse = 46,        // catalog of open tables

  // ---- stream: stream objects over PLogs ----
  kScmSliceCache = 50,       // SCM slice LRU (leaf within stream)
  kStreamObject = 52,        // held across KV index commit, not PLog append
  kStreamObjectManager = 54, // object directory; held across object calls

  // ---- streaming: dispatcher / workers / transactions ----
  kStreamWorker = 56,      // assigned-stream set
  kStreamDispatcher = 58,  // topology; held across worker/manager/KV calls
  kTxnManager = 60,        // 2PC; held across dispatcher + worker produce

  // ---- core: the facade owns no locks today; reserved for it ----
  kCore = 70,

  // ---- baselines: self-contained mini systems over the storage band ----
  kMiniHdfs = 80,
  kMiniKafka = 82,

  // ---- access: protocol gateways, acquired first ----
  kAccessControl = 90,  // ACL tables (taken under the services below)
  kBlockService = 92,   // volume map; held across pool/device I/O
  kNasService = 94,     // handle table; held across object-store I/O
  kAdmission = 96,      // per-tenant admission queues + quota buckets; the
                        // very first lock of every gated request, so it
                        // outranks everything (holds kTokenBucket and
                        // kAccessControl while deciding, never device I/O)
};

/// Stripe index value meaning "not a member of a lock-striped array".
/// Mutexes constructed without an explicit stripe use this sentinel and
/// get the plain strict-descending rank rule; striped mutexes (PlogStore
/// shard stripes, KvStore sub-stores) carry their array index here, which
/// acts as a sub-rank: equal-rank nesting is legal only between two
/// striped locks with strictly ascending stripe indices.
inline constexpr uint32_t kNoStripe = 0xffffffffu;

namespace lock_order {

#if SL_LOCK_ORDER_CHECK
/// Called before a blocking acquisition: aborts on rank inversion (or
/// stripe-order inversion between same-rank striped locks), records the
/// (held-top -> acquired) edge for strictly-descending steps, and pushes
/// onto the per-thread stack.
void OnAcquire(LockRank rank, const char* name, const void* id,
               uint32_t stripe);
/// Called after a successful try-acquisition: pushes without checking.
/// Non-blocking acquisitions cannot contribute to a deadlock cycle (they
/// fail instead of blocking), so they are exempt from the rank rule.
void OnTryAcquire(LockRank rank, const char* name, const void* id,
                  uint32_t stripe);
/// Called at release: pops the matching entry from the per-thread stack.
void OnRelease(const void* id, const char* name);
/// Aborts unless the current thread's stack contains `id`.
void AssertHeld(const void* id, const char* name);
#endif

/// One observed acquired-while-held pair. Recorded per (class-level) lock
/// name: every time a thread acquires `to` while `from` is its most
/// recently acquired held lock.
struct LockOrderEdge {
  std::string from;
  std::string to;
  LockRank from_rank;
  LockRank to_rank;
};

/// Snapshot of the process-wide observed lock-order graph. Empty when
/// checking is compiled out.
std::vector<LockOrderEdge> GraphEdges();

/// DFS cycle check over the observed graph. Trivially true when checking
/// is compiled out (and true by construction under the strict-descending
/// rule — asserted independently by tests/lock_order_test.cc). On failure
/// `cycle_out` (if non-null) receives a printable cycle description.
bool GraphIsAcyclic(std::string* cycle_out = nullptr);

/// Clears the observed graph (tests only).
void ResetGraphForTest();

/// Writes the observed graph to `path` in the DOT dialect shared with the
/// static analyzer (tools/slint): one `"name" [lockrank=N];` line per node
/// and one `"from" -> "to";` line per edge, both sorted, so diffs and
/// subset checks are stable. Returns false if the file cannot be written.
/// When checking is compiled out the graph (and the file) is empty.
///
/// Test binaries also dump this automatically at process exit when the
/// STREAMLAKE_LOCK_GRAPH_DOT environment variable names a path — the hook
/// feeding `slint --check-observed` (check S4: observed ⊆ static).
bool WriteDot(const std::string& path);

/// Number of locks the calling thread currently holds (0 when checking is
/// compiled out).
size_t HeldByCurrentThread();

}  // namespace lock_order

/// \brief Annotated, ranked exclusive mutex. The only lock type allowed
/// outside this header — tools/lint.py bans naked std::mutex elsewhere so
/// every guarded field in the codebase is visible to Clang's thread-safety
/// analysis, and requires every member declaration to name its LockRank so
/// the hierarchy stays total.
class CAPABILITY("mutex") Mutex {
 public:
#if SL_LOCK_ORDER_CHECK
  explicit Mutex(LockRank rank, const char* name, uint32_t stripe = kNoStripe)
      : rank_(rank), name_(name), stripe_(stripe) {}
#else
  explicit Mutex(LockRank /*rank*/, const char* /*name*/,
                 uint32_t /*stripe*/ = kNoStripe) {}
#endif
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() ACQUIRE() {
#if SL_LOCK_ORDER_CHECK
    lock_order::OnAcquire(rank_, name_, this, stripe_);
#endif
    mu_.lock();
  }

  /// Lock() that additionally reports whether the acquisition had to block
  /// behind another holder. Identical rank/stripe checking; the only
  /// difference is a leading try_lock so call sites can feed a contention
  /// counter (e.g. storage.plog.stripe_contention) without the mutex layer
  /// depending on metrics.
  bool LockCounted() ACQUIRE() {
#if SL_LOCK_ORDER_CHECK
    lock_order::OnAcquire(rank_, name_, this, stripe_);
#endif
    if (mu_.try_lock()) return false;
    mu_.lock();
    return true;
  }

  void Unlock() RELEASE() {
#if SL_LOCK_ORDER_CHECK
    lock_order::OnRelease(this, name_);
#endif
    mu_.unlock();
  }

  bool TryLock() TRY_ACQUIRE(true) {
    bool acquired = mu_.try_lock();
#if SL_LOCK_ORDER_CHECK
    if (acquired) lock_order::OnTryAcquire(rank_, name_, this, stripe_);
#endif
    return acquired;
  }

  /// Static-analysis assertion that this mutex is held (e.g. in a callback
  /// invoked from a locked region the analysis cannot see through). In
  /// checking builds this is also verified at runtime against the
  /// per-thread held-lock stack.
  void AssertHeld() ASSERT_CAPABILITY(this) {
#if SL_LOCK_ORDER_CHECK
    lock_order::AssertHeld(this, name_);
#endif
  }

#if SL_LOCK_ORDER_CHECK
  LockRank rank() const { return rank_; }
  const char* name() const { return name_; }
#endif

 private:
  friend class CondVar;
  std::mutex mu_;
#if SL_LOCK_ORDER_CHECK
  const LockRank rank_;
  const char* const name_;
  const uint32_t stripe_;
#endif
};

/// \brief Annotated, ranked reader-writer mutex (MetaFresher KV cache read
/// path). Shared acquisitions participate in the rank hierarchy exactly
/// like exclusive ones: a reader blocked behind a pending writer deadlocks
/// an ABBA cycle just as effectively.
class CAPABILITY("shared_mutex") SharedMutex {
 public:
#if SL_LOCK_ORDER_CHECK
  explicit SharedMutex(LockRank rank, const char* name,
                       uint32_t stripe = kNoStripe)
      : rank_(rank), name_(name), stripe_(stripe) {}
#else
  explicit SharedMutex(LockRank /*rank*/, const char* /*name*/,
                       uint32_t /*stripe*/ = kNoStripe) {}
#endif
  SharedMutex(const SharedMutex&) = delete;
  SharedMutex& operator=(const SharedMutex&) = delete;

  void Lock() ACQUIRE() {
#if SL_LOCK_ORDER_CHECK
    lock_order::OnAcquire(rank_, name_, this, stripe_);
#endif
    mu_.lock();
  }

  /// Writer Lock() that reports whether it had to block (see
  /// Mutex::LockCounted).
  bool LockCounted() ACQUIRE() {
#if SL_LOCK_ORDER_CHECK
    lock_order::OnAcquire(rank_, name_, this, stripe_);
#endif
    if (mu_.try_lock()) return false;
    mu_.lock();
    return true;
  }

  void Unlock() RELEASE() {
#if SL_LOCK_ORDER_CHECK
    lock_order::OnRelease(this, name_);
#endif
    mu_.unlock();
  }

  void LockShared() ACQUIRE_SHARED() {
#if SL_LOCK_ORDER_CHECK
    lock_order::OnAcquire(rank_, name_, this, stripe_);
#endif
    mu_.lock_shared();
  }

  /// Reader LockShared() that reports whether it had to block (see
  /// Mutex::LockCounted).
  bool LockSharedCounted() ACQUIRE_SHARED() {
#if SL_LOCK_ORDER_CHECK
    lock_order::OnAcquire(rank_, name_, this, stripe_);
#endif
    if (mu_.try_lock_shared()) return false;
    mu_.lock_shared();
    return true;
  }

  void UnlockShared() RELEASE_SHARED() {
#if SL_LOCK_ORDER_CHECK
    lock_order::OnRelease(this, name_);
#endif
    mu_.unlock_shared();
  }

#if SL_LOCK_ORDER_CHECK
  LockRank rank() const { return rank_; }
  const char* name() const { return name_; }
#endif

 private:
  std::shared_mutex mu_;
#if SL_LOCK_ORDER_CHECK
  const LockRank rank_;
  const char* const name_;
  const uint32_t stripe_;
#endif
};

/// \brief RAII scoped lock over Mutex, LevelDB-style: MutexLock l(&mu_);
class SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex* mu) ACQUIRE(mu) : mu_(mu) { mu_->Lock(); }
  /// Contention-observing form: *contended_out is set to whether the
  /// acquisition had to block, so the caller can bump a contention counter.
  MutexLock(Mutex* mu, bool* contended_out) ACQUIRE(mu) : mu_(mu) {
    *contended_out = mu_->LockCounted();
  }
  ~MutexLock() RELEASE() { mu_->Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex* const mu_;
};

/// \brief Exclusive (writer) scoped lock over SharedMutex.
class SCOPED_CAPABILITY WriterMutexLock {
 public:
  explicit WriterMutexLock(SharedMutex* mu) ACQUIRE(mu) : mu_(mu) {
    mu_->Lock();
  }
  /// Contention-observing form (see MutexLock).
  WriterMutexLock(SharedMutex* mu, bool* contended_out) ACQUIRE(mu)
      : mu_(mu) {
    *contended_out = mu_->LockCounted();
  }
  ~WriterMutexLock() RELEASE() { mu_->Unlock(); }

  WriterMutexLock(const WriterMutexLock&) = delete;
  WriterMutexLock& operator=(const WriterMutexLock&) = delete;

 private:
  SharedMutex* const mu_;
};

/// \brief Shared (reader) scoped lock over SharedMutex.
class SCOPED_CAPABILITY ReaderMutexLock {
 public:
  explicit ReaderMutexLock(SharedMutex* mu) ACQUIRE_SHARED(mu) : mu_(mu) {
    mu_->LockShared();
  }
  /// Contention-observing form (see MutexLock).
  ReaderMutexLock(SharedMutex* mu, bool* contended_out) ACQUIRE_SHARED(mu)
      : mu_(mu) {
    *contended_out = mu_->LockSharedCounted();
  }
  // Generic RELEASE() (not RELEASE_SHARED) matches Abseil: older Clang
  // versions reject shared-release annotations on scoped destructors.
  ~ReaderMutexLock() RELEASE() { mu_->UnlockShared(); }

  ReaderMutexLock(const ReaderMutexLock&) = delete;
  ReaderMutexLock& operator=(const ReaderMutexLock&) = delete;

 private:
  SharedMutex* const mu_;
};

/// \brief Condition variable bound to Mutex at each wait site.
///
/// Use explicit wait loops so guarded reads stay inside the annotated
/// critical section:
///
///   MutexLock lock(&mu_);
///   while (queue_.empty() && !shutdown_) work_cv_.Wait(&mu_);
///
/// Waiting does not touch the lock-order stack: the mutex is logically
/// still held by this thread (it is reacquired before Wait returns, and
/// nothing else can be acquired in between).
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Atomically release *mu, block, reacquire before returning. Spurious
  /// wakeups are possible: always wait in a loop re-checking the predicate.
  void Wait(Mutex* mu) REQUIRES(mu) {
    std::unique_lock<std::mutex> reacquire(mu->mu_, std::adopt_lock);
    cv_.wait(reacquire);
    reacquire.release();
  }

  /// Timed wait; returns false on timeout (the mutex is reacquired either
  /// way). Like Wait(), callers must re-check their predicate.
  template <typename Rep, typename Period>
  bool WaitFor(Mutex* mu, const std::chrono::duration<Rep, Period>& timeout)
      REQUIRES(mu) {
    std::unique_lock<std::mutex> reacquire(mu->mu_, std::adopt_lock);
    bool signalled = cv_.wait_for(reacquire, timeout) ==
                     std::cv_status::no_timeout;
    reacquire.release();
    return signalled;
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace streamlake

#endif  // STREAMLAKE_COMMON_MUTEX_H_
