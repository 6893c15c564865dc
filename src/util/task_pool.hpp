// Per-rank work-stealing thread pool: the intra-rank half of the scaling
// story. The comm layer scales *across* ranks (PR 3's collectives); this
// pool scales *within* one, threading the node-local kernels (ufunc
// application, fused expression evaluation, reductions, SpMV, relaxation
// sweeps) that otherwise use one core per rank.
//
// Model: every rank thread owns at most one lazily started pool
// (`TaskPool::current()` is thread-local). A parallel region splits an
// index range into fixed-size chunks (the `grain`), deals them round-robin
// onto per-lane deques, and the calling thread plus the worker threads
// drain them — own deque from the front, other lanes' deques from the back
// (steals). Ranges at or below one grain run inline on the caller with no
// pool startup, no atomics, and no instrumentation, so tiny arrays pay
// nothing. Nested regions (a threaded kernel calling another threaded
// kernel from inside a worker task) degrade to serial instead of
// deadlocking.
//
// Sizing: `PYHPC_THREADS` (process-wide default, 1 = serial when unset) or
// `CommConfig::threads`, which comm::run installs per rank thread via
// set_thread_default(). Pool worker threads must never call into the comm
// layer — region bodies are pure local compute; collectives stay on the
// rank thread.
//
// Determinism: chunk boundaries depend on `grain` alone — never on thread
// count — and the serial fallback walks the very same chunks inline, so a
// per-chunk result does not depend on how chunks were scheduled. The
// deterministic reduction built on this is exec::transform_reduce
// (util/exec_space.hpp).
//
// Observability: each parallel region records an obs span
// ("pool.parallel_for", category "pool") carrying threads/grain/n/tasks
// args, and folds pool.regions / pool.tasks / pool.steals counters plus
// the pool.threads max-gauge into the global MetricsRegistry.
// Serial-fallback regions skip all of it.
#pragma once

#include <cstdint>
#include <functional>

namespace pyhpc::util {

/// Default chunk size for the threaded hot loops: big enough that a chunk
/// amortizes scheduling (tens of microseconds of work), small enough that
/// the large bench sizes split into many times the thread count.
inline constexpr std::int64_t kDefaultGrain = 8192;

class TaskPool {
 public:
  /// body(lo, hi): process the half-open subrange [lo, hi). parallel_for
  /// invokes it on disjoint chunks exactly covering [begin, end), each
  /// chunk [begin + c*grain, min(begin + (c+1)*grain, end)) — callers may
  /// recover the chunk index as (lo - begin) / grain.
  using Body = std::function<void(std::int64_t, std::int64_t)>;

  ~TaskPool();
  TaskPool(const TaskPool&) = delete;
  TaskPool& operator=(const TaskPool&) = delete;

  /// The calling thread's pool, created on first use with
  /// configured_threads() lanes. If the configured size changed since the
  /// pool was built (and no region is running), the pool is rebuilt.
  static TaskPool& current();

  /// Lanes new pools on this thread get: the set_thread_default override
  /// when positive, else PYHPC_THREADS, else 1 (serial).
  static int configured_threads();

  /// Per-thread override (comm::run installs CommConfig::threads here for
  /// each rank thread); 0 reverts to the environment default.
  static void set_thread_default(int threads);
  static int thread_default();

  /// Total lanes including the calling thread (1 = serial pool).
  int threads() const { return lanes_; }

  /// Runs body over [begin, end) in chunks of at most `grain`, in parallel
  /// when the range exceeds one grain and the pool has more than one lane.
  /// Blocks until every chunk completed; the first exception thrown by a
  /// chunk is rethrown here (remaining chunks are skipped).
  void parallel_for(std::int64_t begin, std::int64_t end, std::int64_t grain,
                    const Body& body);

  /// Lifetime totals for this pool (monotone; also folded into the global
  /// MetricsRegistry as pool.* after every parallel region).
  struct Stats {
    std::uint64_t regions = 0;         ///< parallel (pool-scheduled) regions
    std::uint64_t serial_regions = 0;  ///< regions short-circuited inline
    std::uint64_t tasks = 0;           ///< chunks executed by the pool
    std::uint64_t steals = 0;          ///< chunks taken from another lane
  };
  Stats stats() const;

 private:
  struct Impl;
  explicit TaskPool(int lanes);
  void run_region(std::int64_t begin, std::int64_t end, std::int64_t grain,
                  const Body& body);

  Impl* impl_;
  int lanes_;
};

/// Convenience wrappers over the calling thread's pool.
inline void parallel_for(std::int64_t begin, std::int64_t end,
                         std::int64_t grain, const TaskPool::Body& body) {
  TaskPool::current().parallel_for(begin, end, grain, body);
}

}  // namespace pyhpc::util
