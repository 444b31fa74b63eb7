// A small fixed-size worker pool for sharding deterministic work.
//
// The simulation substrate itself stays single-threaded (DESIGN §5.1);
// parallelism in pTest lives strictly *between* sessions, which share no
// mutable state.  WorkerPool is the only concurrency primitive the
// library needs for that: submit closures, or shard an index space with
// parallel_for.  Index-space sharding is dynamic (an atomic cursor, no
// pre-chunking) so uneven session durations — a deadlock hit ends a
// session early, a tick-limit run is the slow tail — still balance.
//
// Determinism contract: parallel_for(count, fn) invokes fn exactly once
// for every index in [0, count), in unspecified order and thread
// placement.  Callers that need reproducible results must make fn(i)
// a pure function of i writing to slot i — the parallel campaign runner
// does exactly that and merges slots in index order afterwards.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace ptest::support {

/// Resolves a jobs request to a concrete worker count: nonzero passes
/// through, 0 means one worker per hardware thread (falling back to 1
/// when the runtime cannot tell) — the same convention WorkerPool's own
/// constructor uses.  Shared by every campaign runner so the rule can
/// never drift between them.
[[nodiscard]] std::size_t resolve_jobs(std::size_t jobs);

class WorkerPool {
 public:
  /// Spawns `threads` workers; 0 means std::thread::hardware_concurrency()
  /// (itself falling back to 1 when the runtime cannot tell).
  explicit WorkerPool(std::size_t threads = 0);

  /// Drains outstanding work, then joins all workers.
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  [[nodiscard]] std::size_t thread_count() const noexcept {
    return workers_.size();
  }

  /// Enqueues one task; returns immediately.
  void submit(std::function<void()> task);

  /// Blocks until the queue is empty and every worker is idle.
  void wait_idle();

  /// Runs fn(i) once for every i in [0, count), spread across the pool,
  /// and blocks until all indices completed.  The calling thread also
  /// works, so a pool of T threads applies T+1-way parallelism.  If any
  /// invocation throws, the first exception (in completion order) is
  /// rethrown after the index space is drained.
  void parallel_for(std::size_t count,
                    const std::function<void(std::size_t)>& fn);

  /// As above, but fn(participant, i) also learns which participant runs
  /// the index: the caller is participant 0, the pool's helper threads
  /// are 1..thread_count().  This is how callers keep per-thread scratch
  /// state (e.g. the campaign's per-worker coverage trackers) without
  /// locks: participant p owns scratch slot p exclusively for the whole
  /// call.  Index-to-participant assignment is dynamic and NOT
  /// deterministic — only state whose merge is order-insensitive may
  /// live in the scratch slots.
  void parallel_for(std::size_t count,
                    const std::function<void(std::size_t, std::size_t)>& fn);

  /// Cumulative nanoseconds workers spent parked waiting for work (the
  /// support::MetricsSnapshot `worker_idle_ns` counter).  Monotone over the
  /// pool's lifetime; sample it before/after a region to attribute idle
  /// time to that region.  Time spent blocked in the final shutdown
  /// wait (destructor) is not counted.
  [[nodiscard]] std::uint64_t idle_nanos() const noexcept {
    return idle_ns_.load(std::memory_order_relaxed);
  }

  /// Tasks executed by pool workers so far (parallel_for helper drains
  /// count as one task each; the caller thread's share is not included).
  [[nodiscard]] std::uint64_t tasks_executed() const noexcept {
    return tasks_executed_.load(std::memory_order_relaxed);
  }

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable work_cv_;   // workers wait for tasks
  std::condition_variable idle_cv_;   // wait_idle waits for quiescence
  std::size_t active_ = 0;
  bool stop_ = false;
  std::atomic<std::uint64_t> idle_ns_{0};
  std::atomic<std::uint64_t> tasks_executed_{0};
};

}  // namespace ptest::support
