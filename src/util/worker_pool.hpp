// Real-thread worker pool for pure computation (docs/PARALLELISM.md).
//
// The simulator owns time; this pool owns CPUs. It exists for exactly one
// shape of work: the execution-policy seam (src/exec) hands every worker a
// *slice* of a batch of pure computations, blocks until all slices finish,
// and only then lets simulated time advance again. That barrier shape keeps
// the determinism story simple — no task queue, no stealing, no completion
// order to reason about: `run(body)` invokes `body(worker_index)` once on
// every worker thread and returns when the last one is done.
//
// Threads are started once and parked between generations (condvar), so a
// bench issuing thousands of batches pays thread creation once. Worker
// bodies must confine themselves to pure computation: no Simulator calls
// and no shared mutable state except the sharded NameTable. An exception
// escaping a body is captured and rethrown from run() on the caller.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace namecoh {

class WorkerPool {
 public:
  /// Starts `workers` threads (clamped to >= 1). The pool is pinned for its
  /// lifetime; size() never changes.
  explicit WorkerPool(std::size_t workers);
  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;
  ~WorkerPool();

  [[nodiscard]] std::size_t size() const { return threads_.size(); }

  /// Run `body(worker_index)` once on every worker thread, 0 <= index <
  /// size(), and block until all invocations return. Not reentrant and not
  /// thread-safe: one run() at a time, from one driving thread. If any body
  /// throws, the first exception (by worker index) is rethrown here after
  /// the barrier completes.
  void run(const std::function<void(std::size_t)>& body);

  /// The machine's available hardware parallelism, never 0.
  static std::size_t hardware_workers();

 private:
  void worker_main(std::size_t index);

  std::mutex mu_;
  std::condition_variable work_cv_;   // workers wait for a new generation
  std::condition_variable done_cv_;   // run() waits for the barrier
  const std::function<void(std::size_t)>* body_ = nullptr;
  std::uint64_t generation_ = 0;
  std::size_t outstanding_ = 0;
  bool stop_ = false;
  std::vector<std::exception_ptr> errors_;  // one slot per worker
  std::vector<std::thread> threads_;
};

}  // namespace namecoh
