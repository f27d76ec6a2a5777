#ifndef CLOUDVIEWS_COMMON_THREAD_POOL_H_
#define CLOUDVIEWS_COMMON_THREAD_POOL_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"

namespace cloudviews {

// Work-stealing thread pool. The process-wide instance (Shared()) runs the
// jobs of sharing windows (ReuseEngine::RunSharedWindow) side by side;
// operators themselves run serially, and tools/layering_lint.py keeps this
// header out of every module but common, obs (the telemetry hooks) and
// core. Each worker owns a deque: it pushes and pops its own work LIFO
// (cache-friendly for nested spawns) and steals FIFO from siblings when it
// runs dry. Queues are bounded; once the pool is saturated, Submit runs the
// task inline on the calling thread, which keeps producers from outrunning
// consumers and cannot deadlock (inline execution makes progress).
class ThreadPool {
 public:
  // Telemetry seam. The pool sits at the bottom of the module DAG and must
  // not include obs, so obs installs these hooks at static-initialization
  // time instead (see obs/metrics.cc). A binary that never links the obs
  // objects leaves them null and simply runs without pool telemetry.
  struct TelemetryHooks {
    // Called once per Submit.
    void (*on_submit)() = nullptr;
    // When enabled() is true, Submit wraps each task to measure its
    // enqueue->dequeue latency via now_micros and reports it to
    // observe_wait_us.
    bool (*wait_timing_enabled)() = nullptr;
    uint64_t (*now_micros)() = nullptr;
    void (*observe_wait_us)(double micros) = nullptr;
  };

  // Installs the process-wide hooks. Must run during static initialization
  // (before any thread submits work): the submit path reads the hooks
  // without synchronization.
  static void InstallTelemetryHooks(const TelemetryHooks& hooks);

  // 0 threads = one per hardware thread (minimum 2 so single-core machines
  // can still interleave concurrency tests).
  explicit ThreadPool(size_t num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t num_threads() const { return workers_.size(); }

  // Enqueues a task. May execute it inline when the queues are saturated.
  void Submit(std::function<void()> task) EXCLUDES(mu_);

  // Runs one queued task on the calling thread, if any is available.
  // Blocked waiters use this to help drain the pool instead of idling,
  // which makes nested parallelism (tasks that spawn and wait on subtasks)
  // deadlock-free.
  bool RunOne();

  // Process-wide pool that sharing windows run their jobs on.
  static ThreadPool& Shared();

  // Default degree of parallelism: hardware_concurrency, at least 1. A
  // sharing window runs at most this many loops.
  static int DefaultDop();

 private:
  struct WorkerQueue {
    Mutex mu;
    std::deque<std::function<void()>> tasks GUARDED_BY(mu);
  };

  void WorkerLoop(size_t index) EXCLUDES(mu_);
  bool PopLocal(size_t index, std::function<void()>* task);
  bool Steal(size_t thief, std::function<void()>* task);

  std::vector<std::unique_ptr<WorkerQueue>> queues_;
  std::vector<std::thread> workers_;
  // Guards no data; exists only to close the race between a sleeper's
  // predicate check and its wait (see the empty critical sections in
  // Submit and the destructor).
  Mutex mu_;
  CondVar cv_;
  // atomic[acq_rel]: fetch_add(release) under the queue lock in Submit
  // publishes the pushed task; fetch_sub(acq_rel) / load(acquire) in
  // WorkerLoop, RunOne, and the sleep predicate consume it.
  std::atomic<size_t> pending_{0};
  // atomic[relaxed]: round-robin ticket for picking a submit queue; no
  // ordering needed, any interleaving is a valid assignment.
  std::atomic<size_t> next_queue_{0};
  // atomic[release/acquire]: store(release) under mu_ in the destructor
  // pairs with load(acquire) in Submit's inline fallback and the worker
  // sleep/exit checks.
  std::atomic<bool> stop_{false};
};

// Wait-group with Status propagation: Spawn N fallible tasks, Wait for all
// of them. The first non-OK Status wins; uncaught exceptions are converted
// to Status::Internal instead of crossing thread boundaries. Wait() helps
// execute pool tasks while blocked — the pool's deadlock guard — so a task
// may itself use a TaskGroup on the same pool, and a waiter on a saturated
// pool still makes progress.
class TaskGroup {
 public:
  explicit TaskGroup(ThreadPool* pool) : pool_(pool) {}

  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;

  void Spawn(std::function<Status()> fn) EXCLUDES(mu_);
  Status Wait() EXCLUDES(mu_);

 private:
  void Finish(const Status& status) EXCLUDES(mu_);

  ThreadPool* pool_;
  Mutex mu_;
  CondVar cv_;
  size_t pending_ GUARDED_BY(mu_) = 0;
  Status status_ GUARDED_BY(mu_);
};

}  // namespace cloudviews

#endif  // CLOUDVIEWS_COMMON_THREAD_POOL_H_
