#include "common/thread_pool.h"

#include <algorithm>
#include <chrono>
#include <exception>
#include <utility>

namespace cloudviews {

namespace {

// Per-queue cap; beyond roughly this many queued tasks per worker, Submit
// degrades to inline execution (backpressure without blocking).
constexpr size_t kMaxQueuedPerWorker = 1024;

// Identifies the pool (and worker slot) owning the current thread so nested
// Submit calls land on the caller's own deque.
struct WorkerIdentity {
  ThreadPool* pool = nullptr;
  size_t index = 0;
};
thread_local WorkerIdentity tls_worker;

// Written once during static initialization (InstallTelemetryHooks), read
// unsynchronized on every Submit afterwards. Zero-initialized, so a binary
// without the obs objects sees all-null hooks.
ThreadPool::TelemetryHooks g_telemetry_hooks;

}  // namespace

void ThreadPool::InstallTelemetryHooks(const TelemetryHooks& hooks) {
  g_telemetry_hooks = hooks;
}

ThreadPool::ThreadPool(size_t num_threads) {
  if (num_threads == 0) {
    num_threads = std::max(2u, std::thread::hardware_concurrency());
  }
  queues_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    queues_.push_back(std::make_unique<WorkerQueue>());
  }
  workers_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    // The store must happen under mu_: a worker that has just evaluated its
    // sleep predicate (false) but not yet gone to sleep would otherwise miss
    // both this flag and the notification below and block forever.
    MutexLock lock(mu_);
    stop_.store(true, std::memory_order_release);
  }
  cv_.NotifyAll();
  for (std::thread& worker : workers_) worker.join();
  // Run anything still queued so no TaskGroup is left waiting forever.
  std::function<void()> task;
  while (Steal(queues_.size(), &task)) task();
}

void ThreadPool::Submit(std::function<void()> task) {
  const TelemetryHooks& telemetry = g_telemetry_hooks;
  if (telemetry.on_submit != nullptr) telemetry.on_submit();
  if (telemetry.wait_timing_enabled != nullptr &&
      telemetry.wait_timing_enabled()) {
    // Queue-wait telemetry costs a wrapper allocation, so it is only
    // collected while tracing is on; the disabled path stays allocation-free.
    const uint64_t enqueued_us = telemetry.now_micros();
    task = [inner = std::move(task), enqueued_us, now = telemetry.now_micros,
            observe = telemetry.observe_wait_us] {
      observe(static_cast<double>(now() - enqueued_us));
      inner();
    };
  }
  if (stop_.load(std::memory_order_acquire)) {
    task();
    return;
  }
  size_t slot;
  if (tls_worker.pool == this) {
    slot = tls_worker.index;  // nested spawn: stay on the local deque
  } else {
    slot = next_queue_.fetch_add(1, std::memory_order_relaxed) %
           queues_.size();
  }
  WorkerQueue& q = *queues_[slot];
  bool enqueued = false;
  {
    MutexLock lock(q.mu);
    if (q.tasks.size() < kMaxQueuedPerWorker) {
      // Increment before the push, under the queue lock: a popper can only
      // see the task after the count reflects it, so the count never dips
      // below zero.
      pending_.fetch_add(1, std::memory_order_release);
      q.tasks.push_back(std::move(task));
      enqueued = true;
    }
  }
  if (!enqueued) {
    // Saturated: run inline. The caller makes progress either way.
    task();
    return;
  }
  // Empty critical section pairs with the sleeper's predicate check so the
  // notify cannot slip between its predicate evaluation and its wait.
  { MutexLock lock(mu_); }
  cv_.NotifyOne();
}

bool ThreadPool::PopLocal(size_t index, std::function<void()>* task) {
  WorkerQueue& q = *queues_[index];
  MutexLock lock(q.mu);
  if (q.tasks.empty()) return false;
  *task = std::move(q.tasks.back());  // LIFO: most recently spawned first
  q.tasks.pop_back();
  return true;
}

bool ThreadPool::Steal(size_t thief, std::function<void()>* task) {
  for (size_t i = 0; i < queues_.size(); ++i) {
    size_t victim = (thief + i) % queues_.size();
    WorkerQueue& q = *queues_[victim];
    MutexLock lock(q.mu);
    if (q.tasks.empty()) continue;
    *task = std::move(q.tasks.front());  // FIFO: steal the oldest work
    q.tasks.pop_front();
    return true;
  }
  return false;
}

bool ThreadPool::RunOne() {
  std::function<void()> task;
  bool found = false;
  if (tls_worker.pool == this) {
    found = PopLocal(tls_worker.index, &task);
  }
  if (!found) {
    // relaxed-ok: the ticket only spreads steal starting points; any stale
    // value is as good as any other.
    found = Steal(next_queue_.load(std::memory_order_relaxed) %
                      queues_.size(),
                  &task);
  }
  if (!found) return false;
  pending_.fetch_sub(1, std::memory_order_acq_rel);
  task();
  return true;
}

void ThreadPool::WorkerLoop(size_t index) {
  tls_worker = {this, index};
  std::function<void()> task;
  while (true) {
    if (PopLocal(index, &task) || Steal(index + 1, &task)) {
      pending_.fetch_sub(1, std::memory_order_acq_rel);
      task();
      task = nullptr;
      continue;
    }
    UniqueLock lock(mu_);
    cv_.Wait(lock, [this] {
      return stop_.load(std::memory_order_acquire) ||
             pending_.load(std::memory_order_acquire) > 0;
    });
    if (stop_.load(std::memory_order_acquire) &&
        pending_.load(std::memory_order_acquire) == 0) {
      return;
    }
  }
}

ThreadPool& ThreadPool::Shared() {
  static ThreadPool pool;
  return pool;
}

int ThreadPool::DefaultDop() {
  // hardware_concurrency() asks the OS on every call (several microseconds
  // here); the answer does not change while the process runs.
  static const int dop =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  return dop;
}

void TaskGroup::Spawn(std::function<Status()> fn) {
  {
    MutexLock lock(mu_);
    pending_ += 1;
  }
  pool_->Submit([this, fn = std::move(fn)] {
    Status status;
    try {
      status = fn();
    } catch (const std::exception& e) {
      status = Status::Internal(std::string("uncaught exception in task: ") +
                                e.what());
    } catch (...) {
      status = Status::Internal("uncaught non-standard exception in task");
    }
    Finish(status);
  });
}

void TaskGroup::Finish(const Status& status) {
  MutexLock lock(mu_);
  if (!status.ok() && status_.ok()) status_ = status;
  pending_ -= 1;
  if (pending_ == 0) cv_.NotifyAll();
}

Status TaskGroup::Wait() {
  while (true) {
    {
      MutexLock lock(mu_);
      if (pending_ == 0) return status_;
    }
    // Help drain the pool instead of idling; fall back to a short timed
    // wait when there is nothing to run (our tasks are in flight elsewhere).
    if (!pool_->RunOne()) {
      UniqueLock lock(mu_);
      if (pending_ == 0) return status_;
      cv_.WaitFor(lock, std::chrono::milliseconds(1));
    }
  }
}

}  // namespace cloudviews
