#ifndef CLOUDVIEWS_OBS_METRICS_H_
#define CLOUDVIEWS_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace cloudviews {
namespace obs {

// Metric naming convention: `subsystem.object.event`, lowercase,
// dot-separated (e.g. `views.lookup.hit`, `optimizer.rule.view_match`).
// Histograms carry their unit as a suffix (`threadpool.queue_wait_us`).
//
// All instruments are always compiled in and always live: a counter
// increment is one relaxed atomic add on a thread-sharded cache line, cheap
// enough to leave on from any number of threads (TSAN-clean by
// construction).

// Monotonically increasing counter, sharded across cache-line-padded atomic
// cells so many concurrent writers do not contend on one line.
class Counter {
 public:
  void Add(uint64_t delta = 1) {
    cells_[ShardIndex()].value.fetch_add(delta, std::memory_order_relaxed);
  }
  void Increment() { Add(1); }

  uint64_t Value() const;

  // Test-only: zeroes every shard. Callers must be quiesced.
  void Reset();

 private:
  static constexpr size_t kShards = 16;
  struct alignas(64) Cell {
    // atomic[relaxed]: statistical tally; Value() sums shards with no
    // ordering requirement against anything else.
    std::atomic<uint64_t> value{0};
  };
  static size_t ShardIndex();

  Cell cells_[kShards];
};

// Last-write-wins instantaneous value.
class Gauge {
 public:
  void Set(int64_t value) { value_.store(value, std::memory_order_relaxed); }
  void Add(int64_t delta) { value_.fetch_add(delta, std::memory_order_relaxed); }
  int64_t Value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  // atomic[relaxed]: last-write-wins sample; no ordered payload.
  std::atomic<int64_t> value_{0};
};

// Fixed-bucket histogram. A sample lands in the first bucket whose upper
// bound is >= the value; samples above every bound land in the implicit
// overflow bucket. Buckets and the running sum are lock-free atomics.
class Histogram {
 public:
  explicit Histogram(std::vector<double> upper_bounds);

  void Observe(double value);

  struct Snapshot {
    std::vector<double> upper_bounds;   // finite bounds only
    std::vector<uint64_t> bucket_counts;  // upper_bounds.size() + 1 entries
    uint64_t count = 0;
    double sum = 0.0;
  };
  Snapshot GetSnapshot() const;

  void Reset();

 private:
  std::vector<double> bounds_;
  // atomic[relaxed]: per-bucket tallies; snapshots tolerate torn totals.
  std::unique_ptr<std::atomic<uint64_t>[]> counts_;  // bounds_.size() + 1
  // atomic[relaxed]: see counts_.
  std::atomic<uint64_t> count_{0};
  // atomic[relaxed]: CAS accumulation loop; see counts_.
  std::atomic<double> sum_{0.0};
};

// Process-wide registry of named instruments. Lookup takes a mutex — hot
// paths cache the returned reference in a function-local static:
//
//   static obs::Counter& hits =
//       obs::MetricsRegistry::Global().counter("views.lookup.hit");
//   hits.Increment();
//
// Instruments live for the life of the process; references never dangle.
class MetricsRegistry {
 public:
  static MetricsRegistry& Global();

  Counter& counter(const std::string& name) EXCLUDES(mu_);
  Gauge& gauge(const std::string& name) EXCLUDES(mu_);
  // `upper_bounds` is used only on first creation of `name`.
  Histogram& histogram(const std::string& name,
                       std::vector<double> upper_bounds) EXCLUDES(mu_);

  // One `name value` (or `name{bucket} value`) line per instrument, sorted
  // by name — the text exposition format.
  std::string SnapshotText() const EXCLUDES(mu_);
  // The same snapshot as a JSON document.
  std::string SnapshotJson() const EXCLUDES(mu_);

  // Test-only: zeroes every instrument (names stay registered).
  void ResetForTest() EXCLUDES(mu_);

 private:
  mutable Mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_ GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Gauge>> gauges_ GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Histogram>> histograms_
      GUARDED_BY(mu_);
};

// Default bucket bounds for microsecond-scale latency histograms.
std::vector<double> LatencyBucketsUs();
// Default bucket bounds for second-scale (simulated) waits.
std::vector<double> WaitBucketsSeconds();

}  // namespace obs
}  // namespace cloudviews

#endif  // CLOUDVIEWS_OBS_METRICS_H_
