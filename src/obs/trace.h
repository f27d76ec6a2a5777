#ifndef CLOUDVIEWS_OBS_TRACE_H_
#define CLOUDVIEWS_OBS_TRACE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace cloudviews {
namespace obs {

// One completed span. Timestamps are microseconds on a process-local
// monotonic clock (steady_clock, anchored at the first tracer use), so a
// merged trace across threads is self-consistent.
struct TraceEvent {
  std::string name;
  const char* category = "engine";  // must point to a static string
  uint64_t start_us = 0;
  uint64_t dur_us = 0;
  uint64_t id = 0;         // unique per span, process-wide
  uint64_t parent_id = 0;  // enclosing span on the same thread (0 = root)
  int depth = 0;           // nesting depth on its thread (0 = thread root)
  uint32_t tid = 0;        // stable small per-thread index
  std::string args;        // pre-rendered JSON object *body* ("" = none)
};

// Hierarchical tracer recording spans into per-thread buffers. Disabled by
// default; when disabled, starting a span costs exactly one relaxed atomic
// load and records nothing. Enable programmatically or by setting the
// CLOUDVIEWS_OBS_TRACE environment variable (checked once, at first use).
//
// Recording never mutates engine state, so query results are identical with
// tracing on or off.
class Tracer {
 public:
  static Tracer& Global();

  // Hot-path gate for all instrumentation sites.
  static bool Enabled() { return enabled_.load(std::memory_order_relaxed); }

  void Enable() { enabled_.store(true, std::memory_order_relaxed); }
  void Disable() { enabled_.store(false, std::memory_order_relaxed); }

  // Drops every recorded event (buffers stay registered).
  void Clear() EXCLUDES(mu_);

  // Merged snapshot of every thread's buffer, sorted by (start_us, id).
  std::vector<TraceEvent> Collect() const EXCLUDES(mu_);

  // Chrome trace_event JSON ("complete" events), loadable in
  // chrome://tracing or https://ui.perfetto.dev.
  std::string ExportChromeJson() const;

  // Microseconds since the tracer's clock anchor.
  static uint64_t NowMicros();

 private:
  friend class Span;

  struct ThreadBuffer {
    mutable Mutex mu;
    std::vector<TraceEvent> events GUARDED_BY(mu);
    // Written once before the buffer is published (under the tracer's mu_),
    // read only by the owning thread afterwards.
    uint32_t tid = 0;
  };

  Tracer();
  ThreadBuffer* LocalBuffer() EXCLUDES(mu_);
  void Record(TraceEvent event) EXCLUDES(mu_);

  // atomic[relaxed]: single-flag enable gate; instrumentation sites only
  // need to eventually observe a flip, never any ordered payload.
  static std::atomic<bool> enabled_;

  mutable Mutex mu_;
  std::vector<std::shared_ptr<ThreadBuffer>> buffers_ GUARDED_BY(mu_);
  // atomic[relaxed]: unique-ID tickets; uniqueness needs atomicity only.
  std::atomic<uint32_t> next_tid_{0};
  // atomic[relaxed]: see next_tid_.
  std::atomic<uint64_t> next_id_{0};
};

// RAII span: records a TraceEvent on destruction when the tracer was
// enabled at construction. Maintains the per-thread parent/depth chain, so
// nested spans reconstruct the call hierarchy.
class Span {
 public:
  explicit Span(const char* name, const char* category = "engine");
  Span(std::string name, const char* category = "engine");
  ~Span();

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  bool active() const { return active_; }

  // Attaches a key/value pair rendered into the span's trace args.
  void Arg(std::string_view key, std::string_view value);
  void Arg(std::string_view key, int64_t value);
  void Arg(std::string_view key, uint64_t value);
  void Arg(std::string_view key, double value);

 private:
  void Init(const char* category);

  bool active_ = false;
  std::string name_;
  const char* category_ = "engine";
  uint64_t start_us_ = 0;
  uint64_t id_ = 0;
  uint64_t parent_id_ = 0;
  int depth_ = 0;
  std::string args_;
};

}  // namespace obs
}  // namespace cloudviews

#endif  // CLOUDVIEWS_OBS_TRACE_H_
