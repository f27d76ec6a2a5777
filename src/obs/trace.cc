#include "obs/trace.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>

#include "obs/json_writer.h"

namespace cloudviews {
namespace obs {

namespace {

// Per-thread parent chain for Span nesting. Plain thread-locals: only the
// owning thread reads or writes them.
thread_local uint64_t tls_parent_span = 0;
thread_local int tls_span_depth = 0;

std::chrono::steady_clock::time_point ClockAnchor() {
  static const std::chrono::steady_clock::time_point anchor =
      std::chrono::steady_clock::now();
  return anchor;
}

}  // namespace

std::atomic<bool> Tracer::enabled_{false};

Tracer::Tracer() {
  ClockAnchor();  // pin the time origin before any span is recorded
  const char* env = std::getenv("CLOUDVIEWS_OBS_TRACE");
  if (env != nullptr && env[0] != '\0' && env[0] != '0') {
    enabled_.store(true, std::memory_order_relaxed);
  }
}

Tracer& Tracer::Global() {
  // lint:allow-new -- intentionally leaked singleton (no exit-order dtor)
  static Tracer* tracer = new Tracer();
  return *tracer;
}

uint64_t Tracer::NowMicros() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - ClockAnchor())
          .count());
}

Tracer::ThreadBuffer* Tracer::LocalBuffer() {
  // The shared_ptr keeps the buffer alive past thread exit, so events from
  // short-lived pool threads survive until export.
  thread_local std::shared_ptr<ThreadBuffer> local = [this] {
    auto buffer = std::make_shared<ThreadBuffer>();
    buffer->tid = next_tid_.fetch_add(1, std::memory_order_relaxed) + 1;
    MutexLock lock(mu_);
    buffers_.push_back(buffer);
    return buffer;
  }();
  return local.get();
}

void Tracer::Record(TraceEvent event) {
  ThreadBuffer* buffer = LocalBuffer();
  event.tid = buffer->tid;
  MutexLock lock(buffer->mu);
  buffer->events.push_back(std::move(event));
}

void Tracer::Clear() {
  MutexLock lock(mu_);
  for (const auto& buffer : buffers_) {
    MutexLock buffer_lock(buffer->mu);
    buffer->events.clear();
  }
}

std::vector<TraceEvent> Tracer::Collect() const {
  std::vector<TraceEvent> out;
  {
    MutexLock lock(mu_);
    for (const auto& buffer : buffers_) {
      MutexLock buffer_lock(buffer->mu);
      out.insert(out.end(), buffer->events.begin(), buffer->events.end());
    }
  }
  std::sort(out.begin(), out.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              return a.start_us != b.start_us ? a.start_us < b.start_us
                                              : a.id < b.id;
            });
  return out;
}

std::string Tracer::ExportChromeJson() const {
  std::vector<TraceEvent> events = Collect();
  JsonWriter w;
  w.BeginObject();
  w.Field("displayTimeUnit", "ms");
  w.Key("traceEvents").BeginArray();
  for (const TraceEvent& ev : events) {
    w.BeginObject();
    w.Field("name", std::string_view(ev.name));
    w.Field("cat", ev.category);
    w.Field("ph", "X");
    w.Field("ts", ev.start_us);
    w.Field("dur", ev.dur_us);
    w.Field("pid", 1);
    w.Field("tid", static_cast<uint64_t>(ev.tid));
    w.Key("args").BeginObject();
    w.Field("id", ev.id);
    w.Field("parent", ev.parent_id);
    w.Field("depth", ev.depth);
    if (!ev.args.empty()) {
      // Pre-rendered "key":value pairs from Span::Arg.
      w.Key("fields").RawValue("{" + ev.args + "}");
    }
    w.EndObject();
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  return w.TakeString();
}

// --- Span --------------------------------------------------------------------

void Span::Init(const char* category) {
  if (!Tracer::Enabled()) return;
  active_ = true;
  category_ = category;
  start_us_ = Tracer::NowMicros();
  Tracer& tracer = Tracer::Global();
  id_ = tracer.next_id_.fetch_add(1, std::memory_order_relaxed) + 1;
  parent_id_ = tls_parent_span;
  depth_ = tls_span_depth;
  tls_parent_span = id_;
  tls_span_depth = depth_ + 1;
}

Span::Span(const char* name, const char* category) : name_(name) {
  Init(category);
}

Span::Span(std::string name, const char* category) : name_(std::move(name)) {
  Init(category);
}

Span::~Span() {
  if (!active_) return;
  tls_parent_span = parent_id_;
  tls_span_depth = depth_;
  TraceEvent event;
  event.name = std::move(name_);
  event.category = category_;
  event.start_us = start_us_;
  event.dur_us = Tracer::NowMicros() - start_us_;
  event.id = id_;
  event.parent_id = parent_id_;
  event.depth = depth_;
  event.args = std::move(args_);
  Tracer::Global().Record(std::move(event));
}

void Span::Arg(std::string_view key, std::string_view value) {
  if (!active_) return;
  if (!args_.empty()) args_ += ',';
  args_ += '"';
  args_ += JsonWriter::Escape(key);
  args_ += "\":\"";
  args_ += JsonWriter::Escape(value);
  args_ += '"';
}

void Span::Arg(std::string_view key, int64_t value) {
  if (!active_) return;
  if (!args_.empty()) args_ += ',';
  args_ += '"';
  args_ += JsonWriter::Escape(key);
  args_ += "\":";
  args_ += std::to_string(value);
}

void Span::Arg(std::string_view key, uint64_t value) {
  if (!active_) return;
  if (!args_.empty()) args_ += ',';
  args_ += '"';
  args_ += JsonWriter::Escape(key);
  args_ += "\":";
  args_ += std::to_string(value);
}

void Span::Arg(std::string_view key, double value) {
  if (!active_) return;
  JsonWriter w;
  w.Double(value);
  if (!args_.empty()) args_ += ',';
  args_ += '"';
  args_ += JsonWriter::Escape(key);
  args_ += "\":";
  args_ += w.str();
}

}  // namespace obs
}  // namespace cloudviews
