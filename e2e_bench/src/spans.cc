#include "spans.h"

#include <chrono>
#include <cinttypes>
#include <cstdio>

#include "bench_math.h"

namespace e2e_bench {

double NowSeconds() {
  static const auto anchor = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       anchor)
      .count();
}

int64_t SpanRecorder::Add(std::string name, double start, double end,
                          int64_t parent, int64_t job_id) {
  SpanRecord span;
  span.name = std::move(name);
  span.start = start;
  span.end = end;
  span.id = static_cast<int64_t>(spans_.size()) + 1;
  span.parent = parent;
  span.job_id = job_id;
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

int64_t SpanRecorder::Begin(std::string name, int64_t parent,
                            int64_t job_id) {
  double now = NowSeconds();
  return Add(std::move(name), now, now, parent, job_id);
}

void SpanRecorder::End(int64_t id) {
  spans_[static_cast<size_t>(id - 1)].end = NowSeconds();
}

void SpanRecorder::Append(const SpanRecorder& other) {
  const int64_t offset = static_cast<int64_t>(spans_.size());
  for (SpanRecord span : other.spans_) {
    span.id += offset;
    if (span.parent != 0) span.parent += offset;
    spans_.push_back(std::move(span));
  }
}

std::map<std::string, double> SelfSecondsByName(
    const std::vector<SpanRecord>& spans) {
  // Ids are 1-based positions (SpanRecorder::Add).
  std::vector<std::vector<Interval>> children(spans.size() + 1);
  for (const SpanRecord& span : spans) {
    children[static_cast<size_t>(span.parent)].push_back(
        {span.start, span.end});
  }
  std::map<std::string, double> out;
  for (const SpanRecord& span : spans) {
    out[span.name] += SelfSeconds({span.start, span.end},
                                  children[static_cast<size_t>(span.id)]);
  }
  return out;
}

std::string SpanRecorder::ToChromeJson() const {
  std::string out = "{\"traceEvents\":[";
  char buf[256];
  for (size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    std::snprintf(buf, sizeof(buf),
                  "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%" PRId64
                  ",\"parent\":%" PRId64 ",\"job_id\":%" PRId64 "}}",
                  i == 0 ? "" : ",", s.name.c_str(), s.start * 1e6,
                  (s.end - s.start) * 1e6, s.id, s.parent, s.job_id);
    out += buf;
  }
  out += "\n]}\n";
  return out;
}

}  // namespace e2e_bench
