#ifndef CLOUDVIEWS_E2E_BENCH_SPANS_H_
#define CLOUDVIEWS_E2E_BENCH_SPANS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace e2e_bench {

// Seconds on a monotonic clock anchored at the first call.
double NowSeconds();

// One span recorded by the benchmark around a call into the engine's
// public API (or, for engine phases, laid out from the job's QueryProfile).
struct SpanRecord {
  std::string name;
  double start = 0.0;  // seconds, NowSeconds() clock
  double end = 0.0;
  int64_t id = 0;
  int64_t parent = 0;   // 0 = root
  int64_t job_id = -1;  // -1 = not a per-job span
};

// In-memory span buffer of the traced run; written out once at exit.
class SpanRecorder {
 public:
  // Records a finished span; returns its id.
  int64_t Add(std::string name, double start, double end, int64_t parent = 0,
              int64_t job_id = -1);
  // Opens a span starting now; End() closes it.
  int64_t Begin(std::string name, int64_t parent = 0, int64_t job_id = -1);
  void End(int64_t id);
  // Appends every span of `other`, renumbering ids and parents.
  void Append(const SpanRecorder& other);

  const std::vector<SpanRecord>& spans() const { return spans_; }

  // Chrome trace_event JSON ("complete" events), loadable in
  // chrome://tracing or ui.perfetto.dev.
  std::string ToChromeJson() const;

 private:
  std::vector<SpanRecord> spans_;
};

// Self time summed per span name: each span's duration minus what its
// children cover (SelfSeconds).
std::map<std::string, double> SelfSecondsByName(
    const std::vector<SpanRecord>& spans);

}  // namespace e2e_bench

#endif  // CLOUDVIEWS_E2E_BENCH_SPANS_H_
