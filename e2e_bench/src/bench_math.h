#ifndef CLOUDVIEWS_E2E_BENCH_BENCH_MATH_H_
#define CLOUDVIEWS_E2E_BENCH_BENCH_MATH_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <vector>

#include "obs/profile.h"

namespace e2e_bench {

// The arithmetic behind every reported figure, kept apart from the driver so
// tests/bench_math_test.cc can check it without running a workload.

// Samples that must lie beyond a reported tail percentile.
inline constexpr size_t kMinSamplesBeyondTail = 10;

// The highest whole percentile in [50, 99] that leaves at least `min_beyond`
// samples strictly above its nearest rank among `n` samples; 0 when even the
// median leaves fewer. Job latency reports it as `job_p99_ms`, which is the
// true p99 once a run has 1,000 jobs and a lower percentile before that.
int TailPercentile(size_t n, size_t min_beyond = kMinSamplesBeyondTail);

// Nearest-rank percentile (`pct` in (0, 100]) of `samples`; 0 when empty.
double Percentile(std::vector<double> samples, double pct);

double Median(std::vector<double> samples);

// A closed time interval in seconds.
struct Interval {
  double start = 0.0;
  double end = 0.0;
};

// A span's self time: its duration minus the part of it that the union of
// its children covers (children clipped to the parent; overlaps counted once).
double SelfSeconds(Interval parent, std::vector<Interval> children);

// Phase split of the jobs a submit call ran, read back from the engine's
// per-job QueryProfile.
struct PhaseTotals {
  double bind = 0.0;
  double compile = 0.0;
  double execute = 0.0;
  double ingest = 0.0;
  uint64_t input_rows = 0;
  uint64_t view_rows = 0;
  uint64_t bytes_read = 0;
  uint64_t bytes_spooled = 0;

  double Seconds() const { return bind + compile + execute + ingest; }
  void Add(const cloudviews::obs::QueryProfile& profile);
  void Add(const PhaseTotals& other);
};

// How one submit call's wall time splits. The engine keeps only the newest
// InsightsService::kMaxProfiles profiles, so a sharing window with more jobs
// than that loses the first jobs' profiles. Those jobs are counted as
// unattributed, and so is the window's time outside the profiles that
// remain: the call then has no self time of its own.
struct CallAttribution {
  PhaseTotals phases;
  // Profiles of the attributed jobs, in job order; they point into the ring
  // and stay valid until the engine runs another job.
  std::vector<const cloudviews::obs::QueryProfile*> profiles;
  int unattributed_jobs = 0;
  double unattributed_seconds = 0.0;
};

// Attributes a call of `wall_seconds` that ran `job_ids`, reading profiles
// from `ring` (the engine's recent_profiles() right after the call).
CallAttribution AttributeCall(
    double wall_seconds, const std::vector<int64_t>& job_ids,
    const std::deque<cloudviews::obs::QueryProfile>& ring);

// Host-speed normalization. The benchmark's host runs the same work up to
// 60% slower for stretches of several seconds (neighbours on shared
// hardware), which no within-run statistic removes. A fixed probe kernel
// (HostProbeSeconds) is timed between passes, and a pass's times are scaled
// by kReferenceProbeSeconds / (the mean probe time around it): every time
// metric is reported at the speed at which the probe takes
// kReferenceProbeSeconds, about its time on a quiet 4-core Intel Xeon VM.
inline constexpr double kReferenceProbeSeconds = 0.040;

// `seconds` measured while the probe took `probe_seconds`, at reference
// speed. Returns `seconds` unchanged when the probe time is not positive.
double AtReferenceSpeed(double seconds, double probe_seconds);

// Runs the probe kernel (hashing, sorting and small allocations, like the
// engine's own mix; no engine code) and returns its wall time.
double HostProbeSeconds();

// Wall-time accounting of a pass. Throughput divides jobs by the time spent
// inside engine-facing calls only: generator calls make the inputs and are
// kept in their own total.
struct WallLedger {
  double engine_seconds = 0.0;
  double generator_seconds = 0.0;
  int64_t jobs = 0;

  double JobsPerSecond() const;
};

}  // namespace e2e_bench

#endif  // CLOUDVIEWS_E2E_BENCH_BENCH_MATH_H_
