#include "bench_math.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <string>
#include <unordered_map>

namespace e2e_bench {

namespace {

// 1-based nearest rank of percentile `pct` among `n` samples. pct * n is
// formed first so whole percentiles of whole counts divide exactly.
size_t NearestRank(size_t n, double pct) {
  size_t rank = static_cast<size_t>(
      std::ceil(pct * static_cast<double>(n) / 100.0));
  return std::clamp<size_t>(rank, 1, n);
}

}  // namespace

int TailPercentile(size_t n, size_t min_beyond) {
  for (int pct = 99; pct >= 50; --pct) {
    if (n > 0 && n - NearestRank(n, pct) >= min_beyond) return pct;
  }
  return 0;
}

double Percentile(std::vector<double> samples, double pct) {
  if (samples.empty()) return 0.0;
  size_t index = NearestRank(samples.size(), pct) - 1;
  std::nth_element(samples.begin(), samples.begin() + static_cast<long>(index),
                   samples.end());
  return samples[index];
}

double Median(std::vector<double> samples) {
  return Percentile(std::move(samples), 50.0);
}

double SelfSeconds(Interval parent, std::vector<Interval> children) {
  for (Interval& child : children) {
    child.start = std::max(child.start, parent.start);
    child.end = std::min(child.end, parent.end);
  }
  std::sort(children.begin(), children.end(),
            [](const Interval& a, const Interval& b) { return a.start < b.start; });
  double covered = 0.0;
  double reach = parent.start;
  for (const Interval& child : children) {
    double from = std::max(child.start, reach);
    if (child.end > from) {
      covered += child.end - from;
      reach = child.end;
    }
  }
  return std::max(0.0, (parent.end - parent.start) - covered);
}

void PhaseTotals::Add(const cloudviews::obs::QueryProfile& profile) {
  for (const cloudviews::obs::QueryPhase& phase : profile.phases) {
    if (phase.name == "bind") bind += phase.seconds;
    if (phase.name == "compile") compile += phase.seconds;
    if (phase.name == "execute") execute += phase.seconds;
    if (phase.name == "ingest") ingest += phase.seconds;
  }
  input_rows += profile.input_rows;
  view_rows += profile.view_rows;
  bytes_read += profile.total_bytes_read;
  bytes_spooled += profile.bytes_spooled;
}

void PhaseTotals::Add(const PhaseTotals& other) {
  bind += other.bind;
  compile += other.compile;
  execute += other.execute;
  ingest += other.ingest;
  input_rows += other.input_rows;
  view_rows += other.view_rows;
  bytes_read += other.bytes_read;
  bytes_spooled += other.bytes_spooled;
}

CallAttribution AttributeCall(
    double wall_seconds, const std::vector<int64_t>& job_ids,
    const std::deque<cloudviews::obs::QueryProfile>& ring) {
  std::unordered_map<int64_t, const cloudviews::obs::QueryProfile*> by_job;
  for (const cloudviews::obs::QueryProfile& profile : ring) {
    by_job[profile.job_id] = &profile;
  }
  CallAttribution out;
  for (int64_t job_id : job_ids) {
    auto it = by_job.find(job_id);
    if (it == by_job.end()) {
      out.unattributed_jobs += 1;
      continue;
    }
    out.profiles.push_back(it->second);
    out.phases.Add(*it->second);
  }
  if (out.unattributed_jobs > 0) {
    out.unattributed_seconds =
        std::max(0.0, wall_seconds - out.phases.Seconds());
  }
  return out;
}

double AtReferenceSpeed(double seconds, double probe_seconds) {
  return probe_seconds > 0.0
             ? seconds * kReferenceProbeSeconds / probe_seconds
             : seconds;
}

namespace {
volatile uint64_t probe_sink = 0;
}  // namespace

double HostProbeSeconds() {
  const auto start = std::chrono::steady_clock::now();
  uint64_t x = 88172645463325252ULL;  // xorshift64 state
  uint64_t checksum = 0;
  for (int rep = 0; rep < 2; ++rep) {
    std::unordered_map<uint64_t, uint64_t> counts;
    std::vector<double> numbers;
    std::vector<std::string> words;
    for (int i = 0; i < 100000; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      counts[x % 50000] += static_cast<uint64_t>(i);
      numbers.push_back(static_cast<double>(x % 1000003));
      if (i % 5 == 0) words.push_back(std::to_string(x));
    }
    std::sort(numbers.begin(), numbers.end());
    std::sort(words.begin(), words.end());
    checksum += counts.size() + static_cast<uint64_t>(numbers[500]) +
                words[7].size();
  }
  probe_sink = checksum;  // keeps the work from being optimized away
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

double WallLedger::JobsPerSecond() const {
  return engine_seconds > 0.0 ? static_cast<double>(jobs) / engine_seconds
                              : 0.0;
}

}  // namespace e2e_bench
