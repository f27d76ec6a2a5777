#ifndef CLOUDVIEWS_OBS_PROFILE_H_
#define CLOUDVIEWS_OBS_PROFILE_H_

#include <cstdint>
#include <string>
#include <vector>

namespace cloudviews {

struct ExecutionStats;

namespace obs {

// One timed compilation/execution phase of a query.
struct QueryPhase {
  std::string name;
  double seconds = 0.0;
};

// Per-query profile report: the phase breakdown measured by the reuse
// engine (and mirrored by tracing spans when the tracer is on) joined with
// the executor's roll-up statistics — the "why did this query match or miss
// a view, and where did its time go" answer an operator needs.
struct QueryProfile {
  int64_t job_id = 0;
  std::string virtual_cluster;
  int day = 0;
  bool reuse_enabled = false;

  int views_matched = 0;
  int views_built = 0;
  std::vector<std::string> matched_signatures;  // hex

  // Phases in execution order: bind, compile, execute, ingest.
  std::vector<QueryPhase> phases;

  // Executor roll-up (copied from ExecutionStats).
  int num_operators = 0;
  uint64_t input_rows = 0;
  uint64_t view_rows = 0;
  uint64_t total_bytes_read = 0;
  uint64_t bytes_spooled = 0;
  double total_cpu_cost = 0.0;
  double wall_seconds = 0.0;

  void FillFromStats(const ExecutionStats& stats);

  double TotalPhaseSeconds() const;

  // Human-readable multi-line report.
  std::string ToText() const;
  // Single JSON object (one line).
  std::string ToJson() const;
};

}  // namespace obs
}  // namespace cloudviews

#endif  // CLOUDVIEWS_OBS_PROFILE_H_
