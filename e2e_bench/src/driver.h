#ifndef CLOUDVIEWS_E2E_BENCH_DRIVER_H_
#define CLOUDVIEWS_E2E_BENCH_DRIVER_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "bench_math.h"
#include "cluster/telemetry.h"
#include "sharing/sharing_registry.h"
#include "spans.h"
#include "workloads.h"

namespace e2e_bench {

// What a traced pass measures beyond the end-to-end figures. Everything is
// read at the benchmark's own call boundaries: the engine's QueryProfile per
// job, deltas of obs::MetricsRegistry counters over the pass, and engine,
// view-store and sharing accessors at its end.
struct LayerStats {
  PhaseTotals phases;        // over attributed jobs
  int64_t attributed_jobs = 0;
  int64_t unattributed_jobs = 0;
  // Jobs of submit calls whose every job was attributed: the denominator of
  // the cluster layer's per-job self time.
  int64_t self_time_jobs = 0;
  std::vector<double> selection_ms;  // one per RunViewSelection
  double selection_budget_fill = 0.0;  // last selection's bytes / budget
  double maintenance_seconds = 0.0;  // Maintenance + OnDatasetUpdated
  int days = 0;
  // PlanNormalizer::Normalize and SignatureComputer::ComputeAll replayed on
  // every generated plan, outside the engine-facing timing.
  double replay_normalize_seconds = 0.0;
  double replay_signatures_seconds = 0.0;
  int64_t replayed_plans = 0;
  std::map<std::string, uint64_t> counter_deltas;
  int64_t hits_exact = 0;
  int64_t hits_subsumed = 0;
  int64_t views_created = 0;
  int64_t views_reused = 0;
  uint64_t live_view_bytes = 0;
  uint64_t repository_groups = 0;
  cloudviews::sharing::SharingStats sharing;
  std::vector<double> window_ms;  // every SubmitSharedWindow call
  int64_t max_streams_per_window = 0;
};

// One pass: set up the workload, then drive every simulated day through the
// public API from one thread, each call after the previous one returned.
struct PassResult {
  std::string error;  // non-empty when set-up or a generator call failed
  double setup_seconds = 0.0;
  // Mean HostProbeSeconds() just before and just after the pass.
  double probe_seconds = 0.0;
  WallLedger wall;
  std::vector<double> job_ms;  // submit-call wall time of each job
  cloudviews::DailyTelemetry sim;  // TelemetrySeries::Totals()
  int64_t attempted = 0;
  int64_t failed = 0;
  LayerStats layers;  // traced passes only
};

// Runs one pass. With a non-null `spans` the pass is traced: spans go there
// and `layers` is filled.
PassResult RunPass(const Workload& workload, SpanRecorder* spans);

// Times set-up alone (catalog generation plus engine and simulator
// construction); negative on failure.
double TimeSetup(const Workload& workload);

}  // namespace e2e_bench

#endif  // CLOUDVIEWS_E2E_BENCH_DRIVER_H_
