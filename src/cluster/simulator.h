#ifndef CLOUDVIEWS_CLUSTER_SIMULATOR_H_
#define CLOUDVIEWS_CLUSTER_SIMULATOR_H_

#include <deque>
#include <map>
#include <string>
#include <vector>

#include "cluster/telemetry.h"
#include "common/random.h"
#include "common/sim_clock.h"
#include "core/reuse_engine.h"
#include "obs/timeseries.h"

namespace cloudviews {

// Resource model of a Cosmos-like cluster. Jobs execute as DAGs of stages;
// each stage is partitioned into containers sized by the optimizer's
// cardinality ESTIMATES (over-partitioning bias included), while the actual
// work done comes from OBSERVED execution statistics. This split is what
// lets computation reuse shrink container counts (section 3.5): view scans
// carry accurate observed statistics.
struct ClusterSimOptions {
  double cpu_rate = 250.0;             // cost units per container-second
  double rows_per_partition = 400.0;   // estimated rows one container handles
  int max_stage_width = 64;            // container cap per stage
  // Scheduling overhead per stage grows with its container count; wasteful
  // over-partitioning therefore also costs latency, not just containers.
  double container_startup_seconds = 1.0;
  // Failure model (exercised only when fault injection arms the
  // cluster.node.* sites): a placement that lands on a dead node is retried
  // on a fresh node with exponential backoff charged to job latency; a
  // straggler node stretches the critical path by the slowdown factor.
  int max_node_retries = 3;
  double node_retry_backoff_seconds = 5.0;
  double straggler_slowdown = 4.0;
  int vc_guaranteed_tokens = 12;       // guaranteed containers per VC
  int vc_concurrent_jobs = 2;          // job-service slots per VC
  double bonus_availability_mean = 0.6;    // mean spare-capacity fraction
  double bonus_availability_stddev = 0.25; // opportunistic variance
  uint64_t seed = 7;
  // Time-series telemetry sink (not owned, may be null). Every
  // sample_interval_seconds of simulated time the simulator snapshots
  // engine/ledger gauges (views live, storage vs budget, hit rate,
  // cumulative net savings) into the collector.
  obs::TimeSeriesCollector* timeseries = nullptr;
  double sample_interval_seconds = 3600.0;  // one simulated hour
};

// A job instance ready for submission (produced by the workload generator).
struct GeneratedJob {
  int64_t job_id = 0;
  std::string virtual_cluster;
  int template_id = -1;   // -1 = ad hoc
  int pipeline_id = -1;
  int day = 0;
  double submit_time = 0.0;
  LogicalOpPtr plan;
  bool cloudviews_enabled = true;
};

// Record of one executed join operator (feeds the Figure 9 analysis of
// concurrently executing joins).
struct JoinExecutionRecord {
  Hash128 signature;      // strict signature of the join subexpression
  JoinAlgorithm algorithm = JoinAlgorithm::kHash;
  int day = 0;
  double start = 0.0;
  double end = 0.0;
};

// Discrete-event-ish cluster simulator: submits jobs (in nondecreasing
// submit-time order) to a ReuseEngine, models per-VC queueing and container
// allocation, and emits per-job telemetry.
class ClusterSimulator {
 public:
  ClusterSimulator(ReuseEngine* engine, ClusterSimOptions options = {});

  ClusterSimulator(const ClusterSimulator&) = delete;
  ClusterSimulator& operator=(const ClusterSimulator&) = delete;

  // Runs one job to completion. Jobs must be submitted in submit-time order.
  Result<JobTelemetry> SubmitJob(const GeneratedJob& job);

  // Runs a batch of overlapping jobs as one sharing window through
  // ReuseEngine::RunSharedWindow (common subexpressions execute once and
  // stream to every subscriber). Jobs must be in nondecreasing submit-time
  // order, both inside the batch and across calls. Returns one telemetry
  // row per job, placement failures included (flagged `failed`); a hard
  // engine failure fails the whole window. Per-job outputs are byte-
  // identical to serial SubmitJob calls; only resource telemetry reflects
  // the sharing.
  Result<std::vector<JobTelemetry>> SubmitSharedWindow(
      const std::vector<GeneratedJob>& batch);

  const TelemetrySeries& telemetry() const { return telemetry_; }
  TelemetrySeries& telemetry() { return telemetry_; }
  const std::vector<JoinExecutionRecord>& join_records() const {
    return join_records_;
  }
  const SimClock& clock() const { return clock_; }
  ReuseEngine* engine() { return engine_; }

  // Clears per-day join records older than `day` (bounds memory).
  void TrimJoinRecordsBefore(int day);

  // Emits one time-series sample per elapsed sample interval up to `now`
  // (no-op without a collector). SubmitJob calls this automatically; the
  // driver should call it once more at end-of-run so the final partial
  // interval is captured.
  void SampleUpTo(double now);

 private:
  struct StageAnalysis {
    double latency_seconds = 0.0;     // critical path
    double processing_seconds = 0.0;  // container-seconds
    int64_t containers = 0;
    int max_width = 0;
  };

  // Walks the executed plan, grouping operators into stages at exchange
  // boundaries and deriving latency / processing / container counts.
  StageAnalysis AnalyzeStages(const LogicalOp& root,
                              const ExecutionStats& stats) const;

  struct NodeAnalysis {
    double latency = 0.0;
    double cost_here = 0.0;  // cpu cost accumulated in the current stage
  };
  NodeAnalysis AnalyzeNode(const LogicalOp& node, const ExecutionStats& stats,
                           StageAnalysis* out) const;

  int StageWidth(const LogicalOp& node) const;

  void RecordJoins(const LogicalOp& node, int day, double start,
                   double end);

  // Shared tail of SubmitJob/SubmitSharedWindow: derives container,
  // processing, and latency metrics from an executed job and writes them
  // into `telemetry` (including latency_seconds).
  void DeriveResourceTelemetry(const JobExecution& exec, double retry_delay,
                               JobTelemetry* telemetry);

  // Node-placement fault model shared by SubmitJob/SubmitSharedWindow.
  // Injected BEFORE the engine runs so a retried job executes (and ingests
  // into the workload repository) exactly once. Each retry models the job
  // manager rescheduling the lost containers on a fresh node, with
  // exponential backoff accumulated into `retry_delay` (charged to the
  // job's latency). Returns OK once placed; after max_node_retries the
  // last fault status is returned with telemetry->failed set.
  Status TryPlaceJob(int64_t job_id, JobTelemetry* telemetry,
                     double* retry_delay);

  // Per-VC job-service state: finish times of currently running jobs.
  struct VcState {
    std::vector<double> running;  // finish times
    std::deque<double> waiting;   // submit times of queued jobs (for stats)
  };

  // Takes one snapshot stamped `sample_time` into the collector.
  void TakeSample(double sample_time);

  ReuseEngine* engine_;
  ClusterSimOptions options_;
  SimClock clock_;
  Random random_;
  TelemetrySeries telemetry_;
  std::map<std::string, VcState> vcs_;
  std::vector<JoinExecutionRecord> join_records_;
  // Sampling state. Registry counters are process-global and shared across
  // arms/tests, so rates are computed from deltas against baselines captured
  // at construction — that keeps exported series deterministic for a given
  // workload regardless of what ran before in the process.
  double next_sample_time_ = 0.0;
  uint64_t base_lookup_hits_ = 0;
  uint64_t base_lookup_misses_ = 0;
};

}  // namespace cloudviews

#endif  // CLOUDVIEWS_CLUSTER_SIMULATOR_H_
