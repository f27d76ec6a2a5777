#include "cluster/simulator.h"

#include <algorithm>
#include <cmath>

#include "fault/fault.h"
#include "fault/fault_sites.h"
#include "obs/decision.h"
#include "obs/log.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "obs/provenance.h"
#include "obs/trace.h"

namespace cloudviews {

namespace {

// Operators that run as their own stage (behind an exchange) and therefore
// claim containers. Filters/projects/limits fuse into their producer stage.
bool ClaimsContainers(LogicalOpKind kind) {
  switch (kind) {
    case LogicalOpKind::kScan:
    case LogicalOpKind::kViewScan:
    case LogicalOpKind::kSharedScan:
    case LogicalOpKind::kJoin:
    case LogicalOpKind::kAggregate:
    case LogicalOpKind::kSort:
    case LogicalOpKind::kSpool:
    case LogicalOpKind::kUdo:
      return true;
    default:
      return false;
  }
}

}  // namespace

ClusterSimulator::ClusterSimulator(ReuseEngine* engine,
                                   ClusterSimOptions options)
    : engine_(engine), options_(options), random_(options.seed) {
  next_sample_time_ = options_.sample_interval_seconds;
  base_lookup_hits_ = obs::MetricsRegistry::Global()
                          .counter(obs::metric_names::kViewsLookupHit)
                          .Value();
  base_lookup_misses_ = obs::MetricsRegistry::Global()
                            .counter(obs::metric_names::kViewsLookupMiss)
                            .Value();
}

int ClusterSimulator::StageWidth(const LogicalOp& node) const {
  // Width is driven by the optimizer's ESTIMATE of the stage input size:
  // over-estimates instantiate more containers than the data needs. Nodes
  // whose statistics were fed back from materialized views estimate
  // accurately (stats_from_view), shrinking width.
  double input_rows = 0.0;
  if (node.children.empty()) {
    input_rows = node.estimated_rows;
  } else {
    for (const LogicalOpPtr& child : node.children) {
      input_rows += child->estimated_rows;
    }
  }
  int width = static_cast<int>(
      std::ceil(input_rows / std::max(1.0, options_.rows_per_partition)));
  return std::clamp(width, 1, options_.max_stage_width);
}

ClusterSimulator::NodeAnalysis ClusterSimulator::AnalyzeNode(
    const LogicalOp& node, const ExecutionStats& stats,
    StageAnalysis* out) const {
  double cpu = 0.0;
  auto it = stats.per_node.find(&node);
  if (it != stats.per_node.end()) cpu = it->second.cpu_cost;
  out->processing_seconds += cpu / options_.cpu_rate;

  double child_latency = 0.0;
  double fused_child_cost = 0.0;
  for (const LogicalOpPtr& child : node.children) {
    NodeAnalysis child_analysis = AnalyzeNode(*child, stats, out);
    child_latency = std::max(child_latency, child_analysis.latency);
    fused_child_cost += child_analysis.cost_here;
  }

  if (node.kind == LogicalOpKind::kSpool) {
    // The spool's extra write work runs in a separate parallel stage: it
    // costs processing time but stays off the job's critical path. The
    // pass-through consumer continues with the child's data immediately.
    int width = StageWidth(node);
    out->containers += width;
    out->max_width = std::max(out->max_width, width);
    return {child_latency, fused_child_cost};
  }

  if (ClaimsContainers(node.kind)) {
    int width = StageWidth(node);
    out->containers += width;
    out->max_width = std::max(out->max_width, width);
    double stage_cost = cpu + fused_child_cost;
    // Containers scale the stage's cost down by width. Only cost units
    // enter, never measured time, so the host never shows here.
    double elapsed =
        stage_cost / (static_cast<double>(width) * options_.cpu_rate) +
        options_.container_startup_seconds * std::log2(width + 1.0);
    return {child_latency + elapsed, 0.0};
  }

  // Fused operator: its cost rides along until the next stage boundary.
  return {child_latency, cpu + fused_child_cost};
}

ClusterSimulator::StageAnalysis ClusterSimulator::AnalyzeStages(
    const LogicalOp& root, const ExecutionStats& stats) const {
  StageAnalysis out;
  NodeAnalysis root_analysis = AnalyzeNode(root, stats, &out);
  // Account any cost fused above the last boundary (e.g. final project) as a
  // single-container tail stage.
  out.latency_seconds =
      root_analysis.latency + root_analysis.cost_here / options_.cpu_rate;
  if (root_analysis.cost_here > 0 && !ClaimsContainers(root.kind)) {
    out.containers += 1;
    out.max_width = std::max(out.max_width, 1);
  }
  return out;
}

void ClusterSimulator::RecordJoins(const LogicalOp& node, int day,
                                   double start, double end) {
  if (node.kind == LogicalOpKind::kJoin) {
    JoinExecutionRecord record;
    record.signature = node.strict_signature;  // executed plans are sealed
    record.algorithm = node.join_algorithm;
    record.day = day;
    record.start = start;
    record.end = end;
    join_records_.push_back(record);
  }
  for (const LogicalOpPtr& child : node.children) {
    RecordJoins(*child, day, start, end);
  }
}

void ClusterSimulator::TakeSample(double sample_time) {
  obs::TimeSeriesCollector* ts = options_.timeseries;
  const ViewStore& store = engine_->view_store();
  ts->series("views.live").Add(sample_time,
                               static_cast<double>(store.NumLive()));
  ts->series("storage.used_bytes")
      .Add(sample_time, static_cast<double>(store.TotalBytes()));
  ts->series("storage.budget_bytes")
      .Add(sample_time,
           static_cast<double>(
               engine_->options().selection.storage_budget_bytes));
  ts->series("views.created")
      .Add(sample_time, static_cast<double>(store.total_views_created()));
  ts->series("views.reused")
      .Add(sample_time, static_cast<double>(store.total_views_reused()));
  ts->series("views.quarantined")
      .Add(sample_time, static_cast<double>(store.total_views_quarantined()));
  // Hit rate over this simulator's lifetime, from registry deltas (the
  // counters themselves are process-global).
  uint64_t hits = obs::MetricsRegistry::Global()
                      .counter(obs::metric_names::kViewsLookupHit)
                      .Value() -
                  base_lookup_hits_;
  uint64_t misses = obs::MetricsRegistry::Global()
                        .counter(obs::metric_names::kViewsLookupMiss)
                        .Value() -
                    base_lookup_misses_;
  double lookups = static_cast<double>(hits + misses);
  ts->series("reuse.hit_rate")
      .Add(sample_time,
           lookups > 0.0 ? static_cast<double>(hits) / lookups : 0.0);
  if (obs::ProvenanceLedger::Enabled()) {
    obs::LedgerTotals totals = engine_->provenance().Totals(sample_time);
    ts->series("savings.attributed").Add(sample_time,
                                         totals.attributed_savings);
    ts->series("savings.build_cost").Add(sample_time, totals.build_cost);
    ts->series("savings.storage_rent").Add(sample_time, totals.storage_rent);
    ts->series("savings.net").Add(sample_time, totals.net_savings);
  }
  if (obs::DecisionLedger::Enabled()) {
    // Hourly miss-attribution trajectory: how much estimated cost the fleet
    // has left on the table so far, and the hit/miss decision mix.
    obs::DecisionTotals totals = engine_->decisions().Totals();
    ts->series("decisions.events")
        .Add(sample_time, static_cast<double>(totals.events));
    ts->series("decisions.hits")
        .Add(sample_time, static_cast<double>(totals.hits));
    ts->series("decisions.misses")
        .Add(sample_time, static_cast<double>(totals.misses));
    ts->series("decisions.foregone_saving")
        .Add(sample_time, totals.foregone_saving);
    ts->series("decisions.realized_saving")
        .Add(sample_time, totals.realized_saving);
  }
}

void ClusterSimulator::SampleUpTo(double now) {
  if (options_.timeseries == nullptr ||
      options_.sample_interval_seconds <= 0.0) {
    return;
  }
  while (next_sample_time_ <= now) {
    TakeSample(next_sample_time_);
    next_sample_time_ += options_.sample_interval_seconds;
  }
}

Result<JobTelemetry> ClusterSimulator::SubmitJob(const GeneratedJob& job) {
  static obs::Counter& jobs_counter =
      obs::MetricsRegistry::Global().counter(obs::metric_names::kSimJobs);
  static obs::Histogram& wait_hist =
      obs::MetricsRegistry::Global().histogram(
          obs::metric_names::kSimQueueWaitSeconds,
          obs::WaitBucketsSeconds());
  jobs_counter.Increment();
  obs::Span span("job", "sim");
  span.Arg("job_id", static_cast<int64_t>(job.job_id));
  span.Arg("day", static_cast<int64_t>(job.day));

  clock_.AdvanceTo(job.submit_time);
  // Jobs arrive in nondecreasing submit-time order, so every sample interval
  // that elapsed before this submission can be flushed now.
  SampleUpTo(job.submit_time);

  // --- Queueing at the job service -----------------------------------------
  VcState& vc = vcs_[job.virtual_cluster];
  if (vc.running.empty()) {
    vc.running.assign(static_cast<size_t>(options_.vc_concurrent_jobs), 0.0);
  }
  // Queue length observed at submission: previously assigned jobs that have
  // not started yet.
  while (!vc.waiting.empty() && vc.waiting.front() <= job.submit_time) {
    vc.waiting.pop_front();
  }
  int queue_length = static_cast<int>(vc.waiting.size());

  auto earliest = std::min_element(vc.running.begin(), vc.running.end());
  double start_time = std::max(job.submit_time, *earliest);
  double queue_wait = start_time - job.submit_time;
  wait_hist.Observe(queue_wait);

  // --- Execute through the reuse engine ------------------------------------
  JobRequest request;
  request.job_id = job.job_id;
  request.virtual_cluster = job.virtual_cluster;
  request.plan = job.plan;
  request.submit_time = job.submit_time;
  request.day = job.day;
  request.cloudviews_enabled = job.cloudviews_enabled;
  request.queue_wait_seconds = queue_wait;

  JobTelemetry telemetry;
  telemetry.job_id = job.job_id;
  telemetry.day = job.day;
  telemetry.virtual_cluster = job.virtual_cluster;
  telemetry.pipeline_id = job.pipeline_id;
  telemetry.template_id = job.template_id;
  telemetry.queue_length_at_submit = queue_length;
  telemetry.queue_wait_seconds = queue_wait;

  // --- Node placement faults ------------------------------------------------
  double retry_delay = 0.0;
  Status placed = TryPlaceJob(job.job_id, &telemetry, &retry_delay);
  if (!placed.ok()) {
    *earliest = start_time;  // failed jobs release their slot immediately
    telemetry_.Record(telemetry);
    return placed;
  }

  auto exec = engine_->RunJob(request);
  if (!exec.ok()) {
    telemetry.failed = true;
    *earliest = start_time;  // failed jobs release their slot immediately
    telemetry_.Record(telemetry);
    return exec.status();
  }

  // --- Derive resource metrics ----------------------------------------------
  DeriveResourceTelemetry(*exec, retry_delay, &telemetry);

  // Occupy the slot until the job finishes.
  double finish = start_time + telemetry.latency_seconds;
  *earliest = finish;
  if (queue_wait > 0.0) vc.waiting.push_back(start_time);

  RecordJoins(*exec->executed_plan, job.day, start_time, finish);
  telemetry_.Record(telemetry);
  return telemetry;
}

Status ClusterSimulator::TryPlaceJob(int64_t job_id, JobTelemetry* telemetry,
                                     double* retry_delay) {
  for (int attempt = 0;; ++attempt) {
    Status placed = fault::Inject(fault::sites::kNodeFail);
    if (placed.ok()) return placed;
    if (attempt + 1 >= options_.max_node_retries) {
      telemetry->failed = true;
      obs::LogWarn("sim", "job_failed_node_retries_exhausted",
                   {{"job_id", job_id},
                    {"retries", telemetry->node_retries}});
      return placed;
    }
    telemetry->node_retries += 1;
    *retry_delay +=
        options_.node_retry_backoff_seconds * std::pow(2.0, attempt);
    static obs::Counter& retries = obs::MetricsRegistry::Global().counter(
        obs::metric_names::kFaultsRetries);
    retries.Increment();
  }
}

void ClusterSimulator::DeriveResourceTelemetry(const JobExecution& exec,
                                               double retry_delay,
                                               JobTelemetry* telemetry) {
  StageAnalysis stages = AnalyzeStages(*exec.executed_plan, exec.stats);

  telemetry->views_built = exec.views_built;
  telemetry->views_matched = exec.views_matched;
  telemetry->containers = stages.containers;
  telemetry->processing_seconds = stages.processing_seconds;
  telemetry->input_mb =
      static_cast<double>(exec.stats.input_bytes) / (1024.0 * 1024.0);
  telemetry->data_read_mb =
      static_cast<double>(exec.stats.total_bytes_read) / (1024.0 * 1024.0);

  // Opportunistic (bonus) allocation: stages wider than the VC's guaranteed
  // tokens borrow idle cluster capacity, with high variance.
  double latency =
      stages.latency_seconds + exec.compile_overhead_seconds + retry_delay;
  if (stages.max_width > options_.vc_guaranteed_tokens) {
    double overflow =
        static_cast<double>(stages.max_width - options_.vc_guaranteed_tokens) /
        static_cast<double>(stages.max_width);
    double availability =
        std::clamp(random_.Gaussian(options_.bonus_availability_mean,
                                    options_.bonus_availability_stddev),
                   0.0, 1.0);
    telemetry->bonus_processing_seconds =
        stages.processing_seconds * overflow * availability;
    // Unavailable bonus capacity stretches the critical path: this is the
    // runtime unpredictability the paper attributes to bonus reliance.
    latency *= 1.0 + overflow * (1.0 - availability);
  }
  // Straggler injection: one slow node holds the whole stage hostage, so the
  // critical path stretches by the slowdown factor. Results are unaffected
  // (the engine already ran); only the latency tail moves.
  if (!fault::Inject(fault::sites::kNodeStraggler).ok()) {
    latency *= options_.straggler_slowdown;
    telemetry->straggler = true;
  }
  telemetry->latency_seconds = latency;
}

Result<std::vector<JobTelemetry>> ClusterSimulator::SubmitSharedWindow(
    const std::vector<GeneratedJob>& batch) {
  static obs::Counter& jobs_counter =
      obs::MetricsRegistry::Global().counter(obs::metric_names::kSimJobs);
  static obs::Histogram& wait_hist =
      obs::MetricsRegistry::Global().histogram(
          obs::metric_names::kSimQueueWaitSeconds,
          obs::WaitBucketsSeconds());

  obs::Span span("window", "sim");
  span.Arg("jobs", static_cast<int64_t>(batch.size()));

  // --- Admission: queueing + node placement per job, in submit order -------
  struct Admitted {
    const GeneratedJob* job;
    JobTelemetry telemetry;
    double start_time = 0.0;
    double retry_delay = 0.0;
  };
  std::vector<Admitted> admitted;
  admitted.reserve(batch.size());
  std::vector<JobRequest> requests;
  requests.reserve(batch.size());
  std::vector<JobTelemetry> results;
  results.reserve(batch.size());

  for (const GeneratedJob& job : batch) {
    jobs_counter.Increment();
    clock_.AdvanceTo(job.submit_time);
    SampleUpTo(job.submit_time);

    VcState& vc = vcs_[job.virtual_cluster];
    if (vc.running.empty()) {
      vc.running.assign(static_cast<size_t>(options_.vc_concurrent_jobs),
                        0.0);
    }
    while (!vc.waiting.empty() && vc.waiting.front() <= job.submit_time) {
      vc.waiting.pop_front();
    }
    int queue_length = static_cast<int>(vc.waiting.size());
    auto earliest = std::min_element(vc.running.begin(), vc.running.end());
    double start_time = std::max(job.submit_time, *earliest);
    double queue_wait = start_time - job.submit_time;
    wait_hist.Observe(queue_wait);

    Admitted entry;
    entry.job = &job;
    entry.start_time = start_time;
    entry.telemetry.job_id = job.job_id;
    entry.telemetry.day = job.day;
    entry.telemetry.virtual_cluster = job.virtual_cluster;
    entry.telemetry.pipeline_id = job.pipeline_id;
    entry.telemetry.template_id = job.template_id;
    entry.telemetry.queue_length_at_submit = queue_length;
    entry.telemetry.queue_wait_seconds = queue_wait;

    // Same placement-fault model as SubmitJob; a job that exhausts its
    // retries drops out of the window (it never reaches the engine, so it
    // cannot be elected producer or subscribe to anything).
    if (!TryPlaceJob(job.job_id, &entry.telemetry, &entry.retry_delay)
             .ok()) {
      *earliest = start_time;
      telemetry_.Record(entry.telemetry);
      results.push_back(entry.telemetry);
      continue;
    }

    JobRequest request;
    request.job_id = job.job_id;
    request.virtual_cluster = job.virtual_cluster;
    request.plan = job.plan;
    request.submit_time = job.submit_time;
    request.day = job.day;
    request.cloudviews_enabled = job.cloudviews_enabled;
    request.queue_wait_seconds = queue_wait;
    requests.push_back(std::move(request));
    admitted.push_back(std::move(entry));
  }

  // --- Execute the window through the engine --------------------------------
  auto execs = engine_->RunSharedWindow(requests);
  if (!execs.ok()) {
    for (Admitted& entry : admitted) {
      entry.telemetry.failed = true;
      telemetry_.Record(entry.telemetry);
    }
    return execs.status();
  }

  // --- Per-job resource metrics, in admission order -------------------------
  for (size_t i = 0; i < admitted.size(); ++i) {
    Admitted& entry = admitted[i];
    const JobExecution& exec = (*execs)[i];
    DeriveResourceTelemetry(exec, entry.retry_delay, &entry.telemetry);

    double finish = entry.start_time + entry.telemetry.latency_seconds;
    VcState& vc = vcs_[entry.job->virtual_cluster];
    auto earliest = std::min_element(vc.running.begin(), vc.running.end());
    *earliest = std::max(*earliest, finish);
    if (entry.telemetry.queue_wait_seconds > 0.0) {
      vc.waiting.push_back(entry.start_time);
    }

    RecordJoins(*exec.executed_plan, entry.job->day, entry.start_time,
                finish);
    telemetry_.Record(entry.telemetry);
    results.push_back(entry.telemetry);
  }
  return results;
}

void ClusterSimulator::TrimJoinRecordsBefore(int day) {
  join_records_.erase(
      std::remove_if(join_records_.begin(), join_records_.end(),
                     [day](const JoinExecutionRecord& r) {
                       return r.day < day;
                     }),
      join_records_.end());
}

}  // namespace cloudviews
