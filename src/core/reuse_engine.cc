#include "core/reuse_engine.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <functional>
#include <utility>

#include "common/thread_pool.h"
#include "obs/log.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sharing/producer.h"
#include "sharing/sharing_rewrite.h"
#include "verify/verify.h"

namespace cloudviews {

namespace {

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

// A sharing window wakes one loop per this many tasks (at most DefaultDop()
// loops). Waking a pool thread costs about as much as a small job — tens of
// microseconds on a 4-vCPU VM — so small windows run on the calling thread
// alone, as the serial loop did; on that host the burst windows of 70-200
// jobs ran about 1.6 times as fast on four loops.
constexpr size_t kTasksPerLoop = 8;

}  // namespace

ReuseEngine::ReuseEngine(DatasetCatalog* catalog, ReuseEngineOptions options)
    : catalog_(catalog), options_(std::move(options)),
      view_store_(options_.view_ttl_seconds),
      view_manager_(&view_store_, &insights_, &provenance_) {
  view_store_.set_provenance(&provenance_);
  if (options_.enable_cardinality_feedback) {
    options_.optimizer.cardinality_feedback = &feedback_;
  }
  if (options_.optimizer.enable_generalized_matching) {
    repository_.generalized_index().SetSignatureOptions(
        options_.optimizer.signature_options);
    options_.optimizer.generalized_index = &repository_.generalized_index();
  }
  optimizer_ = std::make_unique<Optimizer>(catalog_, options_.optimizer);
  auditor_ = verify::SignatureAuditor(options_.optimizer.signature_options);
}

Result<LogicalOpPtr> ReuseEngine::BindPlan(const JobRequest& request) const {
  LogicalOpPtr bound;
  if (request.plan != nullptr) {
    bound = request.plan;
  } else {
    if (request.sql.empty()) {
      return Status::InvalidArgument("job has neither a plan nor SQL text");
    }
    PlanBuilder builder(catalog_);
    auto built = builder.BuildFromSql(request.sql);
    if (!built.ok()) return built.status();
    bound = std::move(built).value();
  }
  // Canonicalize: signatures only match across jobs whose equivalent
  // sub-plans normalize to the same shape (filter pushdown, conjunct order).
  LogicalOpPtr normalized = PlanNormalizer::Normalize(bound);
  if (options_.prune_columns) {
    normalized = PlanNormalizer::PruneColumns(normalized);
  }
  optimizer_->signatures().SealTree(normalized.get());
  return normalized;
}

bool ReuseEngine::ReuseEnabledFor(const JobRequest& request) const {
  return options_.cloudviews_enabled &&
         insights_.controls().IsEnabled(options_.cluster_name,
                                        request.virtual_cluster,
                                        request.cloudviews_enabled);
}

Result<OptimizationOutcome> ReuseEngine::CompileJob(
    const JobRequest& request) {
  auto plan = BindPlan(request);
  if (!plan.ok()) return plan.status();
  return CompileBound(request, *plan, ReuseEnabledFor(request));
}

Result<OptimizationOutcome> ReuseEngine::CompileBound(
    const JobRequest& request, const LogicalOpPtr& bound,
    bool reuse_enabled) {
  const LogicalOpPtr& plan = bound;
  if constexpr (verify::RuntimeChecksEnabled()) {
    // Audit the as-compiled plan's signatures against everything this
    // engine has compiled before: a collision or instability here would
    // corrupt every downstream reuse decision keyed on these hashes.
    CLOUDVIEWS_RETURN_NOT_OK(auditor_.AuditPlan(*plan));
  }
  QueryAnnotations annotations;
  annotations.max_views_per_job = options_.max_views_per_job;
  if (reuse_enabled) {
    // Extract the job's tags (recurring signatures of its subexpressions)
    // and fetch the matching annotations from the insights service.
    std::vector<Hash128> recurring;
    for (const NodeSignature& sig : SealedSignatures(*plan)) {
      recurring.push_back(sig.recurring);
    }
    for (const AnnotationEntry& entry : insights_.FetchAnnotations(recurring)) {
      annotations.materialize_candidates.insert(entry.recurring_signature);
    }
  }

  Optimizer::TryLockFn try_lock;
  if (reuse_enabled) {
    try_lock = [this, &request](const Hash128& sig) {
      bool acquired = insights_.TryAcquireViewLock(sig, request.job_id);
      if (acquired) {
        provenance_.RecordLockAcquired(sig, request.job_id,
                                       request.submit_time);
      }
      return acquired;
    };
  }
  auto outcome = optimizer_->Optimize(
      plan, annotations, reuse_enabled ? &view_store_ : nullptr, try_lock,
      request.submit_time,
      obs::DecisionSink(&decisions_, request.job_id));
  if constexpr (verify::RuntimeChecksEnabled()) {
    if (outcome.ok()) {
      // Every subsumption hit is re-verified by the auditor's independent
      // serialization path — a containment-checker bug must not survive to
      // execution as a silent wrong result.
      for (const SubsumedMatchAudit& audit : outcome->subsumed_audits) {
        CLOUDVIEWS_RETURN_NOT_OK(auditor_.AuditSubsumption(
            *audit.query_subtree, *audit.view_definition, audit.residual));
      }
    }
  }
  return outcome;
}

Result<ReuseEngine::PreparedJob> ReuseEngine::PrepareJob(
    const JobRequest& request) {
  static obs::Counter& jobs_counter =
      obs::MetricsRegistry::Global().counter(obs::metric_names::kEngineJobs);
  jobs_counter.Increment();

  PreparedJob job;
  job.request = request;
  job.reuse_enabled = ReuseEnabledFor(request);
  job.profile.job_id = request.job_id;
  job.profile.virtual_cluster = request.virtual_cluster;
  job.profile.day = request.day;
  job.profile.reuse_enabled = job.reuse_enabled;

  // Bind first and keep the as-compiled plan: the workload repository counts
  // subexpressions as they appear in compiled plans, regardless of whether
  // execution later answers them from views.
  auto bind_start = std::chrono::steady_clock::now();
  auto bound = [&] {
    obs::Span span("parse", "engine");
    return BindPlan(request);
  }();
  if (!bound.ok()) return bound.status();
  job.bound_plan = std::move(*bound);
  job.profile.phases.push_back({"bind", SecondsSince(bind_start)});

  auto compile_start = std::chrono::steady_clock::now();
  auto outcome = CompileBound(request, job.bound_plan, job.reuse_enabled);
  if (!outcome.ok()) return outcome.status();
  job.outcome = std::move(*outcome);
  job.profile.phases.push_back({"compile", SecondsSince(compile_start)});

  JobExecution& exec = job.exec;
  exec.job_id = request.job_id;
  exec.reuse_enabled = job.reuse_enabled;
  exec.views_matched = job.outcome.views_matched;
  exec.views_matched_subsumed = job.outcome.views_matched_subsumed;
  exec.matched_signatures = job.outcome.matched_signatures;
  exec.matched_details = job.outcome.matched_details;
  exec.built_signatures = job.outcome.proposed_materializations;
  exec.estimated_cost = job.outcome.estimated_cost;
  exec.estimated_cost_without_reuse =
      job.outcome.estimated_cost_without_reuse;
  exec.executed_plan = job.outcome.plan;
  exec.compiled_plan = job.bound_plan;
  if (job.reuse_enabled) {
    exec.compile_overhead_seconds = InsightsService::kFetchLatencySeconds;
  }

  // Register the materializations this job will produce.
  for (const Hash128& strict : job.outcome.proposed_materializations) {
    // Locate the spool node to recover its recurring signature and inputs.
    std::vector<LogicalOp*> stack = {job.outcome.plan.get()};
    while (!stack.empty()) {
      LogicalOp* op = stack.back();
      stack.pop_back();
      if (op->kind == LogicalOpKind::kSpool && op->view_signature == strict) {
        const LogicalOpPtr& definition = op->children[0];
        view_manager_
            .BeginMaterialize(strict, definition->recurring_signature,
                              request.virtual_cluster,
                              definition->InputDatasets(), request.job_id,
                              request.submit_time)
            .ok();
        if (options_.optimizer.enable_generalized_matching) {
          // Index the definition for containment matching: later queries in
          // the same match class can be answered by this view even when
          // their strict signatures differ.
          repository_.generalized_index().Register(
              strict, definition->recurring_signature, definition);
        }
        break;
      }
      for (const LogicalOpPtr& child : op->children) {
        stack.push_back(child.get());
      }
    }
  }
  return job;
}

Status ReuseEngine::ExecutePrepared(PreparedJob* job,
                                    const sharing::StreamDirectory* directory,
                                    DeferredEffects* effects) {
  const JobRequest& request = job->request;
  JobExecution& exec = job->exec;
  // Outside a window an effect is applied at once; inside one it waits in
  // `effects` until RunSharedWindow has joined every task.
  auto apply = [effects](std::function<void()> effect) {
    if (effects == nullptr) {
      effect();
    } else {
      effects->in_order.push_back(std::move(effect));
    }
  };

  // Execute with the sealing hook.
  ExecContext context;
  context.catalog = catalog_;
  context.view_store = &view_store_;
  context.job_seed = static_cast<uint64_t>(request.job_id) * 0x9E3779B9ULL +
                     static_cast<uint64_t>(request.day);
  context.now = request.submit_time;
  context.engine = options_.exec_engine;
  context.sharing = directory;
  context.on_spool_complete = [this, job, apply](
                                  const LogicalOp& spool, TablePtr contents,
                                  const OperatorStats& child_stats) {
    apply([this, job, signature = spool.view_signature,
           contents = std::move(contents), rows = child_stats.rows_out,
           bytes = child_stats.bytes_out]() mutable {
      Status sealed = view_manager_.SealEarly(
          signature, std::move(contents), rows, bytes, job->request.job_id,
          job->request.submit_time + options_.seal_delay_seconds);
      // What the failed run of a fallen-back job sealed is not its build.
      if (sealed.ok() && !job->exec.fell_back) job->exec.views_built += 1;
    });
  };
  context.on_spool_abort = [this, &request, apply](const LogicalOp& spool,
                                                   const Status& cause) {
    apply([this, signature = spool.view_signature, job_id = request.job_id,
           cause, now = request.submit_time] {
      view_manager_.AbortMaterialize(signature, job_id, cause, now);
    });
  };

  Executor executor(context);
  auto exec_start = std::chrono::steady_clock::now();
  auto run = executor.Execute(job->outcome.plan);
  if (!run.ok()) {
    // Job failed: release creation locks and drop half-written views.
    apply([this, job_id = request.job_id,
           locked = job->outcome.proposed_materializations] {
      view_manager_.AbandonJob(job_id, locked);
    });
    if (job->outcome.plan_without_reuse == nullptr) return run.status();
    // Graceful degradation: a reuse artifact — a matched view, a spool, or
    // the machinery around them — failed at execution time. Invalidate what
    // was matched and re-run the unrewritten alternative the optimizer kept;
    // the query answers from base scans with byte-identical output.
    static obs::Counter& fallbacks =
        obs::MetricsRegistry::Global().counter(
            obs::metric_names::kEngineFallbacks);
    fallbacks.Increment();
    obs::LogWarn("engine", "fallback_to_base_plan",
                 {{"job_id", request.job_id},
                  {"cause", run.status().ToString()},
                  {"views_matched", exec.views_matched}});
    for (const Hash128& sig : job->outcome.matched_signatures) {
      if (effects != nullptr) {
        // Mid-window, other tasks may still scan these views; erasure
        // waits until every task has joined.
        effects->invalidations.emplace_back(sig, request.submit_time);
      } else {
        view_store_.Invalidate(sig, request.submit_time).ok();
      }
    }
    exec.views_built = 0;
    exec.views_matched = 0;
    exec.views_matched_subsumed = 0;
    exec.matched_signatures.clear();
    exec.matched_details.clear();
    exec.built_signatures.clear();
    exec.fell_back = true;
    exec.estimated_cost = job->outcome.estimated_cost_without_reuse;
    exec.executed_plan = job->outcome.plan_without_reuse;
    ExecContext fallback_context = context;
    fallback_context.on_spool_complete = nullptr;
    fallback_context.on_spool_abort = nullptr;
    fallback_context.sharing = nullptr;  // the base plan has no SharedScans
    Executor fallback_executor(fallback_context);
    run = fallback_executor.Execute(job->outcome.plan_without_reuse);
    if (!run.ok()) return run.status();
  }
  job->profile.phases.push_back({"execute", SecondsSince(exec_start)});
  exec.output = run->output;
  exec.stats = run->stats;
  return Status::OK();
}

JobExecution ReuseEngine::FinalizeJob(PreparedJob job) {
  static obs::Counter& matched_counter =
      obs::MetricsRegistry::Global().counter(
          obs::metric_names::kEngineViewsMatched);
  static obs::Counter& built_counter =
      obs::MetricsRegistry::Global().counter(
          obs::metric_names::kEngineViewsBuilt);
  const JobRequest& request = job.request;
  JobExecution& exec = job.exec;
  obs::QueryProfile& profile = job.profile;

  // Record reuse hits (none when the job fell back to the base plan). The
  // per-hit attributed saving is the estimated cost of recomputing the
  // replaced subtree minus the cost of scanning the view instead — the same
  // quantities the optimizer compared when it chose to reuse, and the
  // saving its decision event recorded.
  for (const MatchedViewDetail& detail : exec.matched_details) {
    view_store_.RecordReuse(detail.strict).ok();
    provenance_.RecordHit(detail.strict, request.job_id, request.submit_time,
                          detail.recompute_cost - detail.view_scan_cost,
                          detail.rows_avoided, detail.bytes_avoided,
                          request.queue_wait_seconds);
    if (detail.subsumed) {
      hits_subsumed_ += 1;
    } else {
      hits_exact_ += 1;
    }
  }

  // Feed the workload repository: occurrences come from the as-compiled
  // plan, runtime metrics from whatever actually executed (joined on
  // signature).
  auto ingest_start = std::chrono::steady_clock::now();
  {
    obs::Span span("ingest", "engine");
    std::vector<NodeSignature> executed_sigs =
        SealedSignatures(*exec.executed_plan);
    MetricsBySignature metrics =
        WorkloadRepository::CollectMetrics(executed_sigs, exec.stats);
    repository_.IngestJob(request.job_id, request.virtual_cluster,
                          request.day, request.submit_time,
                          SealedSignatures(*job.bound_plan), metrics);

    // Feed the cardinality micro-models with what executed.
    if (options_.enable_cardinality_feedback) {
      for (const NodeSignature& sig : executed_sigs) {
        if (!sig.eligible || sig.subtree_size < 2) continue;
        auto it = metrics.find(sig.strict);
        if (it != metrics.end()) {
          feedback_.Record(sig.recurring, it->second.rows, it->second.bytes);
        }
      }
    }
  }
  profile.phases.push_back({"ingest", SecondsSince(ingest_start)});

  // Assemble the per-query profile and hand it to the insights service.
  static obs::Counter& hashed_counter = obs::MetricsRegistry::Global().counter(
      obs::metric_names::kEngineNodesHashed);
  hashed_counter.Add(optimizer_->signatures().TakeNodesHashed());
  matched_counter.Add(static_cast<uint64_t>(exec.views_matched));
  built_counter.Add(static_cast<uint64_t>(exec.views_built));
  profile.views_matched = exec.views_matched;
  profile.views_built = exec.views_built;
  profile.matched_signatures.reserve(exec.matched_signatures.size());
  for (const Hash128& sig : exec.matched_signatures) {
    profile.matched_signatures.push_back(sig.ToHex());
  }
  profile.FillFromStats(exec.stats);
  exec.profile = profile;
  insights_.RecordProfile(std::move(profile));
  return std::move(job.exec);
}

Result<JobExecution> ReuseEngine::RunJob(const JobRequest& request) {
  obs::Span query_span("query", "engine");
  query_span.Arg("job_id", static_cast<int64_t>(request.job_id));
  query_span.Arg("vc", request.virtual_cluster);

  auto prepared = PrepareJob(request);
  if (!prepared.ok()) return prepared.status();
  CLOUDVIEWS_RETURN_NOT_OK(
      ExecutePrepared(&*prepared, /*directory=*/nullptr, /*effects=*/nullptr));
  JobExecution exec = FinalizeJob(std::move(*prepared));
  query_span.Arg("views_matched", static_cast<int64_t>(exec.views_matched));
  query_span.Arg("views_built", static_cast<int64_t>(exec.views_built));
  return exec;
}

Result<std::vector<JobExecution>> ReuseEngine::RunSharedWindow(
    const std::vector<JobRequest>& requests) {
  std::vector<JobExecution> results;
  results.reserve(requests.size());
  // Sharing needs at least two in-flight jobs and the columnar engine (the
  // producer streams column batches); otherwise the window degrades to the
  // serial path, bytes unchanged.
  const bool sharable = options_.enable_sharing &&
                        options_.exec_engine == ExecEngine::kColumnar &&
                        requests.size() >= 2;
  if (!sharable) {
    for (const JobRequest& request : requests) {
      auto run = RunJob(request);
      if (!run.ok()) return run.status();
      results.push_back(std::move(*run));
    }
    return results;
  }

  obs::Span window_span("sharing-window", "engine");
  window_span.Arg("jobs", static_cast<int64_t>(requests.size()));

  // Compile every job first, in submit order — exactly the plans serial
  // RunJob calls would produce (view matching, locks, spools included).
  std::vector<PreparedJob> jobs;
  jobs.reserve(requests.size());
  // Withdraws the materializations PrepareJob registered for jobs that will
  // not complete; creation locks never expire, so a leaked one would keep
  // every later job of this engine from building its view.
  auto abandon_from = [&](size_t first) {
    for (size_t i = first; i < jobs.size(); ++i) {
      view_manager_.AbandonJob(jobs[i].request.job_id,
                               jobs[i].outcome.proposed_materializations);
    }
  };
  double window_now = 0.0;
  for (const JobRequest& request : requests) {
    auto prepared = PrepareJob(request);
    if (!prepared.ok()) {
      abandon_from(0);
      return prepared.status();
    }
    window_now = std::max(window_now, request.submit_time);
    jobs.push_back(std::move(*prepared));
  }

  // The policy and rewrite elect one producer per subexpression that
  // enough of the window's optimized plans cover.
  sharing::SharingRegistry registry;
  sharing::SharingPolicy policy(options_.sharing_policy);
  policy.LoadLedger(provenance_, window_now);
  std::vector<LogicalOpPtr*> plans;
  plans.reserve(jobs.size());
  for (PreparedJob& job : jobs) plans.push_back(&job.outcome.plan);
  std::vector<obs::DecisionSink> decision_sinks;
  decision_sinks.reserve(jobs.size());
  for (const PreparedJob& job : jobs) {
    decision_sinks.emplace_back(&decisions_, job.request.job_id);
  }
  sharing::RewriteResult rewrite = sharing::RewriteForSharing(
      plans, optimizer_->signatures(), policy, &decision_sinks);
  // A job whose whole plan became one SharedScan keeps its pre-rewrite plan
  // as executed_plan, a known defect (that plan never ran; see ROADMAP.md).
  for (PreparedJob& job : jobs) {
    if (job.outcome.plan->kind != LogicalOpKind::kSharedScan) {
      job.exec.executed_plan = job.outcome.plan;
    }
  }

  // Spools that vanished in the rewrite (nested inside a replaced subtree,
  // or stripped by a share-now decision) will never seal: withdraw their
  // materializations now so the creation locks release.
  for (const auto& [job_index, sig] : rewrite.dropped_spools) {
    PreparedJob& job = jobs[job_index];
    view_manager_.AbandonJob(job.request.job_id, {sig});
    auto& built = job.exec.built_signatures;
    built.erase(std::remove(built.begin(), built.end(), sig), built.end());
    auto& proposed = job.outcome.proposed_materializations;
    proposed.erase(std::remove(proposed.begin(), proposed.end(), sig),
                   proposed.end());
  }

  // Open every stream before any task runs: the directory stays frozen
  // while subscribers look their streams up.
  static obs::Counter& fanout_counter = obs::MetricsRegistry::Global().counter(
      obs::metric_names::kSharingFanout);
  for (const sharing::StreamPlan& stream_plan : rewrite.streams) {
    registry.CreateStream(stream_plan.strict, stream_plan.fanout);
    fanout_counter.Add(static_cast<uint64_t>(stream_plan.fanout));
  }
  // Producers see sealed views (for ViewScans in the shared subtree) but no
  // spool hooks and no stream directory — their plans are spool- and
  // SharedScan-free copies.
  const size_t num_streams = rewrite.streams.size();
  std::vector<sharing::ProducerStats> producer_stats(num_streams);
  auto run_producer = [&](size_t i) {
    const sharing::StreamPlan& stream_plan = rewrite.streams[i];
    const JobRequest& elected = jobs[stream_plan.elected_job].request;
    ExecContext context;
    context.catalog = catalog_;
    context.view_store = &view_store_;
    // Shared subtrees are signature-eligible, hence free of
    // non-deterministic UDOs: the seed never affects their output. Set to
    // the elected job's seed anyway so a debug trace reads sensibly.
    context.job_seed = static_cast<uint64_t>(elected.job_id) * 0x9E3779B9ULL +
                       static_cast<uint64_t>(elected.day);
    context.now = elected.submit_time;
    context.engine = ExecEngine::kColumnar;
    Status status =
        sharing::RunProducer(context, stream_plan.producer_plan,
                             registry.streams()[i].get(), &producer_stats[i]);
    if (!status.ok()) {
      obs::LogWarn("sharing", "producer_aborted",
                   {{"signature", stream_plan.strict.ToHex()},
                    {"cause", status.ToString()}});
    }
  };

  // One task list: the producers, then the jobs in submit order. At most
  // DefaultDop() loops drain it (one per kTasksPerLoop tasks), the calling
  // thread running one, and each claims the next index from one counter.
  // So a job is claimed only after every producer has started, and a
  // producer never waits: it reads only views sealed before the window, and
  // Publish never blocks. No subscriber can wait on a producer that has not
  // started, even when the calling thread is the only loop that runs. A
  // task never waits on a TaskGroup, so no loop starts beneath another.
  const size_t num_tasks = num_streams + jobs.size();
  std::vector<Status> job_status(jobs.size());
  std::vector<DeferredEffects> effects(jobs.size());
  // atomic[relaxed]: a claim ticket; the TaskGroup join publishes what the
  // tasks wrote, and the stream protocol what producers publish.
  std::atomic<size_t> next_task{0};
  auto drain = [&]() -> Status {
    for (size_t task = next_task.fetch_add(1, std::memory_order_relaxed);
         task < num_tasks;
         task = next_task.fetch_add(1, std::memory_order_relaxed)) {
      if (task < num_streams) {
        run_producer(task);
      } else {
        const size_t j = task - num_streams;
        job_status[j] = ExecutePrepared(&jobs[j], &registry, &effects[j]);
      }
    }
    return Status::OK();
  };
  TaskGroup group(&ThreadPool::Shared());
  const size_t loops =
      std::clamp(num_tasks / kTasksPerLoop, size_t{1},
                 static_cast<size_t>(ThreadPool::DefaultDop()));
  for (size_t i = 1; i < loops; ++i) group.Spawn(drain);
  drain().ok();
  group.Wait().ok();

  // Apply the effects in the serial order: every job's, in submit order,
  // through the first job that failed hard (its status is the window's);
  // later jobs never complete, so their effects are dropped and their
  // materializations withdrawn. The fallback invalidations come last.
  Status window_status;
  size_t applied = 0;
  while (applied < jobs.size() && window_status.ok()) {
    for (std::function<void()>& effect : effects[applied].in_order) effect();
    window_status = job_status[applied++];
  }
  abandon_from(applied);
  for (size_t i = 0; i < applied; ++i) {
    for (const auto& [sig, when] : effects[i].invalidations) {
      view_store_.Invalidate(sig, when).ok();
    }
  }
  CLOUDVIEWS_RETURN_NOT_OK(window_status);

  // Fold the window's telemetry.
  sharing_stats_.windows += 1;
  for (size_t i = 0; i < rewrite.streams.size(); ++i) {
    const sharing::SharedStream& stream = *registry.streams()[i];
    sharing_stats_.streams += 1;
    sharing_stats_.fanout += static_cast<int64_t>(stream.fanout());
    sharing_stats_.hits += static_cast<int64_t>(stream.subscribers_served());
    sharing_stats_.detaches +=
        static_cast<int64_t>(stream.subscribers_detached());
    sharing_stats_.batches_produced += producer_stats[i].batches;
    sharing_stats_.producer_cpu_cost += producer_stats[i].cpu_cost;
    sharing_stats_.rows_shared += stream.rows_published();
    sharing_stats_.bytes_shared += stream.bytes_published();
    if (stream.state() == sharing::SharedStream::State::kAborted) {
      sharing_stats_.producer_aborts += 1;
    } else {
      // Savings only count when the stream actually served its window;
      // aborted streams made subscribers recompute via their fallbacks.
      sharing_stats_.saved_cost += rewrite.streams[i].saved_cost;
    }
  }
  window_span.Arg("streams", static_cast<int64_t>(rewrite.streams.size()));

  for (PreparedJob& job : jobs) {
    results.push_back(FinalizeJob(std::move(job)));
  }
  return results;
}

SelectionResult ReuseEngine::RunViewSelection(double now) {
  if constexpr (verify::RuntimeChecksEnabled()) {
    // Selection trusts repository aggregates; cross-check them against the
    // signatures of every plan compiled so far before choosing views.
    Status audit = auditor_.CrossCheckGroups(repository_.AuditGroups());
    if (!audit.ok()) {
      obs::LogError("engine", "repository_audit_failed",
                    {{"status", audit.ToString()}});
    }
  }
  static obs::Counter& runs = obs::MetricsRegistry::Global().counter(
      obs::metric_names::kSelectionRuns);
  static obs::Counter& candidates = obs::MetricsRegistry::Global().counter(
      obs::metric_names::kSelectionCandidates);
  static obs::Counter& evaluations = obs::MetricsRegistry::Global().counter(
      obs::metric_names::kSelectionEvaluations);
  static obs::Counter& selected = obs::MetricsRegistry::Global().counter(
      obs::metric_names::kSelectionSelected);
  static obs::Histogram& run_us = obs::MetricsRegistry::Global().histogram(
      obs::metric_names::kSelectionRunUs, obs::LatencyBucketsUs());
  SelectionConstraints constraints = options_.selection;
  ViewSelector selector(constraints);
  const bool timed = obs::Tracer::Enabled();
  const uint64_t start_us = timed ? obs::Tracer::NowMicros() : 0;
  SelectionResult result = selector.Select(repository_);
  if (timed) {
    run_us.Observe(static_cast<double>(obs::Tracer::NowMicros() - start_us));
  }
  runs.Increment();
  candidates.Add(static_cast<uint64_t>(result.candidates_considered));
  evaluations.Add(static_cast<uint64_t>(result.evaluations));
  selected.Add(result.selected.size());
  // The ledger's candidate events open the lifecycle: this is where a
  // subexpression was judged worth materializing. The candidate's strict
  // signature is the last observed instance; future instances may
  // materialize under fresh strict signatures (their streams then open at
  // lock acquisition instead).
  for (const ViewCandidate& candidate : result.selected) {
    provenance_.RecordCandidate(
        candidate.strict_signature, candidate.recurring_signature,
        candidate.virtual_clusters.empty() ? std::string()
                                           : candidate.virtual_clusters[0],
        candidate.utility, now);
  }
  insights_.PublishSelection(result);
  return result;
}

void ReuseEngine::Maintenance(double now) { view_manager_.PurgeExpired(now); }

size_t ReuseEngine::OnDatasetUpdated(const std::string& dataset_name) {
  return view_manager_.InvalidateByDataset(dataset_name);
}

void ReuseEngine::OnRuntimeVersionChange(uint64_t new_version) {
  options_.optimizer.signature_options.runtime_version = new_version;
  optimizer_ = std::make_unique<Optimizer>(catalog_, options_.optimizer);
  // All hashes moved: the auditor's accumulated hash<->canonical maps are
  // keyed by the old version and must restart from scratch.
  auditor_ = verify::SignatureAuditor(options_.optimizer.signature_options);
  // Every existing view and annotation was keyed by the old signatures.
  view_manager_.InvalidateAll();
  // Indexed definitions carry old-version class keys and strict signatures.
  repository_.generalized_index().SetSignatureOptions(
      options_.optimizer.signature_options);
  insights_.PublishSelection(SelectionResult{});
}

}  // namespace cloudviews
