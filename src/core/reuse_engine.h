#ifndef CLOUDVIEWS_CORE_REUSE_ENGINE_H_
#define CLOUDVIEWS_CORE_REUSE_ENGINE_H_

#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "core/insights_service.h"
#include "core/view_manager.h"
#include "core/view_selection.h"
#include "core/workload_repository.h"
#include "exec/executor.h"
#include "obs/decision.h"
#include "obs/profile.h"
#include "obs/provenance.h"
#include "optimizer/cardinality_feedback.h"
#include "optimizer/optimizer.h"
#include "plan/builder.h"
#include "plan/normalizer.h"
#include "sharing/sharing_policy.h"
#include "sharing/sharing_registry.h"
#include "storage/catalog.h"
#include "storage/view_store.h"
#include "verify/signature_auditor.h"

namespace cloudviews {

// Configuration of a ReuseEngine instance (one per cluster).
struct ReuseEngineOptions {
  std::string cluster_name = "cluster1";
  OptimizerOptions optimizer;
  SelectionConstraints selection;
  double view_ttl_seconds = 7 * 86400.0;  // one week, per production policy
  // Global (engine-level) switch; finer controls live in the insights
  // service (ReuseControls).
  bool cloudviews_enabled = true;
  int max_views_per_job = 4;
  // Cardinality feedback: serve per-recurring-signature observed row/byte
  // micro-models to the optimizer for every repeated subexpression (the
  // section 5.2 insights loop). Independent of materialization.
  bool enable_cardinality_feedback = false;
  // Column pruning during compilation: scans narrow to the columns used
  // downstream, which also shrinks materialized-view storage. Off by
  // default (pruned and unpruned plans have different signatures; a fleet
  // must flip this together, like a runtime-version change).
  bool prune_columns = false;
  // Physical engine for job execution. Both engines produce byte-identical
  // outputs and view contents; kRow is the reference path kept for
  // differential testing and incident triage.
  ExecEngine exec_engine = ExecEngine::kColumnar;
  // Time between the producing job's submission and the view becoming
  // visible to other compilations. Early sealing publishes as soon as the
  // spool stage finishes — a couple of minutes — rather than at job
  // completion; raise this to job-scale durations to ablate early sealing.
  // Jobs submitted within this window of the producer cannot reuse the view
  // (the concurrent-submission problem of section 4).
  double seal_delay_seconds = 120.0;
  // Runtime work sharing across concurrently admitted jobs (RunSharedWindow):
  // when >= 2 jobs of a window cover the same eligible subexpression, one
  // producer pipeline executes it once and streams its batches to every
  // subscriber. Complements materialization, which only helps *later* jobs.
  // Columnar engine only; windows fall back to serial RunJob when disabled
  // or when exec_engine is kRow.
  bool enable_sharing = false;
  // Per-signature share / materialize / both decision knobs.
  sharing::SharingPolicyOptions sharing_policy;
};

// A job submitted to the engine.
struct JobRequest {
  int64_t job_id = 0;
  std::string virtual_cluster = "vc0";
  // Either a pre-built logical plan or SQL text (bound against the catalog).
  LogicalOpPtr plan;
  std::string sql;
  double submit_time = 0.0;
  int day = 0;
  bool cloudviews_enabled = true;  // job-level toggle
  // Seconds the job waited for cluster capacity before submit_time. Purely
  // observational: attached to reuse-hit provenance events so savings can be
  // correlated with queueing pressure.
  double queue_wait_seconds = 0.0;
};

// Everything observed about one executed job.
struct JobExecution {
  int64_t job_id = 0;
  TablePtr output;
  ExecutionStats stats;
  LogicalOpPtr executed_plan;
  // The sealed, annotated plan as bound, before any reuse rewrite: what the
  // workload repository ingests. The executed plan shares its untouched
  // subtrees (and is this plan itself after a fallback).
  LogicalOpPtr compiled_plan;
  int views_matched = 0;
  int views_matched_subsumed = 0;  // generalized (containment) hits
  int views_built = 0;
  std::vector<Hash128> matched_signatures;
  // Per-match attribution detail (same order as matched_signatures); empty
  // after a fallback, like matched_signatures.
  std::vector<MatchedViewDetail> matched_details;
  std::vector<Hash128> built_signatures;
  double estimated_cost = 0.0;
  double estimated_cost_without_reuse = 0.0;
  // Compile-time overhead charged for fetching annotations.
  double compile_overhead_seconds = 0.0;
  bool reuse_enabled = false;  // after applying all control levels
  // The rewritten plan failed at execution time (corrupt view, spool fault)
  // and the job was answered by re-executing the unrewritten base plan.
  bool fell_back = false;
  // Phase breakdown + executor roll-up; also retained by the insights
  // service (`recent_profiles()`) for post-hoc debugging.
  obs::QueryProfile profile;
};

// The CloudViews engine: ties together the optimizer, executor, workload
// repository, view selection, insights service, and view storage. One
// instance manages one cluster; virtual clusters share it (as in Cosmos).
//
// Typical usage:
//   ReuseEngine engine(&catalog, options);
//   engine.insights().controls().enabled_vcs.insert("vc0");  // opt-in
//   auto exec = engine.RunJob(request);        // repeat for the workload
//   engine.RunViewSelection();                 // periodic offline analysis
//   engine.Maintenance(now);                   // purge expired views
class ReuseEngine {
 public:
  ReuseEngine(DatasetCatalog* catalog, ReuseEngineOptions options = {});

  ReuseEngine(const ReuseEngine&) = delete;
  ReuseEngine& operator=(const ReuseEngine&) = delete;

  // Compiles (binds + optimizes with reuse) and executes a job, recording
  // its subexpressions into the workload repository.
  Result<JobExecution> RunJob(const JobRequest& request);

  // Runs one window of concurrently in-flight jobs with runtime work
  // sharing. All jobs are compiled first (in submit order, exactly as
  // serial RunJob calls would); the shared-subexpression rewrite then
  // elects one producer per subexpression covered by >= 2 jobs and wires
  // every other occurrence to its stream, so the shared subtree is computed
  // once per window. The producers and then the jobs run in parallel on
  // ThreadPool::Shared() (at most DefaultDop() threads, the calling thread
  // among them; a window of a few jobs runs on the calling thread alone).
  // The view-store and lock effects of the jobs' executions are applied
  // after the join, in submit order, so views, locks and both ledgers see
  // the same sequence as serial RunJob calls. Per-job outputs are
  // byte-identical to serial RunJob at every batch size — including
  // under producer aborts, where subscribers detach to private fallback
  // execution. A hard failure returns the first failing job's status in
  // submit order and withdraws the materializations of every job that did
  // not complete. With sharing disabled (or on the row engine) this
  // degrades to serial RunJob calls.
  Result<std::vector<JobExecution>> RunSharedWindow(
      const std::vector<JobRequest>& requests);

  // Cumulative work-sharing telemetry across every window this engine ran.
  const sharing::SharingStats& sharing_stats() const { return sharing_stats_; }

  // Compile-only entry point: returns the optimized plan without executing
  // (used for inspection and by tests).
  Result<OptimizationOutcome> CompileJob(const JobRequest& request);

  // Periodic workload analysis + view selection; publishes the result to the
  // insights service. Returns the selection for inspection. `now` tags the
  // candidate provenance events (-1: inherit stream time).
  SelectionResult RunViewSelection(double now = -1.0);

  // Housekeeping at time `now`: expire views past TTL.
  void Maintenance(double now);

  // A shared dataset was bulk-updated (or GDPR-scrubbed): reclaim views.
  size_t OnDatasetUpdated(const std::string& dataset_name);

  // The SCOPE runtime version changed: all signatures move, so every view
  // and every published annotation is invalid and history must be re-mined.
  void OnRuntimeVersionChange(uint64_t new_version);

  // Cumulative signature-audit findings (collisions/instabilities) across
  // every plan compiled by this engine. Populated only in verification
  // builds; empty (and never failing) in Release.
  const verify::AuditReport& signature_audit() const {
    return auditor_.report();
  }

  DatasetCatalog* catalog() { return catalog_; }
  WorkloadRepository& repository() { return repository_; }
  const WorkloadRepository& repository() const { return repository_; }
  ViewStore& view_store() { return view_store_; }
  const ViewStore& view_store() const { return view_store_; }
  InsightsService& insights() { return insights_; }
  const InsightsService& insights() const { return insights_; }
  CardinalityFeedback& cardinality_feedback() { return feedback_; }
  ViewManager& view_manager() { return view_manager_; }
  obs::ProvenanceLedger& provenance() { return provenance_; }
  const obs::ProvenanceLedger& provenance() const { return provenance_; }
  obs::DecisionLedger& decisions() { return decisions_; }
  const obs::DecisionLedger& decisions() const { return decisions_; }
  // Per-engine reuse-hit split (exact strict-signature hits vs containment
  // hits), folded at FinalizeJob from what actually executed — fallbacks
  // never count. Per-engine (not the process-global metrics) so
  // side-by-side arms report their own splits.
  int64_t hits_exact() const { return hits_exact_; }
  int64_t hits_subsumed() const { return hits_subsumed_; }
  const ReuseEngineOptions& options() const { return options_; }

 private:
  // A compiled job between the prepare and finalize halves of RunJob. The
  // split exists for sharing windows: every job of a window is prepared
  // before any executes, so the rewrite sees all optimized plans at once.
  struct PreparedJob {
    JobRequest request;
    bool reuse_enabled = false;
    // The sealed as-compiled plan, which FinalizeJob ingests into the
    // workload repository (and outcome.plan_without_reuse when set).
    LogicalOpPtr bound_plan;
    OptimizationOutcome outcome;
    JobExecution exec;  // skeleton; completed by Execute/Finalize
    obs::QueryProfile profile;
  };

  // Parses or takes the job's plan, normalizes it into fresh nodes and
  // seals them: the one signature computation per node of a compile.
  Result<LogicalOpPtr> BindPlan(const JobRequest& request) const;
  Result<OptimizationOutcome> CompileBound(const JobRequest& request,
                                           const LogicalOpPtr& bound,
                                           bool reuse_enabled);
  bool ReuseEnabledFor(const JobRequest& request) const;

  // The view-store and lock calls one job's execution makes inside a
  // sharing window, recorded for RunSharedWindow to apply after the join.
  struct DeferredEffects {
    // Spool seals and aborts and AbandonJob, in the order the job made them.
    std::vector<std::function<void()>> in_order;
    // Fallback invalidations, applied after every job's in-order effects.
    std::vector<std::pair<Hash128, double>> invalidations;
  };

  // Bind + compile + register proposed materializations.
  Result<PreparedJob> PrepareJob(const JobRequest& request);
  // Execute (with the sealing hooks), falling back to the unrewritten plan
  // on failure. `directory` wires SharedScans to in-flight streams (null
  // outside a sharing window). When `effects` is non-null, the execution's
  // view-store and lock calls (spool seals and aborts, AbandonJob, fallback
  // invalidations) are recorded there instead of made: a window's jobs run
  // concurrently, and the view manager's and insights service's maps are
  // unsynchronized. Only `job` is written, so jobs may run concurrently.
  Status ExecutePrepared(PreparedJob* job,
                         const sharing::StreamDirectory* directory,
                         DeferredEffects* effects);
  // Reuse-hit provenance + repository ingest + insights profile.
  JobExecution FinalizeJob(PreparedJob job);

  DatasetCatalog* catalog_;
  ReuseEngineOptions options_;
  // Declared before the store/manager that hold pointers into it, so it
  // outlives them on destruction.
  obs::ProvenanceLedger provenance_;
  // Per-job reuse decision traces (compile-time choice points). Pure
  // observation: nothing reads it back into a decision.
  obs::DecisionLedger decisions_;
  int64_t hits_exact_ = 0;
  int64_t hits_subsumed_ = 0;
  ViewStore view_store_;
  InsightsService insights_;
  CardinalityFeedback feedback_;
  ViewManager view_manager_;
  WorkloadRepository repository_;
  std::unique_ptr<Optimizer> optimizer_;
  // Cross-checks every compiled plan's signatures via an independent second
  // canonicalization path (verification builds only).
  verify::SignatureAuditor auditor_;
  sharing::SharingStats sharing_stats_;
};

}  // namespace cloudviews

#endif  // CLOUDVIEWS_CORE_REUSE_ENGINE_H_
