#ifndef CLOUDVIEWS_OBS_METRIC_NAMES_H_
#define CLOUDVIEWS_OBS_METRIC_NAMES_H_

namespace cloudviews {
namespace obs {
namespace metric_names {

// The closed registry of metric names used by engine code. Every
// MetricsRegistry::counter/gauge/histogram call site in src/ must name one
// of these constants — never a raw string literal — so a dashboard, an
// exporter, and the time-series sampler can enumerate the full instrument
// surface from one header (tools/lint.py `metric-name` rule enforces this,
// mirroring the fault-site registry). Tests and benches may still use ad-hoc
// literals for instruments they create themselves.
//
// Naming convention: `subsystem.object.event`, lowercase, dot-separated;
// histograms carry their unit as a suffix.

// --- Engine (core/reuse_engine.cc) -----------------------------------------
inline constexpr char kEngineJobs[] = "engine.jobs";
inline constexpr char kEngineViewsMatched[] = "engine.views_matched";
inline constexpr char kEngineViewsBuilt[] = "engine.views_built";
inline constexpr char kEngineFallbacks[] = "engine.fallbacks";
// Plan-node signatures the engine's compile path computed (sealing included).
inline constexpr char kEngineNodesHashed[] = "engine.nodes_hashed";

// --- Executor (exec/) ------------------------------------------------------
inline constexpr char kExecQueries[] = "exec.queries";
inline constexpr char kExecBytesRead[] = "exec.bytes_read";
inline constexpr char kExecBytesSpooled[] = "exec.bytes_spooled";
inline constexpr char kExecSpoolAborts[] = "exec.spool_aborts";

// --- Fault injection (fault/) ----------------------------------------------
inline constexpr char kFaultsInjected[] = "faults.injected";
inline constexpr char kFaultsRetries[] = "faults.retries";

// --- Insights service (core/insights_service.cc) ---------------------------
inline constexpr char kInsightsFetches[] = "insights.fetches";

// --- Optimizer (optimizer/optimizer.cc) ------------------------------------
inline constexpr char kOptimizerRuleViewMatch[] = "optimizer.rule.view_match";
inline constexpr char kOptimizerRuleSpoolInject[] =
    "optimizer.rule.spool_inject";
inline constexpr char kOptimizerViewMatchCostRejected[] =
    "optimizer.view_match.cost_rejected";

// --- Generalized view matching (optimizer/optimizer.cc) --------------------
// Hit-class split: exact strict-signature lookups vs containment-proved
// (subsumption) hits that needed a compensation plan.
inline constexpr char kReuseHitsExact[] = "reuse.hits_exact";
inline constexpr char kReuseHitsSubsumed[] = "reuse.hits_subsumed";
// Staged candidate filter accounting: candidates sharing the match class,
// how many the feature filter pruned, and how many reached the exact
// containment checker.
inline constexpr char kGeneralizedCandidates[] = "generalized.candidates";
inline constexpr char kGeneralizedFilterPruned[] =
    "generalized.filter_pruned";
inline constexpr char kGeneralizedExactChecks[] = "generalized.exact_checks";

// --- Decision ledger (obs/decision.cc) -------------------------------------
inline constexpr char kDecisionEvents[] = "decisions.events";

// --- Provenance ledger (obs/provenance.cc) ---------------------------------
inline constexpr char kProvenanceEvents[] = "provenance.events";
inline constexpr char kProvenanceDropped[] = "provenance.dropped";

// --- Work sharing (sharing/, exec/shared_scan_op.cc) -----------------------
inline constexpr char kSharingHits[] = "sharing.hits";
inline constexpr char kSharingFanout[] = "sharing.fanout";
inline constexpr char kSharingProducerAborts[] = "sharing.producer_aborts";
inline constexpr char kSharingBatchesForwarded[] =
    "sharing.batches_forwarded";

// --- View selection (core/reuse_engine.cc) ---------------------------------
// Per RunViewSelection call: scored candidates, BigSubs marginal-utility
// evaluations (the selection's work, independent of the host) and views
// selected. The run time is observed only while the tracer is enabled.
inline constexpr char kSelectionRuns[] = "selection.runs";
inline constexpr char kSelectionCandidates[] = "selection.candidates";
inline constexpr char kSelectionEvaluations[] = "selection.evaluations";
inline constexpr char kSelectionSelected[] = "selection.selected";
inline constexpr char kSelectionRunUs[] = "selection.run_us";

// --- Signature cache (core/cardinality_feedback.cc) ------------------------
inline constexpr char kSignatureCacheLookupHit[] = "signature_cache.lookup.hit";
inline constexpr char kSignatureCacheLookupMiss[] =
    "signature_cache.lookup.miss";

// --- Cluster simulator (cluster/simulator.cc) ------------------------------
inline constexpr char kSimJobs[] = "sim.jobs";
inline constexpr char kSimQueueWaitSeconds[] = "sim.queue_wait_seconds";

// --- Thread pool (common/thread_pool.cc) -----------------------------------
inline constexpr char kThreadpoolTasks[] = "threadpool.tasks";
inline constexpr char kThreadpoolQueueWaitUs[] = "threadpool.queue_wait_us";

// --- View store (storage/view_store.cc) ------------------------------------
inline constexpr char kViewsSealed[] = "views.sealed";
inline constexpr char kViewsLookupHit[] = "views.lookup.hit";
inline constexpr char kViewsLookupMiss[] = "views.lookup.miss";
inline constexpr char kViewsQuarantined[] = "views.quarantined";
inline constexpr char kViewsInvalidations[] = "views.invalidations";

}  // namespace metric_names
}  // namespace obs
}  // namespace cloudviews

#endif  // CLOUDVIEWS_OBS_METRIC_NAMES_H_
