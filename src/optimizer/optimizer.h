#ifndef CLOUDVIEWS_OPTIMIZER_OPTIMIZER_H_
#define CLOUDVIEWS_OPTIMIZER_OPTIMIZER_H_

#include <functional>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/hash.h"
#include "common/status.h"
#include "obs/decision.h"
#include "optimizer/cardinality.h"
#include "optimizer/cost_model.h"
#include "plan/containment.h"
#include "plan/logical_plan.h"
#include "plan/signature.h"
#include "plan/view_index.h"
#include "storage/catalog.h"
#include "storage/view_store.h"

namespace cloudviews {

// The query annotations fetched from the insights service at compile time:
// the set of subexpression signatures selected for materialization. In
// production this arrives as an annotations file indexed by job tags.
struct QueryAnnotations {
  // Recurring signatures the view selector chose to materialize. Recurring
  // (not strict) signatures, because future instances of a recurring job
  // read bulk-updated inputs with fresh GUIDs: their strict signatures are
  // new, but the recurring signature survives and identifies the template.
  std::unordered_set<Hash128, Hash128Hasher> materialize_candidates;
  // Per-job cap on spools added ("user control for #views/job").
  int max_views_per_job = 4;
};

class CardinalityFeedback;

struct OptimizerOptions {
  // Generalized (containment-based) matching: when a subtree misses the
  // exact strict-signature lookup, candidates from `generalized_index` in
  // the same match class are feature-filtered and containment-checked, and
  // hits splice a compensated view scan. Off by default: exact-only is the
  // paper's baseline behavior.
  bool enable_generalized_matching = false;
  SignatureOptions signature_options;
  CardinalityEstimator::Options cardinality_options;
  CostModel::Options cost_options;
  // When set, repeated subexpressions take their row/byte estimates from
  // per-recurring-signature micro-models instead of static estimation (the
  // section 5.2 cardinality-insights loop). Not owned.
  const CardinalityFeedback* cardinality_feedback = nullptr;
  // Candidate index for generalized matching (owned by the workload
  // repository). Not owned; may be null (disables generalized matching).
  const GeneralizedViewIndex* generalized_index = nullptr;
};

// Everything known about one view-match rewrite at the moment it fired —
// the raw material for per-hit savings attribution in the provenance
// ledger: what recomputing the replaced subtree would have cost, what the
// view scan costs instead (the saving is the difference), and how much
// base-table data the view shields.
struct MatchedViewDetail {
  Hash128 strict;
  double recompute_cost = 0.0;  // SubtreeCost of the replaced subtree
  double view_scan_cost = 0.0;  // cost of the (compensated) reuse
  double rows_avoided = 0.0;    // base-scan rows under the subtree
  double bytes_avoided = 0.0;   // base-scan bytes under the subtree
  bool subsumed = false;        // generalized (containment) hit
};

// One generalized hit, kept so the SignatureAuditor can independently
// re-verify the subsumption claim from its own serialization path. Both
// subtrees are sealed and shared: the pre-rewrite query subtree, and the
// view definition the candidate index holds.
struct SubsumedMatchAudit {
  Hash128 view_strict;
  LogicalOpPtr query_subtree;
  LogicalOpPtr view_definition;
  std::vector<ExprPtr> residual;
};

// What the optimizer did to the plan, surfaced to the monitoring tool and
// telemetry (paper Figure 5: "modified query plans are surfaced to users").
struct OptimizationOutcome {
  LogicalOpPtr plan;
  // The optimized plan with NO reuse rewrites (no view scans, no spools):
  // the annotated input plan, which the rewrites path-copied around. Kept
  // whenever the reuse phases could have rewritten the plan, so the engine
  // can degrade to base scans when a matched view turns out to be corrupt,
  // vanished, or otherwise unreadable at execution time. Null when reuse
  // was disabled for the compile (then `plan` already is the base plan).
  LogicalOpPtr plan_without_reuse;
  int views_matched = 0;
  int views_matched_subsumed = 0;  // generalized hits among views_matched
  int spools_added = 0;
  std::vector<Hash128> matched_signatures;
  // One entry per matched_signatures element, same order.
  std::vector<MatchedViewDetail> matched_details;
  // One entry per generalized hit (verification builds only; empty in
  // Release). Consumed by ReuseEngine to run SignatureAuditor cross-checks.
  std::vector<SubsumedMatchAudit> subsumed_audits;
  std::vector<Hash128> proposed_materializations;
  double estimated_cost = 0.0;
  double estimated_cost_without_reuse = 0.0;
};

// The SCOPE-style optimizer with the two CloudViews phases:
//   1. Core search, top-down: match the largest already-materialized
//      subexpressions first and replace them with view scans, feeding the
//      view's observed statistics into the plan.
//   2. Follow-up optimization, bottom-up: wrap selected candidate
//      subexpressions with spool operators after acquiring a creation lock.
class Optimizer {
 public:
  // try_lock(signature) -> true if this job obtained the exclusive view
  // creation lock from the insights service.
  using TryLockFn = std::function<bool(const Hash128&)>;

  Optimizer(const DatasetCatalog* catalog, OptimizerOptions options = {})
      : catalog_(catalog), options_(options),
        estimator_(catalog, options.cardinality_options),
        cost_model_(options.cost_options),
        signatures_(options.signature_options) {}

  // Optimizes `plan`, freshly sealed by SealTree with these signature
  // options: its nodes are annotated in place, once, and rewrites path-copy
  // around them (to compile one plan twice, seal a copy for each compile).
  // `view_store` may be null (no reuse); `try_lock` may be null (no
  // materialization). `now` gates view expiry. `decisions` receives one
  // DecisionEvent per reuse-relevant choice (exact lookup, generalized
  // pipeline stages, spool policy) when its ledger is enabled; a
  // default-constructed sink records nothing, and recording never feeds
  // back into the optimization, so plans are identical either way.
  Result<OptimizationOutcome> Optimize(const LogicalOpPtr& plan,
                                       const QueryAnnotations& annotations,
                                       const ViewStore* view_store,
                                       const TryLockFn& try_lock, double now,
                                       obs::DecisionSink decisions = {}) const;

  const SignatureComputer& signatures() const { return signatures_; }

 private:
  // Subtrees MatchViews replaces by view-scan fragments.
  using Replacements = std::vector<std::pair<const LogicalOp*, LogicalOpPtr>>;

  // Installs micro-model estimates on repeated subexpressions, runs the
  // static estimator over the rest and chooses join algorithms, bottom-up;
  // AnnotateNode does it for one node whose children are annotated.
  void AnnotateWithFeedback(LogicalOp* node) const;
  void AnnotateNode(LogicalOp* node) const;

  // Applies `replacements` to `root` in one path copy, sealing and
  // annotating the new parents.
  LogicalOpPtr Splice(const LogicalOpPtr& root,
                      const Replacements& replacements) const;

  // Top-down view matching: records a replacement for every matched
  // subtree. In verification builds each fragment is validated as it is
  // made, so a malformed match fails at the rule that introduced it.
  Status MatchViews(const LogicalOpPtr& node, const ViewStore* view_store,
                    double now, OptimizationOutcome* outcome,
                    const obs::DecisionSink& decisions,
                    Replacements* replacements) const;

  // Generalized fallback for one subtree after an exact-signature miss:
  // class-key candidate lookup, stage-1 feature pruning (with the
  // no-false-prune assertion in verification builds), exact containment
  // check, compensation splice. Returns the sealed, annotated replacement
  // fragment, or null when no candidate qualified.
  Result<LogicalOpPtr> TryGeneralizedMatch(
      const LogicalOpPtr& node, const ViewStore* view_store, double now,
      OptimizationOutcome* outcome, const obs::DecisionSink& decisions) const;

  // Bottom-up spool injection: returns `node` rebuilt over the spools it
  // adds (listed in `spools`, sealed but not yet annotated); increments
  // *total_added (bounded by the per-job cap).
  Result<LogicalOpPtr> BuildViews(const LogicalOpPtr& node,
                                  const QueryAnnotations& annotations,
                                  const ViewStore* view_store,
                                  const TryLockFn& try_lock, double now,
                                  OptimizationOutcome* outcome,
                                  int* total_added,
                                  const obs::DecisionSink& decisions,
                                  std::vector<LogicalOp*>* spools) const;

  // Re-validates `plan` (sealed signatures included) after optimizer stage
  // `rule`; compiled to a no-op unless CLOUDVIEWS_VERIFY_RUNTIME is defined.
  Status VerifyAfterRule(const char* rule, const LogicalOp& plan,
                         bool algorithms_chosen) const;

  const DatasetCatalog* catalog_;
  OptimizerOptions options_;
  CardinalityEstimator estimator_;
  CostModel cost_model_;
  SignatureComputer signatures_;
};

}  // namespace cloudviews

#endif  // CLOUDVIEWS_OPTIMIZER_OPTIMIZER_H_
