#include "optimizer/optimizer.h"

#include <optional>

#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "optimizer/cardinality_feedback.h"
#include "optimizer/compensation.h"
#include "verify/plan_verifier.h"
#include "verify/verify.h"

namespace cloudviews {

namespace {

// Sums the estimated rows/bytes of the base-table scans under `op`: the
// data a view scan shields from being read again. Leaf scan estimates are
// catalog-exact, so these are observed quantities, not guesses. A subtree
// about to be matched was never rewritten below (matching is top-down), so
// kViewScan leaves cannot occur inside it.
void SumBaseScanVolume(const LogicalOp& op, double* rows, double* bytes) {
  if (op.kind == LogicalOpKind::kScan) {
    *rows += op.estimated_rows;
    *bytes += op.estimated_bytes;
  }
  for (const LogicalOpPtr& child : op.children) {
    SumBaseScanVolume(*child, rows, bytes);
  }
}

}  // namespace

Status Optimizer::VerifyAfterRule(const char* rule, const LogicalOp& plan,
                                  bool algorithms_chosen) const {
  if constexpr (!verify::RuntimeChecksEnabled()) {
    (void)rule;
    (void)plan;
    (void)algorithms_chosen;
    return Status::OK();
  }
  verify::PlanVerifyOptions options;
  options.catalog = catalog_;
  options.signatures = &signatures_;
  options.require_reuse_signatures = true;
  options.algorithms_chosen = algorithms_chosen;
  return verify::PlanVerifier(options).VerifyAfterRule(rule, plan);
}

void Optimizer::AnnotateNode(LogicalOp* node) const {
  // A repeated subexpression with observed history takes its micro-model's
  // estimate (leaves are exact, spools transparent, view stats observed).
  if (options_.cardinality_feedback != nullptr && !node->stats_from_view &&
      node->kind != LogicalOpKind::kScan &&
      node->kind != LogicalOpKind::kViewScan &&
      node->kind != LogicalOpKind::kSpool && node->eligible) {
    auto model = options_.cardinality_feedback->Lookup(
        node->recurring_signature, /*min_observations=*/2);
    if (model.has_value()) {
      node->estimated_rows = model->rows;
      node->estimated_bytes = model->bytes;
      node->stats_from_view = true;  // observed, authoritative
    }
  }
  estimator_.AnnotateNode(node);
  cost_model_.ChooseJoinAlgorithm(node);
}

void Optimizer::AnnotateWithFeedback(LogicalOp* node) const {
  for (const LogicalOpPtr& child : node->children) {
    AnnotateWithFeedback(child.get());
  }
  AnnotateNode(node);
}

LogicalOpPtr Optimizer::Splice(const LogicalOpPtr& root,
                               const Replacements& replacements) const {
  if (replacements.empty()) return root;
  return RewritePaths(
      root, [&](const LogicalOpPtr& original, LogicalOpPtr rebuilt) {
        for (const auto& [target, fragment] : replacements) {
          if (original.get() == target) return fragment;
        }
        if (rebuilt != original) {
          // Above a view-scan fragment the signature, the subtree size and
          // the estimates move, and so may the join algorithm.
          signatures_.Seal(rebuilt.get());
          AnnotateNode(rebuilt.get());
        }
        return rebuilt;
      });
}

Result<OptimizationOutcome> Optimizer::Optimize(
    const LogicalOpPtr& plan, const QueryAnnotations& annotations,
    const ViewStore* view_store, const TryLockFn& try_lock, double now,
    obs::DecisionSink decisions) const {
  obs::Span span("optimize", "opt");
  if (!plan->sealed()) {
    return Status::InvalidArgument(
        "optimizer input is not sealed (SignatureComputer::SealTree)");
  }
  OptimizationOutcome outcome;
  outcome.plan = plan;

  // Entry check: a malformed input plan fails before any rule runs, so rule
  // firings below can only be blamed for violations they introduced.
  CLOUDVIEWS_RETURN_NOT_OK(
      VerifyAfterRule("input", *plan, /*algorithms_chosen=*/false));

  // The plan's one annotation pass; after it no node of `plan` changes.
  AnnotateWithFeedback(plan.get());
  outcome.estimated_cost_without_reuse = cost_model_.SubtreeCost(*plan);
  CLOUDVIEWS_RETURN_NOT_OK(VerifyAfterRule("choose_join_algorithms", *plan,
                                           /*algorithms_chosen=*/true));

  // The unrewritten alternative, intact because the rewrites path-copy: the
  // graceful-degradation path executes it when a matched view fails
  // validation (or vanishes) at execution time.
  if (view_store != nullptr || try_lock != nullptr) {
    outcome.plan_without_reuse = plan;
  }

  // Phase 1 — core search, top-down: replace the largest materialized
  // subexpressions with view scans.
  if (view_store != nullptr) {
    obs::Span match_span("view-match", "opt");
    match_span.Arg("job_id", decisions.job_id());
    Replacements replacements;
    CLOUDVIEWS_RETURN_NOT_OK(MatchViews(outcome.plan, view_store, now,
                                        &outcome, decisions, &replacements));
    outcome.views_matched = static_cast<int>(replacements.size());
    match_span.Arg("matched", static_cast<int64_t>(outcome.views_matched));
    // New parents take the view scans' observed statistics, and their join
    // algorithms may change with the corrected estimates.
    outcome.plan = Splice(outcome.plan, replacements);
    CLOUDVIEWS_RETURN_NOT_OK(VerifyAfterRule("rechoose_join_algorithms",
                                             *outcome.plan,
                                             /*algorithms_chosen=*/true));
  }

  // Phase 2 — follow-up optimization, bottom-up: propose materializations
  // for selected candidates and add spools where the lock is granted.
  if (try_lock != nullptr && !annotations.materialize_candidates.empty()) {
    obs::Span build_span("view-build", "opt");
    build_span.Arg("job_id", decisions.job_id());
    int total_added = 0;
    std::vector<LogicalOp*> spools;
    auto built = BuildViews(outcome.plan, annotations, view_store, try_lock,
                            now, &outcome, &total_added, decisions, &spools);
    if (!built.ok()) return built.status();
    outcome.plan = std::move(*built);
    outcome.spools_added = total_added;
    for (LogicalOp* spool : spools) AnnotateNode(spool);
    build_span.Arg("spools_added", static_cast<int64_t>(total_added));
    CLOUDVIEWS_RETURN_NOT_OK(VerifyAfterRule("spool_inject", *outcome.plan,
                                             /*algorithms_chosen=*/true));
  }

  outcome.estimated_cost = cost_model_.SubtreeCost(*outcome.plan);
  return outcome;
}

Status Optimizer::MatchViews(const LogicalOpPtr& node,
                             const ViewStore* view_store, double now,
                             OptimizationOutcome* outcome,
                             const obs::DecisionSink& decisions,
                             Replacements* replacements) const {
  const LogicalOp& op = *node;
  // Never rewrite reuse infrastructure itself.
  if (op.kind != LogicalOpKind::kViewScan && op.kind != LogicalOpKind::kSpool) {
    const NodeSignature sig = SealedSignature(op);
    if (sig.eligible && sig.subtree_size > 1) {
      const MaterializedView* view = view_store->Find(sig.strict, now);
      if (view != nullptr && view->table != nullptr) {
        // Cost check: reuse only when scanning the view is cheaper than
        // recomputing the subexpression (the memo keeps both options and
        // picks the cheaper; we compare directly).
        double recompute = cost_model_.SubtreeCost(op);
        double reuse =
            cost_model_.ViewScanCost(static_cast<double>(view->observed_rows),
                                     static_cast<double>(view->observed_bytes));
        static obs::Counter& rule_fired =
            obs::MetricsRegistry::Global().counter(
                obs::metric_names::kOptimizerRuleViewMatch);
        static obs::Counter& cost_rejected =
            obs::MetricsRegistry::Global().counter(
                obs::metric_names::kOptimizerViewMatchCostRejected);
        obs::Span decide_span("view-match-decide", "opt");
        if (decide_span.active()) {
          decide_span.Arg("job_id", decisions.job_id());
          decide_span.Arg("signature", sig.strict.ToHex());
        }
        if (reuse < recompute) {
          rule_fired.Increment();
          static obs::Counter& exact_hits =
              obs::MetricsRegistry::Global().counter(
                  obs::metric_names::kReuseHitsExact);
          exact_hits.Increment();
          MatchedViewDetail detail;
          detail.strict = sig.strict;
          detail.recompute_cost = recompute;
          detail.view_scan_cost = reuse;
          SumBaseScanVolume(op, &detail.rows_avoided, &detail.bytes_avoided);
          outcome->matched_details.push_back(detail);
          if (decide_span.active()) {
            decide_span.Arg("reason", obs::DecisionReasonName(
                                          obs::DecisionReason::kExactHit));
          }
          if (decisions.Active()) {
            obs::DecisionEvent event;
            event.stage = obs::DecisionStage::kExactMatch;
            event.reason = obs::DecisionReason::kExactHit;
            event.node_strict = sig.strict;
            event.candidate_strict = sig.strict;
            event.match_class = signatures_.ComputeMatchClass(op);
            event.recompute_cost = recompute;
            event.view_scan_cost = reuse;
            event.saving = recompute - reuse;
            decisions.Record(std::move(event));
          }
          CompensationPlan comp =
              BuildCompensation(sig.strict, sig.recurring, view->output_path,
                                op.output_schema, SubsumptionResult{});
          // Feed observed statistics from the past execution back into the
          // plan — the "accurate cost estimates" benefit.
          comp.view_scan->estimated_rows =
              static_cast<double>(view->observed_rows);
          comp.view_scan->estimated_bytes =
              static_cast<double>(view->observed_bytes);
          comp.view_scan->stats_from_view = true;
          signatures_.SealTree(comp.root.get());
          AnnotateWithFeedback(comp.root.get());
          replacements->emplace_back(&op, comp.root);
          outcome->matched_signatures.push_back(sig.strict);
          return VerifyAfterRule("view_match", *comp.root,
                                 /*algorithms_chosen=*/true);
        }
        cost_rejected.Increment();
        if (decide_span.active()) {
          decide_span.Arg("reason",
                          obs::DecisionReasonName(
                              obs::DecisionReason::kExactCostRejected));
        }
        if (decisions.Active()) {
          obs::DecisionEvent event;
          event.stage = obs::DecisionStage::kExactMatch;
          event.reason = obs::DecisionReason::kExactCostRejected;
          event.node_strict = sig.strict;
          event.candidate_strict = sig.strict;
          event.match_class = signatures_.ComputeMatchClass(op);
          event.recompute_cost = recompute;
          event.view_scan_cost = reuse;
          event.saving = recompute - reuse;
          decisions.Record(std::move(event));
        }
      }
      if (view == nullptr || view->table == nullptr) {
        if (decisions.Active()) {
          // The "why didn't this job hit a view?" anchor event: no sealed
          // live view under this strict signature. No candidate was priced,
          // so no saving is attributed here — the generalized pipeline's
          // per-candidate events below carry the foregone estimates.
          obs::DecisionEvent event;
          event.stage = obs::DecisionStage::kExactMatch;
          event.reason = obs::DecisionReason::kExactMissNoView;
          event.node_strict = sig.strict;
          event.match_class = signatures_.ComputeMatchClass(op);
          event.recompute_cost = cost_model_.SubtreeCost(op);
          decisions.Record(std::move(event));
        }
        // Exact miss: try containment against indexed definitions in the
        // same match class.
        if (options_.enable_generalized_matching &&
            options_.generalized_index != nullptr) {
          auto fragment =
              TryGeneralizedMatch(node, view_store, now, outcome, decisions);
          if (!fragment.ok()) return fragment.status();
          if (*fragment != nullptr) {
            replacements->emplace_back(&op, *fragment);
            return VerifyAfterRule("generalized_view_match", **fragment,
                                   /*algorithms_chosen=*/true);
          }
        }
      }
    }
  }
  // No match here: recurse (top-down means larger subexpressions got their
  // chance before their descendants).
  for (const LogicalOpPtr& child : op.children) {
    CLOUDVIEWS_RETURN_NOT_OK(
        MatchViews(child, view_store, now, outcome, decisions, replacements));
  }
  return Status::OK();
}

Result<LogicalOpPtr> Optimizer::TryGeneralizedMatch(
    const LogicalOpPtr& node, const ViewStore* view_store, double now,
    OptimizationOutcome* outcome, const obs::DecisionSink& decisions) const {
  const LogicalOp& op = *node;
  const NodeSignature sig = SealedSignature(op);
  const GeneralizedViewIndex& index = *options_.generalized_index;
  const Hash128 class_key = signatures_.ComputeMatchClass(op);
  const auto& candidates = index.CandidatesFor(class_key);
  if (candidates.empty()) return LogicalOpPtr();
  const SubsumptionFeatures query_features = ComputeSubsumptionFeatures(op);
  static obs::Counter& candidates_seen =
      obs::MetricsRegistry::Global().counter(
          obs::metric_names::kGeneralizedCandidates);
  static obs::Counter& filter_pruned = obs::MetricsRegistry::Global().counter(
      obs::metric_names::kGeneralizedFilterPruned);
  static obs::Counter& exact_checks = obs::MetricsRegistry::Global().counter(
      obs::metric_names::kGeneralizedExactChecks);
  static obs::Counter& subsumed_hits = obs::MetricsRegistry::Global().counter(
      obs::metric_names::kReuseHitsSubsumed);
  const bool tracing_decisions = decisions.Active();
  // The query subtree and its estimates do not change inside the candidate
  // loop, so its recompute cost is priced once, when the ledger or the first
  // live candidate needs it.
  std::optional<double> subtree_cost;
  const auto query_cost = [&] {
    if (!subtree_cost) subtree_cost = cost_model_.SubtreeCost(op);
    return *subtree_cost;
  };
  // What the candidate's view scan is estimated to cost, from the indexed
  // definition's annotated estimates — no view-store lookup (a lookup would
  // bump the views.lookup.* metrics and perturb telemetry).
  const auto candidate_scan_cost =
      [this](const GeneralizedViewIndex::Entry& cand) {
        return cost_model_.ViewScanCost(cand.definition->estimated_rows,
                                        cand.definition->estimated_bytes);
      };
  const auto record_candidate_miss =
      [&](const GeneralizedViewIndex::Entry& cand, obs::DecisionReason reason,
          std::string detail) {
        obs::DecisionEvent event;
        event.stage = obs::DecisionStage::kGeneralizedMatch;
        event.reason = reason;
        event.node_strict = sig.strict;
        event.candidate_strict = cand.strict;
        event.match_class = class_key;
        event.recompute_cost = query_cost();
        event.view_scan_cost = candidate_scan_cost(cand);
        event.saving = event.recompute_cost - event.view_scan_cost;
        event.detail = std::move(detail);
        decisions.Record(std::move(event));
      };
  for (const GeneralizedViewIndex::Entry& cand : candidates) {
    candidates_seen.Increment();
    if (!FeatureMayContain(cand.features, query_features)) {
      filter_pruned.Increment();
      if (tracing_decisions) {
        record_candidate_miss(cand,
                              obs::DecisionReason::kStage1FeaturePruned,
                              std::string());
      }
      if constexpr (verify::RuntimeChecksEnabled()) {
        // No-false-prune assertion: the feature filter claims the exact
        // checker would reject; run it and fail loudly if it would not.
        SubsumptionResult check = CheckSubsumption(op, *cand.definition);
        if (check.contained) {
          return Status::Corruption(
              "generalized matching: stage-1 feature filter pruned a "
              "candidate the containment checker accepts");
        }
      }
      continue;
    }
    exact_checks.Increment();
    obs::Span check_span("containment-check", "opt");
    if (check_span.active()) {
      check_span.Arg("job_id", decisions.job_id());
      check_span.Arg("candidate", cand.strict.ToHex());
    }
    SubsumptionResult proof = CheckSubsumption(op, *cand.definition);
    if (!proof.contained) {
      if (check_span.active()) {
        check_span.Arg("reason",
                       obs::DecisionReasonName(
                           obs::DecisionReason::kStage2NotContained));
        check_span.Arg("detail", proof.reject_reason);
      }
      if (tracing_decisions) {
        record_candidate_miss(cand, obs::DecisionReason::kStage2NotContained,
                              proof.reject_reason);
      }
      continue;
    }
    // A proof is only useful while the materialized result is live.
    const MaterializedView* view = view_store->Find(cand.strict, now);
    if (view == nullptr || view->table == nullptr) {
      if (tracing_decisions) {
        record_candidate_miss(cand,
                              obs::DecisionReason::kCandidateViewNotLive,
                              std::string());
      }
      continue;
    }
    obs::Span comp_span("compensation", "opt");
    if (comp_span.active()) {
      comp_span.Arg("job_id", decisions.job_id());
      comp_span.Arg("candidate", cand.strict.ToHex());
    }
    CompensationPlan comp =
        BuildCompensation(cand.strict, cand.recurring, view->output_path,
                          cand.definition->output_schema, proof);
    comp.view_scan->estimated_rows =
        static_cast<double>(view->observed_rows);
    comp.view_scan->estimated_bytes =
        static_cast<double>(view->observed_bytes);
    comp.view_scan->stats_from_view = true;
    // Price the residual filter / re-aggregation / projection work on top
    // of the view scan: compensation must pay for itself.
    estimator_.Annotate(comp.root.get());
    const double recompute = query_cost();
    const double reuse = cost_model_.SubtreeCost(*comp.root);
    if (reuse >= recompute) {
      static obs::Counter& cost_rejected =
          obs::MetricsRegistry::Global().counter(
              obs::metric_names::kOptimizerViewMatchCostRejected);
      cost_rejected.Increment();
      if (comp_span.active()) {
        comp_span.Arg("reason",
                      obs::DecisionReasonName(
                          obs::DecisionReason::kSubsumedCostRejected));
      }
      if (tracing_decisions) {
        obs::DecisionEvent event;
        event.stage = obs::DecisionStage::kGeneralizedMatch;
        event.reason = obs::DecisionReason::kSubsumedCostRejected;
        event.node_strict = sig.strict;
        event.candidate_strict = cand.strict;
        event.match_class = class_key;
        event.recompute_cost = recompute;
        event.view_scan_cost = reuse;
        event.saving = recompute - reuse;
        decisions.Record(std::move(event));
      }
      continue;
    }
    static obs::Counter& rule_fired = obs::MetricsRegistry::Global().counter(
        obs::metric_names::kOptimizerRuleViewMatch);
    rule_fired.Increment();
    subsumed_hits.Increment();
    if (comp_span.active()) {
      comp_span.Arg("reason", obs::DecisionReasonName(
                                  obs::DecisionReason::kSubsumedHit));
    }
    MatchedViewDetail detail;
    detail.strict = cand.strict;
    detail.recompute_cost = recompute;
    detail.view_scan_cost = reuse;
    detail.subsumed = true;
    SumBaseScanVolume(op, &detail.rows_avoided, &detail.bytes_avoided);
    outcome->matched_details.push_back(detail);
    if (tracing_decisions) {
      obs::DecisionEvent event;
      event.stage = obs::DecisionStage::kGeneralizedMatch;
      event.reason = obs::DecisionReason::kSubsumedHit;
      event.node_strict = sig.strict;
      event.candidate_strict = cand.strict;
      event.match_class = class_key;
      event.recompute_cost = recompute;
      event.view_scan_cost = reuse;
      event.saving = recompute - reuse;
      decisions.Record(std::move(event));
    }
    if constexpr (verify::RuntimeChecksEnabled()) {
      SubsumedMatchAudit audit;
      audit.view_strict = cand.strict;
      audit.query_subtree = node;
      audit.view_definition = cand.definition;
      audit.residual = proof.residual;
      outcome->subsumed_audits.push_back(std::move(audit));
    }
    outcome->matched_signatures.push_back(cand.strict);
    outcome->views_matched_subsumed += 1;
    // The fragment was priced on static estimates; it joins the plan with
    // the feedback-aware annotation every new node gets.
    signatures_.SealTree(comp.root.get());
    AnnotateWithFeedback(comp.root.get());
    return std::move(comp.root);
  }
  return LogicalOpPtr();
}

Result<LogicalOpPtr> Optimizer::BuildViews(
    const LogicalOpPtr& node, const QueryAnnotations& annotations,
    const ViewStore* view_store, const TryLockFn& try_lock, double now,
    OptimizationOutcome* outcome, int* total_added,
    const obs::DecisionSink& decisions,
    std::vector<LogicalOp*>* spools) const {
  // Bottom-up: children first, so inner candidates materialize too (a spool
  // below another candidate still contributes to the outer subexpression).
  // A `break` on cap exhaustion (instead of an early return) lets the
  // cap-reached verdict below be recorded for this node when it is itself a
  // selected candidate; the spool outcome is identical either way. A node is
  // path-copied over its children's new spools; a spool is transparent to
  // signatures and estimates, so the copy keeps the values it carries.
  std::vector<LogicalOpPtr> children;  // set once a child changes
  for (size_t i = 0; i < node->children.size(); ++i) {
    auto child = BuildViews(node->children[i], annotations, view_store,
                            try_lock, now, outcome, total_added, decisions,
                            spools);
    if (!child.ok()) return child.status();
    if (*child != node->children[i] && children.empty()) {
      children = node->children;
    }
    if (!children.empty()) children[i] = std::move(*child);
    if (*total_added >= annotations.max_views_per_job) break;
  }
  LogicalOpPtr rebuilt =
      children.empty() ? node : node->WithChildren(std::move(children));
  const LogicalOp& op = *rebuilt;
  if (op.kind == LogicalOpKind::kSpool || op.kind == LogicalOpKind::kViewScan) {
    return rebuilt;
  }
  const NodeSignature sig = SealedSignature(op);
  if (!sig.eligible) return rebuilt;
  if (annotations.materialize_candidates.count(sig.recurring) == 0) {
    return rebuilt;
  }
  // From here on `op` is a selected materialization candidate: every
  // verdict — injected, already covered, lock denied, cap exhausted — is a
  // recordable decision.
  const auto record_build = [&](obs::DecisionReason reason) {
    if (!decisions.Active()) return;
    obs::DecisionEvent event;
    event.stage = obs::DecisionStage::kViewBuild;
    event.reason = reason;
    event.node_strict = sig.strict;
    event.candidate_strict = sig.strict;
    event.match_class = signatures_.ComputeMatchClass(op);
    event.recompute_cost = cost_model_.SubtreeCost(op);
    decisions.Record(std::move(event));
  };
  if (*total_added >= annotations.max_views_per_job) {
    record_build(obs::DecisionReason::kSpoolCapReached);
    return rebuilt;
  }
  // Already materialized (or being materialized by another job)?
  if (view_store != nullptr && view_store->FindAny(sig.strict) != nullptr) {
    record_build(obs::DecisionReason::kSpoolAlreadyMaterialized);
    return rebuilt;
  }
  if (!try_lock(sig.strict)) {
    record_build(obs::DecisionReason::kSpoolLockDenied);
    return rebuilt;
  }
  // Wrap with a spool: one consumer feeds the rest of this job, the other
  // writes the common subexpression to stable storage. It is annotated once
  // the phase is done, so the verdicts above it price it unannotated.
  LogicalOpPtr spool = LogicalOp::Spool(rebuilt);
  spool->view_signature = sig.strict;
  signatures_.Seal(spool.get());
  spools->push_back(spool.get());
  static obs::Counter& rule_fired =
      obs::MetricsRegistry::Global().counter(
          obs::metric_names::kOptimizerRuleSpoolInject);
  rule_fired.Increment();
  record_build(obs::DecisionReason::kSpoolInjected);
  outcome->proposed_materializations.push_back(sig.strict);
  *total_added += 1;
  return spool;
}

}  // namespace cloudviews
