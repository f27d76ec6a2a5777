#include "extensions/checkpointing.h"

#include <utility>

#include "optimizer/cardinality.h"
#include "optimizer/cost_model.h"

namespace cloudviews {

namespace {

bool Checkpointable(const LogicalOp& node) {
  switch (node.kind) {
    case LogicalOpKind::kScan:
    case LogicalOpKind::kViewScan:
    case LogicalOpKind::kSpool:
      return false;
    default:
      return true;
  }
}

}  // namespace

LogicalOpPtr CheckpointManager::PlanWithCheckpoints(const LogicalOpPtr& plan) {
  // Placement reads estimates; annotating a copy keeps them out of the
  // caller's plan.
  LogicalOpPtr annotated = plan->Clone();
  CardinalityEstimator estimator(catalog_);
  estimator.Annotate(annotated.get());
  CostModel cost_model;
  double total_cost = cost_model.SubtreeCost(*annotated);

  std::vector<std::pair<const LogicalOp*, NodeSignature>> chosen;
  // Top-down: checkpoint the largest expensive prefixes first, skipping the
  // root (checkpointing the final result is just... the result).
  std::function<void(const LogicalOp&, bool)> place = [&](const LogicalOp& op,
                                                          bool is_root) {
    if (static_cast<int>(chosen.size()) >= policy_.max_checkpoints) return;
    if (!is_root && Checkpointable(op)) {
      double cost = cost_model.SubtreeCost(op);
      NodeSignature sig = signatures_.Compute(op);
      if (sig.eligible && cost >= policy_.min_cost_fraction * total_cost) {
        chosen.emplace_back(&op, std::move(sig));
        return;  // do not nest checkpoints inside this one
      }
    }
    for (const LogicalOpPtr& child : op.children) place(*child, false);
  };
  place(*annotated, true);
  return RewritePaths(
      annotated, [&](const LogicalOpPtr& original, LogicalOpPtr rebuilt) {
        for (const auto& [node, sig] : chosen) {
          if (node != original.get()) continue;
          LogicalOpPtr spool = LogicalOp::Spool(std::move(rebuilt));
          spool->view_signature = sig.strict;
          spool->view_recurring_signature = sig.recurring;
          return spool;
        }
        return rebuilt;
      });
}

Result<CheckpointedRun> CheckpointManager::Execute(
    const LogicalOpPtr& plan, int fail_after_checkpoints) {
  CheckpointedRun run;

  // Restore: replace checkpoint spools whose signature already sealed in a
  // previous attempt with scans over the checkpoint contents (a path copy;
  // `plan` stays as it is).
  LogicalOpPtr working = RewritePaths(
      plan, [&](const LogicalOpPtr& original, LogicalOpPtr rebuilt) {
        if (original->kind != LogicalOpKind::kSpool) return rebuilt;
        const MaterializedView* view =
            store_.Find(original->view_signature, /*now=*/0.0);
        if (view == nullptr || view->table == nullptr) return rebuilt;
        LogicalOpPtr scan =
            LogicalOp::ViewScan(original->view_signature, view->output_path,
                                original->output_schema);
        scan->view_recurring_signature = view->recurring_signature;
        scan->estimated_rows = static_cast<double>(view->observed_rows);
        scan->estimated_bytes = static_cast<double>(view->observed_bytes);
        scan->stats_from_view = true;
        run.checkpoints_restored += 1;
        return scan;
      });

  // Register pending materializations.
  std::function<void(const LogicalOp&)> begin = [&](const LogicalOp& op) {
    if (op.kind == LogicalOpKind::kSpool &&
        store_.FindAny(op.view_signature) == nullptr) {
      store_
          .BeginMaterialize(op.view_signature, op.view_recurring_signature,
                            "checkpoints", /*producer_job_id=*/0, /*now=*/0.0)
          .ok();
    }
    for (const LogicalOpPtr& child : op.children) begin(*child);
  };
  begin(*working);

  // Execute; the completion hook stops sealing once the injected failure
  // fires (the job "died" before reaching later checkpoints).
  int sealed = 0;
  bool failure_fired = false;
  ExecContext context;
  context.catalog = catalog_;
  context.view_store = &store_;
  context.on_spool_complete = [&](const LogicalOp& spool, TablePtr contents,
                                  const OperatorStats& stats) {
    if (failure_fired) return;
    store_
        .Seal(spool.view_signature, std::move(contents), stats.rows_out,
              stats.bytes_out, /*now=*/0.0)
        .ok();
    sealed += 1;
    if (fail_after_checkpoints >= 0 && sealed >= fail_after_checkpoints) {
      failure_fired = true;
    }
  };
  Executor executor(context);
  auto result = executor.Execute(working);
  if (!result.ok()) return result.status();

  run.checkpoints_written = sealed;
  if (fail_after_checkpoints >= 0) {
    // The transient failure killed the job: its output never landed.
    run.failed = true;
    return run;
  }
  run.output = result->output;
  run.stats = result->stats;
  return run;
}

}  // namespace cloudviews
