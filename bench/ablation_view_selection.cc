// Ablation: view-selection strategy and storage budget.
//
// DESIGN.md calls out "scalable view selection" (BigSubs label propagation
// under a storage budget) as a core design decision. This bench compares the
// shipped strategy against baselines on the same deployment simulation:
//   - bigsubs:        marginal-utility rounds over the job/subexpression
//                     bipartite graph (no double counting of overlapping
//                     savings) — the production algorithm,
//   - greedy-ratio:   utility-per-byte knapsack (classic view selection),
//   - topk-frequency: most-repeated-first (frequency is not utility),
//   - no-budget:      everything with positive utility (upper bound).
// It also sweeps the per-VC storage budget for the shipped strategy.
//
// The last line is a `JSON {...}` report: `<strategy>_improvement_pct` at
// the 24 KB budget and `bigsubs_<N>kb_improvement_pct` for the sweep. The
// percentages come from the simulator alone, so they are deterministic for
// a given --scale and --days (CI guards them).

#include <algorithm>
#include <cstdio>
#include <string>

#include "bench_util.h"
#include "workload/experiment.h"
#include "workload/profiles.h"

namespace cloudviews {
namespace {

struct RunOutcome {
  double processing_improvement = 0.0;
  int64_t views_created = 0;
  int64_t views_reused = 0;
  uint64_t storage_bytes = 0;
};

RunOutcome RunWith(const ExperimentConfig& config) {
  ProductionExperiment experiment(config);
  auto result = experiment.Run();
  RunOutcome out;
  if (!result.ok()) return out;
  DailyTelemetry base = result->baseline.telemetry.Totals();
  DailyTelemetry with_cv = result->cloudviews.telemetry.Totals();
  out.processing_improvement =
      ImprovementPercent(base.processing_seconds, with_cv.processing_seconds);
  out.views_created = result->cloudviews.views_created;
  out.views_reused = result->cloudviews.views_reused;
  return out;
}

int RunAblation(int argc, char** argv) {
  double scale = bench_util::ParseScale(argc, argv, 0.2);
  int days = bench_util::ParseDays(argc, argv, 10);
  bench_util::PrintHeader(
      "Ablation: view selection strategies and storage budgets",
      "DESIGN.md 'Scalable view selection' (BigSubs, Jindal et al. VLDB'18)");

  bench_util::JsonReport report("ablation_view_selection");
  report.Metric("scale", scale).Metric("days", static_cast<int64_t>(days));

  ExperimentConfig config;
  config.workload = ProductionDeploymentProfile(scale);
  config.num_days = days;
  config.onboarding_days_per_vc = 0;
  config.engine.selection.min_occurrences = 4;

  // The strategy comparison runs under a tight per-VC budget — with
  // unconstrained storage every strategy converges to "materialize all
  // positive-utility candidates" and the ranking degenerates.
  std::printf("strategies under a tight per-VC budget (24KB):\n");
  std::printf("%-16s %12s %12s %12s\n", "strategy", "proc_improv",
              "views_built", "views_used");
  for (SelectionStrategy strategy :
       {SelectionStrategy::kBigSubs, SelectionStrategy::kGreedyRatio,
        SelectionStrategy::kTopKFrequency, SelectionStrategy::kNoBudget}) {
    ExperimentConfig run = config;
    run.engine.selection.strategy = strategy;
    run.engine.selection.storage_budget_bytes = 24ull << 10;
    RunOutcome out = RunWith(run);
    std::string key = SelectionStrategyName(strategy);
    std::replace(key.begin(), key.end(), '-', '_');
    report.Metric((key + "_improvement_pct").c_str(),
                  out.processing_improvement);
    std::printf("%-16s %11.2f%% %12lld %12lld\n",
                SelectionStrategyName(strategy), out.processing_improvement,
                static_cast<long long>(out.views_created),
                static_cast<long long>(out.views_reused));
  }

  std::printf("\nStorage-budget sweep (bigsubs, per-VC budget):\n");
  std::printf("%-16s %12s %12s %12s\n", "budget", "proc_improv",
              "views_built", "views_used");
  for (uint64_t budget_kb : {8ull, 64ull, 512ull, 4096ull, 65536ull}) {
    ExperimentConfig run = config;
    run.engine.selection.strategy = SelectionStrategy::kBigSubs;
    run.engine.selection.storage_budget_bytes = budget_kb << 10;
    RunOutcome out = RunWith(run);
    report.Metric(("bigsubs_" + std::to_string(budget_kb) +
                   "kb_improvement_pct")
                      .c_str(),
                  out.processing_improvement);
    std::printf("%13lluKB %11.2f%% %12lld %12lld\n",
                static_cast<unsigned long long>(budget_kb),
                out.processing_improvement,
                static_cast<long long>(out.views_created),
                static_cast<long long>(out.views_reused));
  }
  std::printf("\n(expected: improvements grow with budget then saturate; "
              "topk-frequency wastes budget on low-utility views)\n");
  report.Print();
  return 0;
}

}  // namespace
}  // namespace cloudviews

int main(int argc, char** argv) {
  return cloudviews::RunAblation(argc, argv);
}
