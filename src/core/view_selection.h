#ifndef CLOUDVIEWS_CORE_VIEW_SELECTION_H_
#define CLOUDVIEWS_CORE_VIEW_SELECTION_H_

#include <string>
#include <unordered_set>
#include <vector>

#include "common/hash.h"
#include "core/workload_repository.h"

namespace cloudviews {

// A scored materialization candidate.
struct ViewCandidate {
  Hash128 strict_signature;
  Hash128 recurring_signature;
  int64_t occurrences = 0;
  double avg_cpu_cost = 0.0;     // cost of recomputing once
  double read_cost = 0.0;        // cost of scanning the materialized copy
  uint64_t storage_bytes = 0;    // materialized size
  double utility = 0.0;          // expected total processing-time savings
  size_t subtree_size = 1;
  std::vector<std::string> virtual_clusters;
};

// Selection strategy (ablation axis; the paper ships BigSubs-style
// selection, the others are baselines).
enum class SelectionStrategy {
  kGreedyRatio,   // utility-per-byte greedy knapsack
  kTopKFrequency, // most-repeated first, ignoring utility
  kBigSubs,       // label-propagation-style marginal-utility rounds
  kNoBudget,      // everything with positive utility (upper bound)
};

const char* SelectionStrategyName(SelectionStrategy strategy);

struct SelectionConstraints {
  uint64_t storage_budget_bytes = 64ull << 20;  // per VC when per-VC mode
  int max_views = 10000;                        // cap on selected views
  SelectionStrategy strategy = SelectionStrategy::kBigSubs;
  // Per-customer selection: partition candidates by virtual cluster and
  // apply the budget within each VC (paper section 4).
  bool per_virtual_cluster = true;
  // Schedule-aware selection: skip subexpressions whose consumers are
  // submitted concurrently with the producer, since the view cannot finish
  // materializing in time (paper section 4).
  bool schedule_aware = true;
  // Two instances within this window count as concurrent submissions (the
  // producer cannot finish materializing in time).
  double concurrency_window_seconds = 120.0;
  // Candidates where fewer than this fraction of instances could reuse are
  // dropped entirely; the rest have their utility scaled by the fraction.
  double min_reusable_fraction = 0.3;
  // Minimum recurrences before a subexpression is worth materializing.
  int64_t min_occurrences = 2;
};

// Result of one selection run, also surfaced to customers as insights
// ("view selection output is made available to customers").
struct SelectionResult {
  std::vector<ViewCandidate> selected;
  std::unordered_set<Hash128, Hash128Hasher> selected_strict;
  double expected_savings = 0.0;   // total expected cpu-cost savings
  uint64_t total_storage_bytes = 0;
  int64_t candidates_considered = 0;
  int64_t rejected_schedule = 0;   // dropped by schedule-aware filtering
  int64_t rejected_budget = 0;
  int64_t rejected_utility = 0;
  int64_t evaluations = 0;         // BigSubs marginal-utility evaluations

  bool Contains(const Hash128& strict) const {
    return selected_strict.count(strict) > 0;
  }
};

// Periodic offline view selection over the workload repository.
class ViewSelector {
 public:
  explicit ViewSelector(SelectionConstraints constraints = {})
      : constraints_(constraints) {}

  // Runs selection over the repository's current contents.
  SelectionResult Select(const WorkloadRepository& repository) const;

  // Builds the scored candidate list without applying budgets (exposed for
  // analysis and the insights notebook).
  std::vector<ViewCandidate> ScoreCandidates(
      const WorkloadRepository& repository) const;

  const SelectionConstraints& constraints() const { return constraints_; }

 private:
  SelectionConstraints constraints_;
};

}  // namespace cloudviews

#endif  // CLOUDVIEWS_CORE_VIEW_SELECTION_H_
