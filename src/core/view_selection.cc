#include "core/view_selection.h"

#include <algorithm>
#include <array>
#include <map>
#include <queue>
#include <string_view>

#include "common/exec_stats.h"

namespace cloudviews {

const char* SelectionStrategyName(SelectionStrategy strategy) {
  switch (strategy) {
    case SelectionStrategy::kGreedyRatio:
      return "greedy-ratio";
    case SelectionStrategy::kTopKFrequency:
      return "topk-frequency";
    case SelectionStrategy::kBigSubs:
      return "bigsubs";
    case SelectionStrategy::kNoBudget:
      return "no-budget";
  }
  return "?";
}

namespace {

// A scored candidate and the repository group it was scored from. Selection
// reads the group's instance history and virtual clusters through `group`
// and copies a candidate out only when it is picked.
struct Scored {
  ViewCandidate cand;  // virtual_clusters left empty
  const SubexpressionGroup* group = nullptr;
};

// One pick of a budget pass and the utility it reports.
struct Pick {
  const Scored* scored;
  double utility;
};

// Every eligible group with at least `min_occurrences` instances, most
// frequent first, then by strict signature: the order BigSubs breaks ties in.
std::vector<Scored> Score(const WorkloadRepository& repository,
                          int64_t min_occurrences) {
  std::vector<Scored> out;
  for (const SubexpressionGroup* group : repository.groups()) {
    if (group->occurrences < min_occurrences || !group->eligible) continue;
    Scored& scored = out.emplace_back();
    scored.group = group;
    ViewCandidate& cand = scored.cand;
    cand.strict_signature = group->strict_signature;
    cand.recurring_signature = group->recurring_signature;
    cand.occurrences = group->occurrences;
    cand.avg_cpu_cost = group->AvgCpuCost();
    cand.storage_bytes = group->last_bytes;
    cand.subtree_size = group->subtree_size;
    cand.read_cost =
        static_cast<double>(group->last_rows) * CostWeights::kScanRow +
        static_cast<double>(group->last_bytes) * CostWeights::kViewScanByte;
    // Every future hit after the materializing one saves (recompute - read);
    // expected future hits are estimated by the observed repeat frequency.
    double per_reuse = cand.avg_cpu_cost - cand.read_cost;
    double expected_reuses = static_cast<double>(group->occurrences - 1);
    double materialize_overhead =
        static_cast<double>(group->last_bytes) * CostWeights::kSpoolByte +
        static_cast<double>(group->last_rows) * CostWeights::kSpoolRow;
    cand.utility = expected_reuses * per_reuse - materialize_overhead;
  }
  std::sort(out.begin(), out.end(), [](const Scored& a, const Scored& b) {
    return a.cand.occurrences != b.cand.occurrences
               ? a.cand.occurrences > b.cand.occurrences
               : a.cand.strict_signature < b.cand.strict_signature;
  });
  return out;
}

// Fraction of the group's recent instances that were submitted late enough
// after the first instance of their day to reuse a view the first instance
// materializes. 1.0 = fully reusable; ~0 = purely concurrent.
double ReusableFraction(const SubexpressionGroup& group, double window) {
  const InstanceRing& ring = group.recent_instances;
  if (ring.size() < 2) return 1.0;
  // "We only consider subexpressions that could finish materializing before
  // the start of other consuming jobs": an instance can reuse only if it is
  // submitted at least one concurrency window after the first instance of
  // its day (the producer), when the view has been sealed. The day is
  // monotone in the time, so in time order each day's first instance heads
  // its run.
  std::array<double, InstanceRing::kCapacity> times{};
  size_t n = 0;
  ring.ForEach([&](const InstanceRing::Instance& inst) {
    times[n++] = inst.submit_time;
  });
  if (!std::is_sorted(times.begin(), times.begin() + n)) {
    std::sort(times.begin(), times.begin() + n);
  }
  int64_t reusable = 0;
  int64_t day = 0;
  double first = 0.0;
  for (size_t i = 0; i < n; ++i) {
    const int64_t d = static_cast<int64_t>(times[i] / 86400.0);
    if (i == 0 || d != day) {
      day = d;
      first = times[i];
    }
    if (times[i] - first >= window) reusable += 1;
  }
  return static_cast<double>(reusable) / static_cast<double>(n);
}

// BigSubs-style selection (Jindal et al., "Thou Shall Not Recompute"):
// subexpression selection is a bipartite job/subexpression problem — a job's
// computation can only be saved once, so overlapping candidates covering the
// same jobs must not double count their savings. The exact ILP is solved in
// production with distributed label propagation; here we run greedy rounds
// over marginal utilities, which propagate per-job "already saved" labels
// between rounds. Each round takes the fitting candidate with the best
// marginal utility per byte, the lowest index winning ties.
//
// The rounds are evaluated lazily (CELF), yet pick exactly what a rescan of
// every candidate would. Labels only rise and `used` only grows, and max,
// subtraction, a fixed-order sum and division by the size are monotone under
// IEEE round-to-nearest, so a ratio computed in an earlier round bounds the
// current one from above. A heap entry whose ratio is current thus beats
// every other candidate, ties included; one that stops fitting never fits
// again, and one whose marginal utility fell to <= 0 stays there.
//
// `labels` holds the saving already granted to each job, by job ordinal. It
// is all zeros on entry and is left so: only picks raise labels, and the
// picks' jobs are reset before returning.
std::vector<Pick> SelectBigSubs(const std::vector<const Scored*>& candidates,
                                uint64_t budget, int max_views,
                                std::vector<double>* labels,
                                SelectionResult* result) {
  struct Entry {
    const Scored* scored;
    double per_job_saving;  // savings if this view serves one of its jobs
  };
  std::vector<Entry> entries;
  entries.reserve(candidates.size());
  for (const Scored* scored : candidates) {
    const ViewCandidate& cand = scored->cand;
    if (cand.utility <= 0) {
      result->rejected_utility += 1;
      continue;
    }
    entries.push_back(
        {scored, std::max(0.0, cand.avg_cpu_cost - cand.read_cost)});
  }

  double* label = labels->data();
  auto marginal_utility = [&](const Entry& entry) {
    result->evaluations += 1;
    double total = 0.0;
    // Oldest instance first: the sum's order is fixed.
    entry.scored->group->recent_instances.ForEach(
        [&](const InstanceRing::Instance& inst) {
          // A bigger saving supersedes the smaller one within the same job.
          total += std::max(0.0, entry.per_job_saving - label[inst.job]);
        });
    double materialize_overhead =
        static_cast<double>(entry.scored->cand.storage_bytes) *
        CostWeights::kSpoolByte;
    // The producing instance saves nothing.
    total -= entry.per_job_saving + materialize_overhead;
    return total;
  };

  // Max-heap on (ratio, -index); `round` counts the picks made when the
  // ratio was computed, so it is current iff it equals selected.size().
  struct Bound {
    double ratio;
    size_t index;
    size_t round;
  };
  auto below = [](const Bound& a, const Bound& b) {
    return a.ratio != b.ratio ? a.ratio < b.ratio : a.index > b.index;
  };
  std::priority_queue<Bound, std::vector<Bound>, decltype(below)> heap(below);
  std::vector<Pick> selected;
  auto push_if_useful = [&](size_t i) {
    double mu = marginal_utility(entries[i]);
    const uint64_t bytes = entries[i].scored->cand.storage_bytes;
    double ratio = mu / static_cast<double>(bytes + 1);
    if (mu > 0) heap.push({ratio, i, selected.size()});
  };
  for (size_t i = 0; i < entries.size(); ++i) push_if_useful(i);

  uint64_t used = 0;
  while (static_cast<int>(selected.size()) < max_views && !heap.empty()) {
    Bound top = heap.top();
    heap.pop();
    const Entry& entry = entries[top.index];
    const uint64_t bytes = entry.scored->cand.storage_bytes;
    if (used + bytes > budget) continue;
    if (top.round != selected.size()) {
      push_if_useful(top.index);
      continue;
    }
    used += bytes;
    // Propagate labels: these jobs are now (partially) served.
    entry.scored->group->recent_instances.ForEach(
        [&](const InstanceRing::Instance& inst) {
          label[inst.job] = std::max(label[inst.job], entry.per_job_saving);
        });
    // Reports the marginal value, computed after its own jobs' labels rose.
    selected.push_back({entry.scored, marginal_utility(entry)});
  }
  result->rejected_budget +=
      static_cast<int64_t>(entries.size() - selected.size());
  for (const Pick& pick : selected) {
    pick.scored->group->recent_instances.ForEach(
        [&](const InstanceRing::Instance& inst) { label[inst.job] = 0.0; });
  }
  return selected;
}

// Picks from one partition's candidates (in Score order) under `budget`.
std::vector<Pick> ApplyBudget(std::vector<const Scored*> candidates,
                              SelectionStrategy strategy, uint64_t budget,
                              int max_views, std::vector<double>* labels,
                              SelectionResult* result) {
  if (strategy == SelectionStrategy::kBigSubs) {
    return SelectBigSubs(candidates, budget, max_views, labels, result);
  }

  switch (strategy) {
    case SelectionStrategy::kGreedyRatio:
    case SelectionStrategy::kNoBudget:
      std::sort(candidates.begin(), candidates.end(),
                [](const Scored* sa, const Scored* sb) {
                  const ViewCandidate& a = sa->cand;
                  const ViewCandidate& b = sb->cand;
                  double ra =
                      a.utility / static_cast<double>(a.storage_bytes + 1);
                  double rb =
                      b.utility / static_cast<double>(b.storage_bytes + 1);
                  if (ra != rb) return ra > rb;
                  return a.strict_signature < b.strict_signature;
                });
      break;
    case SelectionStrategy::kTopKFrequency:
      std::sort(candidates.begin(), candidates.end(),
                [](const Scored* a, const Scored* b) {
                  if (a->cand.occurrences != b->cand.occurrences) {
                    return a->cand.occurrences > b->cand.occurrences;
                  }
                  return a->cand.strict_signature < b->cand.strict_signature;
                });
      break;
    default:
      break;
  }

  std::vector<Pick> selected;
  uint64_t used = 0;
  for (const Scored* scored : candidates) {
    const ViewCandidate& cand = scored->cand;
    if (cand.utility <= 0) {
      result->rejected_utility += 1;
      continue;
    }
    if (static_cast<int>(selected.size()) >= max_views) {
      result->rejected_budget += 1;
      continue;
    }
    if (strategy != SelectionStrategy::kNoBudget &&
        used + cand.storage_bytes > budget) {
      result->rejected_budget += 1;
      continue;
    }
    used += cand.storage_bytes;
    selected.push_back({scored, cand.utility});
  }
  return selected;
}

}  // namespace

std::vector<ViewCandidate> ViewSelector::ScoreCandidates(
    const WorkloadRepository& repository) const {
  std::vector<ViewCandidate> out;
  for (Scored& scored : Score(repository, constraints_.min_occurrences)) {
    scored.cand.virtual_clusters = scored.group->virtual_clusters;
    out.push_back(std::move(scored.cand));
  }
  return out;
}

SelectionResult ViewSelector::Select(
    const WorkloadRepository& repository) const {
  SelectionResult result;
  std::vector<Scored> candidates =
      Score(repository, constraints_.min_occurrences);
  result.candidates_considered = static_cast<int64_t>(candidates.size());

  // Schedule-aware filtering: drop mostly-concurrent candidates, and scale
  // the remaining utilities by the fraction of consumers that can actually
  // wait for materialization.
  if (constraints_.schedule_aware) {
    std::vector<Scored> kept;
    kept.reserve(candidates.size());
    for (Scored& scored : candidates) {
      double fraction = ReusableFraction(
          *scored.group, constraints_.concurrency_window_seconds);
      if (fraction < constraints_.min_reusable_fraction) {
        result.rejected_schedule += 1;
        continue;
      }
      scored.cand.utility *= fraction;
      kept.push_back(std::move(scored));
    }
    candidates = std::move(kept);
  }

  // One label array serves every budget pass; each pass leaves it zeroed.
  const bool bigsubs = constraints_.strategy == SelectionStrategy::kBigSubs;
  std::vector<double> labels(bigsubs ? repository.num_jobs() : 0);
  // A cross-VC subexpression is selected at most once.
  std::vector<bool> picked(candidates.size());
  auto select = [&](std::vector<const Scored*> partition) {
    std::vector<Pick> picks =
        ApplyBudget(std::move(partition), constraints_.strategy,
                    constraints_.storage_budget_bytes, constraints_.max_views,
                    &labels, &result);
    for (const Pick& pick : picks) {
      const auto index = static_cast<size_t>(pick.scored - candidates.data());
      if (picked[index]) continue;
      picked[index] = true;
      const ViewCandidate& cand = pick.scored->cand;
      result.selected_strict.insert(cand.strict_signature);
      ViewCandidate& view = result.selected.emplace_back(cand);
      view.utility = pick.utility;
      view.virtual_clusters = pick.scored->group->virtual_clusters;
      result.expected_savings += std::max(0.0, view.utility);
      result.total_storage_bytes += view.storage_bytes;
    }
  };

  if (constraints_.per_virtual_cluster) {
    // A single selection pass that partitions the workload by VC and applies
    // the (per-VC) budget within each partition, VCs in name order.
    // Cross-VC subexpressions are considered in each VC they appear in.
    std::map<std::string_view, std::vector<const Scored*>> by_vc;
    for (const Scored& scored : candidates) {
      for (const std::string& vc : scored.group->virtual_clusters) {
        by_vc[vc].push_back(&scored);
      }
    }
    for (auto& [vc, partition] : by_vc) select(std::move(partition));
  } else {
    std::vector<const Scored*> all;
    all.reserve(candidates.size());
    for (const Scored& scored : candidates) all.push_back(&scored);
    select(std::move(all));
  }
  return result;
}

}  // namespace cloudviews
