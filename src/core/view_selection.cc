#include "core/view_selection.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <queue>

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

double ViewSelector::ReusableFraction(const SubexpressionGroup& group) const {
  if (group.recent_instances.size() < 2) return 1.0;
  // "We only consider subexpressions that could finish materializing before
  // the start of other consuming jobs": an instance can reuse only if it is
  // submitted at least one concurrency window after the first instance of
  // its day (the producer), when the view has been sealed.
  std::map<int64_t, std::vector<double>> by_day;
  for (const auto& [job_id, t] : group.recent_instances) {
    by_day[static_cast<int64_t>(t / 86400.0)].push_back(t);
  }
  int64_t reusable = 0;
  int64_t total = 0;
  for (auto& [day, times] : by_day) {
    double first = *std::min_element(times.begin(), times.end());
    for (double t : times) {
      total += 1;
      if (t - first >= constraints_.concurrency_window_seconds) reusable += 1;
    }
  }
  if (total == 0) return 1.0;
  return static_cast<double>(reusable) / static_cast<double>(total);
}

std::vector<ViewCandidate> ViewSelector::ScoreCandidates(
    const WorkloadRepository& repository) const {
  std::vector<ViewCandidate> out;
  for (const SubexpressionGroup* group :
       repository.CommonSubexpressions(constraints_.min_occurrences)) {
    if (!group->eligible) continue;
    ViewCandidate cand;
    cand.strict_signature = group->strict_signature;
    cand.recurring_signature = group->recurring_signature;
    cand.occurrences = group->occurrences;
    cand.avg_cpu_cost = group->AvgCpuCost();
    cand.storage_bytes = group->last_bytes;
    cand.subtree_size = group->subtree_size;
    cand.virtual_clusters = group->virtual_clusters;
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
    out.push_back(std::move(cand));
  }
  return out;
}

namespace {

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
std::vector<ViewCandidate> SelectBigSubs(
    std::vector<ViewCandidate> candidates,
    const WorkloadRepository& repository, uint64_t budget, int max_views,
    SelectionResult* result) {
  struct Entry {
    ViewCandidate cand;
    std::vector<int64_t> jobs;      // jobs containing this subexpression
    double per_job_saving = 0.0;    // savings if this view serves that job
  };
  std::vector<Entry> entries;
  entries.reserve(candidates.size());
  for (ViewCandidate& cand : candidates) {
    if (cand.utility <= 0) {
      result->rejected_utility += 1;
      continue;
    }
    Entry entry;
    const SubexpressionGroup* group =
        repository.FindGroup(cand.strict_signature);
    if (group != nullptr) {
      for (const auto& [job_id, t] : group->recent_instances) {
        entry.jobs.push_back(job_id);
      }
    }
    entry.per_job_saving =
        std::max(0.0, cand.avg_cpu_cost - cand.read_cost);
    entry.cand = std::move(cand);
    entries.push_back(std::move(entry));
  }

  // label[job] = cpu savings already granted to that job by selected views.
  std::unordered_map<int64_t, double> job_saved;
  auto marginal_utility = [&](const Entry& entry) {
    double total = 0.0;
    for (int64_t job : entry.jobs) {
      auto it = job_saved.find(job);
      double already = it == job_saved.end() ? 0.0 : it->second;
      // A bigger saving supersedes the smaller one within the same job.
      total += std::max(0.0, entry.per_job_saving - already);
    }
    double materialize_overhead =
        static_cast<double>(entry.cand.storage_bytes) *
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
  std::vector<ViewCandidate> selected;
  auto push_if_useful = [&](size_t i) {
    double mu = marginal_utility(entries[i]);
    double ratio = mu / static_cast<double>(entries[i].cand.storage_bytes + 1);
    if (mu > 0) heap.push({ratio, i, selected.size()});
  };
  for (size_t i = 0; i < entries.size(); ++i) push_if_useful(i);

  uint64_t used = 0;
  while (static_cast<int>(selected.size()) < max_views && !heap.empty()) {
    Bound top = heap.top();
    heap.pop();
    Entry& entry = entries[top.index];
    if (used + entry.cand.storage_bytes > budget) continue;
    if (top.round != selected.size()) {
      push_if_useful(top.index);
      continue;
    }
    used += entry.cand.storage_bytes;
    // Propagate labels: these jobs are now (partially) served.
    for (int64_t job : entry.jobs) {
      double& saved = job_saved[job];
      saved = std::max(saved, entry.per_job_saving);
    }
    entry.cand.utility = marginal_utility(entry);  // report marginal value
    selected.push_back(std::move(entry.cand));
  }
  result->rejected_budget +=
      static_cast<int64_t>(entries.size() - selected.size());
  return selected;
}

}  // namespace

std::vector<ViewCandidate> ViewSelector::ApplyBudget(
    std::vector<ViewCandidate> candidates,
    const WorkloadRepository& repository, uint64_t budget, int max_views,
    SelectionResult* result) const {
  if (constraints_.strategy == SelectionStrategy::kBigSubs) {
    return SelectBigSubs(std::move(candidates), repository, budget, max_views,
                         result);
  }

  switch (constraints_.strategy) {
    case SelectionStrategy::kGreedyRatio:
    case SelectionStrategy::kNoBudget:
      std::sort(candidates.begin(), candidates.end(),
                [](const ViewCandidate& a, const ViewCandidate& b) {
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
                [](const ViewCandidate& a, const ViewCandidate& b) {
                  if (a.occurrences != b.occurrences) {
                    return a.occurrences > b.occurrences;
                  }
                  return a.strict_signature < b.strict_signature;
                });
      break;
    default:
      break;
  }

  std::vector<ViewCandidate> selected;
  uint64_t used = 0;
  for (ViewCandidate& cand : candidates) {
    if (cand.utility <= 0) {
      result->rejected_utility += 1;
      continue;
    }
    if (static_cast<int>(selected.size()) >= max_views) {
      result->rejected_budget += 1;
      continue;
    }
    if (constraints_.strategy != SelectionStrategy::kNoBudget &&
        used + cand.storage_bytes > budget) {
      result->rejected_budget += 1;
      continue;
    }
    used += cand.storage_bytes;
    selected.push_back(std::move(cand));
  }
  return selected;
}

SelectionResult ViewSelector::Select(
    const WorkloadRepository& repository) const {
  SelectionResult result;
  std::vector<ViewCandidate> candidates = ScoreCandidates(repository);
  result.candidates_considered = static_cast<int64_t>(candidates.size());

  // Schedule-aware filtering: drop mostly-concurrent candidates, and scale
  // the remaining utilities by the fraction of consumers that can actually
  // wait for materialization.
  if (constraints_.schedule_aware) {
    std::vector<ViewCandidate> kept;
    kept.reserve(candidates.size());
    for (ViewCandidate& cand : candidates) {
      const SubexpressionGroup* group =
          repository.FindGroup(cand.strict_signature);
      double fraction = group != nullptr ? ReusableFraction(*group) : 1.0;
      if (fraction < constraints_.min_reusable_fraction) {
        result.rejected_schedule += 1;
        continue;
      }
      cand.utility *= fraction;
      kept.push_back(std::move(cand));
    }
    candidates = std::move(kept);
  }

  if (constraints_.per_virtual_cluster) {
    // A single selection pass that partitions the workload by VC and applies
    // the (per-VC) budget within each partition. Cross-VC subexpressions are
    // considered in each VC they appear in but selected at most once.
    std::unordered_map<std::string, std::vector<ViewCandidate>> by_vc;
    for (const ViewCandidate& cand : candidates) {
      for (const std::string& vc : cand.virtual_clusters) {
        by_vc[vc].push_back(cand);
      }
    }
    std::vector<std::string> vcs;
    for (const auto& [vc, list] : by_vc) vcs.push_back(vc);
    std::sort(vcs.begin(), vcs.end());
    for (const std::string& vc : vcs) {
      std::vector<ViewCandidate> chosen = ApplyBudget(
          std::move(by_vc[vc]), repository,
          constraints_.storage_budget_bytes, constraints_.max_views, &result);
      for (ViewCandidate& cand : chosen) {
        if (result.selected_strict.insert(cand.strict_signature).second) {
          result.expected_savings += std::max(0.0, cand.utility);
          result.total_storage_bytes += cand.storage_bytes;
          result.selected.push_back(std::move(cand));
        }
      }
    }
  } else {
    std::vector<ViewCandidate> chosen = ApplyBudget(
        std::move(candidates), repository, constraints_.storage_budget_bytes,
        constraints_.max_views, &result);
    for (ViewCandidate& cand : chosen) {
      result.selected_strict.insert(cand.strict_signature);
      result.expected_savings += std::max(0.0, cand.utility);
      result.total_storage_bytes += cand.storage_bytes;
      result.selected.push_back(std::move(cand));
    }
  }
  return result;
}

}  // namespace cloudviews
