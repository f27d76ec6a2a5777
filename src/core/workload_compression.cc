#include "core/workload_compression.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

namespace cloudviews {

CompressedWorkload CompressWorkload(const WorkloadRepository& repository,
                                    CompressionOptions options) {
  CompressedWorkload out;

  // Build the bipartite incidence: job -> set of subexpression groups, and
  // each group's weight (cost mass or 1).
  struct GroupInfo {
    double weight = 1.0;
    int index = 0;
  };
  std::unordered_map<Hash128, GroupInfo, Hash128Hasher> group_info;
  std::unordered_map<int64_t, std::vector<int>> job_groups;
  double total_mass = 0.0;
  int group_counter = 0;
  for (const SubexpressionGroup* group : repository.AllGroups()) {
    if (group->recent_instances.empty()) continue;
    GroupInfo info;
    info.weight = options.cost_weighted
                      ? std::max(1.0, group->AvgCpuCost())
                      : 1.0;
    info.index = group_counter++;
    total_mass += info.weight;
    group_info.emplace(group->strict_signature, info);
    group->recent_instances.ForEach([&](const InstanceRing::Instance& inst) {
      job_groups[repository.job_id(inst.job)].push_back(info.index);
    });
  }
  out.jobs_in_workload = static_cast<int64_t>(job_groups.size());
  if (job_groups.empty() || total_mass <= 0.0) return out;

  // Weight lookup by group index.
  std::vector<double> weight(static_cast<size_t>(group_counter), 1.0);
  for (const auto& [sig, info] : group_info) {
    weight[static_cast<size_t>(info.index)] = info.weight;
  }

  // Greedy cover: repeatedly take the job adding the most uncovered mass.
  std::vector<bool> covered(static_cast<size_t>(group_counter), false);
  double covered_mass = 0.0;
  std::unordered_set<int64_t> taken;
  while (covered_mass / total_mass < options.coverage_target &&
         static_cast<int>(taken.size()) < options.max_jobs) {
    int64_t best_job = -1;
    double best_gain = 0.0;
    for (const auto& [job_id, groups] : job_groups) {
      if (taken.count(job_id) > 0) continue;
      double gain = 0.0;
      for (int g : groups) {
        if (!covered[static_cast<size_t>(g)]) {
          gain += weight[static_cast<size_t>(g)];
        }
      }
      if (gain > best_gain ||
          (gain == best_gain && best_job >= 0 && job_id < best_job)) {
        best_gain = gain;
        best_job = job_id;
      }
    }
    if (best_job < 0 || best_gain <= 0.0) break;
    taken.insert(best_job);
    for (int g : job_groups[best_job]) {
      if (!covered[static_cast<size_t>(g)]) {
        covered[static_cast<size_t>(g)] = true;
        covered_mass += weight[static_cast<size_t>(g)];
      }
    }
  }

  out.representative_jobs.assign(taken.begin(), taken.end());
  std::sort(out.representative_jobs.begin(), out.representative_jobs.end());
  out.coverage = covered_mass / total_mass;
  out.compression_ratio =
      static_cast<double>(out.representative_jobs.size()) /
      static_cast<double>(out.jobs_in_workload);
  return out;
}

}  // namespace cloudviews
