#include "core/workload_repository.h"

#include <algorithm>
#include <limits>

#include "plan/logical_plan.h"

namespace cloudviews {

void InstanceRing::Push(size_t job, double submit_time) {
  if (instances_.size() < kCapacity) {
    instances_.push_back({submit_time, job});
    return;
  }
  instances_[oldest_] = {submit_time, job};
  oldest_ = (oldest_ + 1) % kCapacity;
}

void InstanceRing::Clear() {
  std::vector<Instance>().swap(instances_);
  oldest_ = 0;
}

void InstanceRing::Renumber(const std::vector<size_t>& to) {
  for (Instance& inst : instances_) inst.job = to[inst.job];
}

MetricsBySignature WorkloadRepository::CollectMetrics(
    const std::vector<NodeSignature>& executed_sigs,
    const ExecutionStats& stats) {
  MetricsBySignature out;
  for (const NodeSignature& sig : executed_sigs) {
    if (sig.node == nullptr) continue;
    ObservedMetrics metrics;
    auto it = stats.per_node.find(sig.node);
    if (it != stats.per_node.end()) {
      metrics.rows = it->second.rows_out;
      metrics.bytes = it->second.bytes_out;
    }
    // Subtree cost: this node plus all descendants' observed costs.
    std::vector<const LogicalOp*> stack = {sig.node};
    while (!stack.empty()) {
      const LogicalOp* op = stack.back();
      stack.pop_back();
      auto node_it = stats.per_node.find(op);
      if (node_it != stats.per_node.end()) {
        metrics.subtree_cpu += node_it->second.cpu_cost;
      }
      for (const LogicalOpPtr& child : op->children) {
        stack.push_back(child.get());
      }
    }
    out[sig.strict] = metrics;
  }
  return out;
}

void WorkloadRepository::IngestJob(int64_t job_id,
                                   const std::string& virtual_cluster, int day,
                                   double submit_time,
                                   const std::vector<NodeSignature>& sigs,
                                   const MetricsBySignature& metrics) {
  const size_t job = JobOrdinal(job_id);
  for (const NodeSignature& sig : sigs) {
    // Single leaf operators are not interesting reuse units; the paper's
    // subexpressions are proper sub-plans. Keep size >= 2 (scan+op).
    if (sig.subtree_size < 2) continue;
    SubexpressionInstance instance;
    instance.strict_signature = sig.strict;
    instance.recurring_signature = sig.recurring;
    instance.job_id = job_id;
    instance.virtual_cluster = virtual_cluster;
    instance.day = day;
    instance.submit_time = submit_time;
    instance.subtree_size = sig.subtree_size;
    instance.eligible = sig.eligible;
    auto it = metrics.find(sig.strict);
    if (it != metrics.end()) {
      instance.rows = it->second.rows;
      instance.bytes = it->second.bytes;
      instance.cpu_cost = it->second.subtree_cpu;
      instance.has_metrics = true;
    } else {
      // Answered from a view (or otherwise skipped): counted, no metrics.
      instance.has_metrics = false;
    }
    AddInstance(instance, job, sig.node);
  }
}

void WorkloadRepository::Ingest(const SubexpressionInstance& instance,
                                const LogicalOp* node) {
  AddInstance(instance, JobOrdinal(instance.job_id), node);
}

size_t WorkloadRepository::JobOrdinal(int64_t job_id) {
  // Every live ordinal sits in some ring, so past this point more than half
  // of the ordinals are dead, and compacting (a walk over the groups, their
  // instances and the ordinals) costs at most a constant per ordinal it
  // drops.
  if (job_ids_.size() > 2 * (recent_instances_ + groups_.size())) {
    CompactJobOrdinals();
  }
  auto [it, inserted] = job_ordinals_.try_emplace(job_id, job_ids_.size());
  if (inserted) job_ids_.push_back(job_id);
  return it->second;
}

void WorkloadRepository::CompactJobOrdinals() {
  constexpr size_t kDropped = std::numeric_limits<size_t>::max();
  std::vector<size_t> to(job_ids_.size(), kDropped);
  for (const auto& [sig, group] : groups_) {
    group.recent_instances.ForEach(
        [&](const InstanceRing::Instance& inst) { to[inst.job] = 0; });
  }
  std::unordered_map<int64_t, size_t> ordinals;
  size_t next = 0;
  for (size_t job = 0; job < job_ids_.size(); ++job) {
    if (to[job] == kDropped) continue;
    to[job] = next;
    job_ids_[next] = job_ids_[job];
    ordinals.emplace(job_ids_[next], next);
    next += 1;
  }
  job_ids_.resize(next);
  job_ordinals_ = std::move(ordinals);
  for (auto& [sig, group] : groups_) group.recent_instances.Renumber(to);
}

void WorkloadRepository::AddInstance(const SubexpressionInstance& instance,
                                     size_t job, const LogicalOp* node) {
  total_instances_ += 1;

  DayOverlapStats& day_stats = by_day_[instance.day];
  day_stats.day = instance.day;
  day_stats.total_subexpressions += 1;

  auto it = groups_.find(instance.strict_signature);
  if (it == groups_.end()) {
    SubexpressionGroup group;
    group.strict_signature = instance.strict_signature;
    group.recurring_signature = instance.recurring_signature;
    group.subtree_size = instance.subtree_size;
    group.eligible = instance.eligible;
    group.first_day = instance.day;
    group.input_datasets =
        node != nullptr ? node->InputDatasets() : instance.input_datasets;
    it = groups_.emplace(instance.strict_signature, std::move(group)).first;
    group_list_.push_back(&it->second);
  } else {
    day_stats.repeated_subexpressions += 1;
  }
  SubexpressionGroup& group = it->second;
  group.occurrences += 1;
  if (instance.has_metrics) {
    group.total_cpu_cost += instance.cpu_cost;
    group.cost_samples += 1;
    group.last_rows = instance.rows;
    group.last_bytes = instance.bytes;
  }
  group.last_day = instance.day;
  group.eligible = group.eligible && instance.eligible;
  if (std::find(group.virtual_clusters.begin(), group.virtual_clusters.end(),
                instance.virtual_cluster) == group.virtual_clusters.end()) {
    group.virtual_clusters.push_back(instance.virtual_cluster);
  }
  const size_t held = group.recent_instances.size();
  group.recent_instances.Push(job, instance.submit_time);
  recent_instances_ += group.recent_instances.size() - held;
}

const SubexpressionGroup* WorkloadRepository::FindGroup(
    const Hash128& strict) const {
  auto it = groups_.find(strict);
  return it == groups_.end() ? nullptr : &it->second;
}

std::vector<const SubexpressionGroup*> WorkloadRepository::AllGroups() const {
  std::vector<const SubexpressionGroup*> out;
  out.reserve(groups_.size());
  for (const auto& [sig, group] : groups_) out.push_back(&group);
  return out;
}

std::vector<verify::RepositoryGroup> WorkloadRepository::AuditGroups() const {
  std::vector<verify::RepositoryGroup> out;
  out.reserve(groups_.size());
  for (const auto& [sig, group] : groups_) {
    out.push_back({group.strict_signature, group.recurring_signature,
                   group.subtree_size, group.occurrences, group.cost_samples,
                   group.first_day, group.last_day});
  }
  return out;
}

std::vector<DayOverlapStats> WorkloadRepository::OverlapByDay() const {
  std::vector<DayOverlapStats> out;
  out.reserve(by_day_.size());
  for (const auto& [day, stats] : by_day_) out.push_back(stats);
  return out;
}

double WorkloadRepository::AverageRepeatFrequency() const {
  if (groups_.empty()) return 0.0;
  return static_cast<double>(total_instances_) /
         static_cast<double>(groups_.size());
}

double WorkloadRepository::PercentRepeated() const {
  if (total_instances_ == 0) return 0.0;
  int64_t in_repeated_groups = 0;
  for (const auto& [sig, group] : groups_) {
    if (group.occurrences > 1) in_repeated_groups += group.occurrences;
  }
  return 100.0 * static_cast<double>(in_repeated_groups) /
         static_cast<double>(total_instances_);
}

Status WorkloadRepository::RestoreGroup(SubexpressionGroup group) {
  if (groups_.count(group.strict_signature) > 0) {
    return Status::AlreadyExists("group already present: " +
                                 group.strict_signature.ToHex());
  }
  if (!group.recent_instances.empty()) {
    // Its ordinals would index another repository's jobs.
    return Status::InvalidArgument("restored group carries instances: " +
                                   group.strict_signature.ToHex());
  }
  const int64_t room = std::numeric_limits<int64_t>::max() - total_instances_;
  if (group.occurrences < 1 || group.occurrences > room ||
      group.cost_samples < 0 || group.cost_samples > group.occurrences) {
    return Status::Corruption("impossible instance counts for group " +
                              group.strict_signature.ToHex());
  }
  total_instances_ += group.occurrences;
  Hash128 key = group.strict_signature;
  group_list_.push_back(&groups_.emplace(key, std::move(group)).first->second);
  return Status::OK();
}

Status WorkloadRepository::RestoreDayStats(const DayOverlapStats& stats) {
  if (by_day_.count(stats.day) > 0) {
    return Status::AlreadyExists("day already present: " +
                                 std::to_string(stats.day));
  }
  by_day_[stats.day] = stats;
  return Status::OK();
}

void WorkloadRepository::TrimInstancesBefore(int keep_after_day) {
  for (auto& [sig, group] : groups_) {
    if (group.last_day < keep_after_day) {
      recent_instances_ -= group.recent_instances.size();
      group.recent_instances.Clear();
    }
  }
}

}  // namespace cloudviews
