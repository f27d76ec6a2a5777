#ifndef CLOUDVIEWS_CORE_WORKLOAD_REPOSITORY_H_
#define CLOUDVIEWS_CORE_WORKLOAD_REPOSITORY_H_

#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/exec_stats.h"
#include "common/hash.h"
#include "plan/signature.h"
#include "plan/view_index.h"
#include "verify/signature_auditor.h"

namespace cloudviews {

// One observed subexpression instance: a row of the denormalized
// "query subexpressions table with runtime features" from Figure 5. The
// repository pre-joins logical subexpressions with the runtime metrics of
// the jobs that executed them.
struct SubexpressionInstance {
  Hash128 strict_signature;
  Hash128 recurring_signature;
  int64_t job_id = 0;
  std::string virtual_cluster;
  int day = 0;               // simulation day the job ran
  double submit_time = 0.0;  // sim time the enclosing job was submitted
  size_t subtree_size = 1;   // operators in the subexpression
  bool eligible = true;      // reuse-eligible per signature guards
  // Observed runtime features of this subexpression's root operator. Set
  // only when the subexpression actually executed in this job (a matched
  // view replaces execution: the instance is still counted, but carries no
  // fresh metrics).
  bool has_metrics = true;
  uint64_t rows = 0;
  uint64_t bytes = 0;
  double cpu_cost = 0.0;     // cost of computing the whole subtree
  std::vector<std::string> input_datasets;
};

// Observed runtime metrics of one executed subexpression, keyed by strict
// signature (how the denormalized table pre-joins plans with runtime data).
struct ObservedMetrics {
  uint64_t rows = 0;
  uint64_t bytes = 0;
  double subtree_cpu = 0.0;
};
using MetricsBySignature =
    std::unordered_map<Hash128, ObservedMetrics, Hash128Hasher>;

// A group's last kCapacity instances, oldest first: each instance's job
// ordinal (WorkloadRepository::job_id maps it back to the job id) and submit
// time. Once full, a new instance overwrites the oldest in place.
class InstanceRing {
 public:
  static constexpr size_t kCapacity = 64;

  struct Instance {
    double submit_time = 0.0;
    size_t job = 0;
  };

  size_t size() const { return instances_.size(); }
  bool empty() const { return instances_.empty(); }
  // Instances the storage has room for; 0 after Clear.
  size_t capacity() const { return instances_.capacity(); }

  void Push(size_t job, double submit_time);
  // Drops every instance and frees the storage.
  void Clear();
  // Replaces each instance's job ordinal j by to[j].
  void Renumber(const std::vector<size_t>& to);

  // Calls f(const Instance&) for each instance, oldest first.
  template <typename F>
  void ForEach(F&& f) const {
    for (size_t i = oldest_; i < instances_.size(); ++i) f(instances_[i]);
    for (size_t i = 0; i < oldest_; ++i) f(instances_[i]);
  }

 private:
  std::vector<Instance> instances_;
  size_t oldest_ = 0;  // where the oldest instance is once the ring is full
};

// Aggregated history for one strict signature.
struct SubexpressionGroup {
  Hash128 strict_signature;
  Hash128 recurring_signature;
  int64_t occurrences = 0;
  size_t subtree_size = 1;
  bool eligible = true;
  double total_cpu_cost = 0.0;
  int64_t cost_samples = 0;  // instances that carried fresh metrics
  uint64_t last_rows = 0;
  uint64_t last_bytes = 0;
  int first_day = 0;
  int last_day = 0;
  std::vector<std::string> input_datasets;
  // Distinct virtual clusters that executed it (per-VC selection needs this).
  std::vector<std::string> virtual_clusters;
  // Recent instances, used by schedule-aware selection to detect concurrent
  // submissions and by BigSubs to find the jobs a view would serve.
  InstanceRing recent_instances;

  double AvgCpuCost() const {
    return cost_samples > 0 ? total_cpu_cost / static_cast<double>(cost_samples)
                            : 0.0;
  }
};

// Per-day overlap statistics (drives Figure 3).
struct DayOverlapStats {
  int day = 0;
  int64_t total_subexpressions = 0;
  int64_t repeated_subexpressions = 0;  // seen before (any earlier instance)
  double PercentRepeated() const {
    return total_subexpressions > 0
               ? 100.0 * static_cast<double>(repeated_subexpressions) /
                     static_cast<double>(total_subexpressions)
               : 0.0;
  }
};

// The workload repository: ingests every executed job's subexpressions and
// answers the analysis queries CloudViews needs (overlap rates, repeat
// frequencies, candidate groups).
class WorkloadRepository {
 public:
  WorkloadRepository() = default;

  WorkloadRepository(const WorkloadRepository&) = delete;
  WorkloadRepository& operator=(const WorkloadRepository&) = delete;

  // Joins executed-plan signatures with runtime statistics, producing the
  // metrics table to pass to IngestJob.
  static MetricsBySignature CollectMetrics(
      const std::vector<NodeSignature>& executed_sigs,
      const ExecutionStats& stats);

  // Ingests the subexpressions of one job. `sigs` comes from
  // SignatureComputer::ComputeAll over the job's *pre-reuse* (as-compiled)
  // logical plan — subexpressions answered from views still count as
  // occurrences. `metrics` carries observed runtime features for the
  // subexpressions that executed (from CollectMetrics).
  void IngestJob(int64_t job_id, const std::string& virtual_cluster, int day,
                 double submit_time, const std::vector<NodeSignature>& sigs,
                 const MetricsBySignature& metrics);

  // Ingests a single pre-assembled instance (used by tests and generators).
  // A new group takes its input datasets from `node` when given (IngestJob
  // passes the compiled node, so only a new group walks its subtree), else
  // from the instance.
  void Ingest(const SubexpressionInstance& instance,
              const LogicalOp* node = nullptr);

  int64_t total_instances() const { return total_instances_; }
  size_t num_groups() const { return groups_.size(); }

  // Job ids have dense ordinals in [0, num_jobs()), in order of first
  // appearance; instance histories hold ordinals, so selection can keep
  // per-job state in a flat array. Once the ordinals outnumber twice the
  // groups and recent instances together, the next ingest renumbers the
  // jobs some recent instance still holds, in order, and forgets the rest,
  // so num_jobs() stays within about twice the retained history.
  size_t num_jobs() const { return job_ids_.size(); }
  int64_t job_id(size_t ordinal) const { return job_ids_[ordinal]; }

  const SubexpressionGroup* FindGroup(const Hash128& strict) const;

  // Every group in the order it was first ingested or restored. Walking this
  // list does not chase the hash table's node chain.
  const std::vector<const SubexpressionGroup*>& groups() const {
    return group_list_;
  }

  // Every group in hash-table order, the order snapshots are written in.
  std::vector<const SubexpressionGroup*> AllGroups() const;

  // Every group flattened to the signature auditor's audit view. The
  // auditor sits below core in the module DAG, so the repository feeds it
  // plain values rather than itself.
  std::vector<verify::RepositoryGroup> AuditGroups() const;

  // Per-day overlap series (Figure 3 left); days with no activity are
  // omitted.
  std::vector<DayOverlapStats> OverlapByDay() const;

  // Average repeat frequency = instances / distinct signatures (Figure 3
  // right), over the whole retained window.
  double AverageRepeatFrequency() const;

  // Fraction of all instances whose signature occurs more than once.
  double PercentRepeated() const;

  // Frees per-instance detail older than `keep_after_day` while keeping
  // aggregates (production repositories are windowed).
  void TrimInstancesBefore(int keep_after_day);

  // --- Snapshot restore (see core/repository_io.h) -------------------------

  // Installs a fully-aggregated group without instance history; fails if
  // its signature exists, it carries recent instances, or its counts are
  // impossible (no instance, more cost samples than instances, or an
  // instance total past int64).
  Status RestoreGroup(SubexpressionGroup group);
  // Installs one day's overlap counters; fails if the day exists.
  Status RestoreDayStats(const DayOverlapStats& stats);

  // Candidate index for generalized matching: spooled view definitions keyed
  // by match class + stage-1 features. Lives with the repository because it
  // is workload metadata about materialized subexpressions; serialized by
  // the same caller discipline as the rest of this class.
  GeneralizedViewIndex& generalized_index() { return generalized_index_; }
  const GeneralizedViewIndex& generalized_index() const {
    return generalized_index_;
  }

 private:
  // The ordinal of `job_id`, assigned on first sight.
  size_t JobOrdinal(int64_t job_id);
  // Renumbers the jobs some recent instance holds, keeping their order, and
  // forgets the others.
  void CompactJobOrdinals();
  void AddInstance(const SubexpressionInstance& instance, size_t job,
                   const LogicalOp* node);

  std::unordered_map<Hash128, SubexpressionGroup, Hash128Hasher> groups_;
  std::vector<const SubexpressionGroup*> group_list_;  // creation order
  std::vector<int64_t> job_ids_;                       // by ordinal
  std::unordered_map<int64_t, size_t> job_ordinals_;   // by job id
  size_t recent_instances_ = 0;                        // in all the rings
  std::map<int, DayOverlapStats> by_day_;
  int64_t total_instances_ = 0;
  GeneralizedViewIndex generalized_index_;
};

}  // namespace cloudviews

#endif  // CLOUDVIEWS_CORE_WORKLOAD_REPOSITORY_H_
