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
  // Recent instances (job id + submit time), used by schedule-aware
  // selection to detect concurrent submissions.
  std::vector<std::pair<int64_t, double>> recent_instances;

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

  const SubexpressionGroup* FindGroup(const Hash128& strict) const;

  // All groups with at least `min_occurrences` instances — the raw common
  // subexpressions.
  std::vector<const SubexpressionGroup*> CommonSubexpressions(
      int64_t min_occurrences = 2) const;

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

  // Installs a fully-aggregated group; fails if its signature exists.
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
  std::unordered_map<Hash128, SubexpressionGroup, Hash128Hasher> groups_;
  std::map<int, DayOverlapStats> by_day_;
  int64_t total_instances_ = 0;
  GeneralizedViewIndex generalized_index_;
};

}  // namespace cloudviews

#endif  // CLOUDVIEWS_CORE_WORKLOAD_REPOSITORY_H_
