#ifndef CLOUDVIEWS_OPTIMIZER_COST_MODEL_H_
#define CLOUDVIEWS_OPTIMIZER_COST_MODEL_H_

#include "plan/logical_plan.h"

namespace cloudviews {

// Estimated-cost model over annotated plans (requires estimated_rows to be
// filled in by the CardinalityEstimator). Costs are in the same abstract
// units the executor reports, so estimated and observed costs compare
// directly. Also picks physical join algorithms.
struct CostModelOptions {
  // Row-count threshold below which a nested-loop join beats building a
  // hash table.
  double loop_join_threshold = 32.0;
  // Build-side threshold above which merge join beats hash join (models a
  // memory budget on the hash table in each container).
  double hash_build_limit = 200000.0;
  // Degree of parallelism the executor will run the plan at; feeds the
  // latency estimate (SubtreeLatencyCost). 1 = serial.
  int dop = 1;
  // Fraction of the work that morsel-parallelizes (Amdahl's law). Barriers
  // — hash-table publication, aggregate merge, the serial partition pass —
  // make up the rest.
  double parallel_fraction = 0.9;
  // Morsel size and per-morsel scheduling overhead (cost units): finer
  // morsels balance better but pay more queue traffic.
  double morsel_rows = 4096.0;
  double morsel_overhead = 2.0;
};

class CostModel {
 public:
  using Options = CostModelOptions;

  explicit CostModel(Options options = {}) : options_(options) {}

  // Estimated cost of the subtree rooted at `node` (inclusive). This is
  // total work, independent of parallelism.
  double SubtreeCost(const LogicalOp& node) const;

  // Estimated latency-equivalent cost of executing the subtree at
  // options.dop: Amdahl's law over parallel_fraction plus a per-morsel
  // scheduling charge. Equals SubtreeCost exactly at dop = 1, so serial
  // plan comparisons are unchanged.
  double SubtreeLatencyCost(const LogicalOp& node) const;

  // Cost of reading a materialized copy of this subexpression instead of
  // recomputing it (`observed_bytes` from the view's statistics).
  double ViewScanCost(double observed_rows, double observed_bytes) const;

  // Chooses a join's join_algorithm from its children's estimates (a no-op
  // for other operators).
  void ChooseJoinAlgorithm(LogicalOp* node) const;

 private:
  double NodeCost(const LogicalOp& node) const;

  Options options_;
};

}  // namespace cloudviews

#endif  // CLOUDVIEWS_OPTIMIZER_COST_MODEL_H_
