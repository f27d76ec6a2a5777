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
};

class CostModel {
 public:
  using Options = CostModelOptions;

  explicit CostModel(Options options = {}) : options_(options) {}

  // Estimated cost of the subtree rooted at `node` (inclusive). This is
  // total work, independent of parallelism: the one currency every reuse
  // saving and every simulated stage is priced in.
  double SubtreeCost(const LogicalOp& node) const;

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
