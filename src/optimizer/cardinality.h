#ifndef CLOUDVIEWS_OPTIMIZER_CARDINALITY_H_
#define CLOUDVIEWS_OPTIMIZER_CARDINALITY_H_

#include "plan/logical_plan.h"
#include "storage/catalog.h"

namespace cloudviews {

// Heuristic cardinality estimation (System-R style selectivities). Big-data
// engines notoriously overestimate intermediate cardinalities, which leads
// to over-partitioning and container waste (paper section 3.5); the
// `overestimation_factor` models that bias and is applied at every join.
// Estimates are written into each node's `estimated_rows`/`estimated_bytes`
// annotation unless the node already carries statistics fed back from a
// materialized view (stats_from_view), which are trusted as observed truth.
struct CardinalityOptions {
  double filter_selectivity = 0.25;    // per conjunct
  double join_key_selectivity = 0.01;  // per equi-key pair
  double udo_default_selectivity = 1.0;
  double overestimation_factor = 1.6;  // applied per join
};

class CardinalityEstimator {
 public:
  using Options = CardinalityOptions;

  explicit CardinalityEstimator(const DatasetCatalog* catalog,
                                Options options = {})
      : catalog_(catalog), options_(options) {}

  // Annotates the whole plan bottom-up; returns the root estimate.
  double Annotate(LogicalOp* node) const;

  // Annotates `node` alone from its children's estimates (a path copy's new
  // parent); returns its estimate.
  double AnnotateNode(LogicalOp* node) const;

  const Options& options() const { return options_; }

 private:
  double EstimateNode(const LogicalOp& node) const;
  static int CountConjuncts(const ExprPtr& predicate);

  const DatasetCatalog* catalog_;
  Options options_;
};

}  // namespace cloudviews

#endif  // CLOUDVIEWS_OPTIMIZER_CARDINALITY_H_
