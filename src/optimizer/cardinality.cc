#include "optimizer/cardinality.h"

#include <algorithm>
#include <cmath>

namespace cloudviews {

int CardinalityEstimator::CountConjuncts(const ExprPtr& predicate) {
  if (predicate == nullptr) return 0;
  if (predicate->kind == ExprKind::kBinary &&
      predicate->binary_op == sql::BinaryOp::kAnd) {
    return CountConjuncts(predicate->children[0]) +
           CountConjuncts(predicate->children[1]);
  }
  return 1;
}

double CardinalityEstimator::Annotate(LogicalOp* node) const {
  // Children are always annotated — even under a node with observed
  // statistics, the physical-operator choices below need their estimates.
  for (const LogicalOpPtr& child : node->children) Annotate(child.get());
  return AnnotateNode(node);
}

double CardinalityEstimator::AnnotateNode(LogicalOp* node) const {
  if (node->stats_from_view && node->estimated_rows > 0) {
    // Observed statistics (from a materialized view or a cardinality
    // micro-model) are authoritative; do not overwrite with estimates.
    return node->estimated_rows;
  }
  double rows = EstimateNode(*node);
  node->estimated_rows = rows;
  // Rough bytes estimate: 16 bytes per column per row.
  node->estimated_bytes =
      rows * 16.0 * static_cast<double>(
                        std::max<size_t>(1, node->output_schema.num_columns()));
  return rows;
}

double CardinalityEstimator::EstimateNode(const LogicalOp& node) const {
  const auto child_rows = [&node](size_t i) {
    return node.children[i]->estimated_rows;
  };
  switch (node.kind) {
    case LogicalOpKind::kScan: {
      auto dataset = catalog_ != nullptr ? catalog_->Lookup(node.dataset_name)
                                         : Status::NotFound("no catalog");
      if (dataset.ok()) {
        return static_cast<double>(dataset->table->num_rows());
      }
      return 1000.0;  // default guess for unknown inputs
    }
    case LogicalOpKind::kViewScan:
      // ViewScan estimates are installed by the view matcher from observed
      // statistics; if absent, assume a cooked (reduced) dataset.
      return node.estimated_rows > 0 ? node.estimated_rows : 100.0;
    case LogicalOpKind::kSharedScan:
      // SharedScan estimates are inherited from the replaced subtree by the
      // sharing rewrite; if absent, fall back to the view-scan guess.
      return node.estimated_rows > 0 ? node.estimated_rows : 100.0;
    case LogicalOpKind::kFilter: {
      int conjuncts = CountConjuncts(node.predicate);
      double sel = std::pow(options_.filter_selectivity,
                            std::max(1, conjuncts));
      return std::max(1.0, child_rows(0) * sel);
    }
    case LogicalOpKind::kProject:
      return child_rows(0);
    case LogicalOpKind::kJoin: {
      double cross = child_rows(0) * child_rows(1);
      double sel = 1.0;
      for (size_t i = 0; i < node.equi_keys.size(); ++i) {
        sel *= options_.join_key_selectivity;
      }
      if (node.predicate != nullptr) {
        sel *= std::pow(options_.filter_selectivity,
                        CountConjuncts(node.predicate));
      }
      double rows = std::max(1.0, cross * sel);
      // Over-partitioning bias: the engine habitually overestimates join
      // outputs, instantiating more containers than needed.
      rows *= options_.overestimation_factor;
      if (node.join_kind == sql::JoinKind::kLeft) {
        rows = std::max(rows, child_rows(0));
      }
      return rows;
    }
    case LogicalOpKind::kAggregate: {
      if (node.group_by.empty()) return 1.0;
      // Square-root heuristic for the number of groups.
      return std::max(1.0, std::sqrt(child_rows(0)) *
                               static_cast<double>(node.group_by.size()));
    }
    case LogicalOpKind::kSort:
      return child_rows(0);
    case LogicalOpKind::kLimit:
      return std::min(child_rows(0), static_cast<double>(node.limit));
    case LogicalOpKind::kUnionAll: {
      double total = 0.0;
      for (const LogicalOpPtr& child : node.children) {
        total += child->estimated_rows;
      }
      return total;
    }
    case LogicalOpKind::kUdo: {
      double sel = node.udo_selectivity > 0
                       ? node.udo_selectivity
                       : options_.udo_default_selectivity;
      return std::max(1.0, child_rows(0) * sel);
    }
    case LogicalOpKind::kSpool:
      return child_rows(0);
  }
  return 1.0;
}

}  // namespace cloudviews
