#include "optimizer/cost_model.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/exec_stats.h"

namespace cloudviews {

double CostModel::NodeCost(const LogicalOp& node) const {
  double rows = std::max(1.0, node.estimated_rows);
  double bytes = std::max(1.0, node.estimated_bytes);
  switch (node.kind) {
    case LogicalOpKind::kScan:
      return rows * CostWeights::kScanRow + bytes * CostWeights::kScanByte;
    case LogicalOpKind::kViewScan:
      return rows * CostWeights::kScanRow +
             bytes * CostWeights::kViewScanByte;
    case LogicalOpKind::kSharedScan:
      // Consuming forwarded batches costs like reading a materialized view:
      // the producer's compute is attributed to the producer pipeline.
      return rows * CostWeights::kScanRow +
             bytes * CostWeights::kViewScanByte;
    case LogicalOpKind::kFilter:
      return std::max(1.0, node.children[0]->estimated_rows) *
             CostWeights::kFilterRow;
    case LogicalOpKind::kProject:
      return std::max(1.0, node.children[0]->estimated_rows) *
             CostWeights::kProjectRow;
    case LogicalOpKind::kJoin: {
      double left = std::max(1.0, node.children[0]->estimated_rows);
      double right = std::max(1.0, node.children[1]->estimated_rows);
      switch (node.join_algorithm) {
        case JoinAlgorithm::kHash:
          return right * CostWeights::kHashBuildRow +
                 left * CostWeights::kHashProbeRow;
        case JoinAlgorithm::kMerge:
          return CostWeights::kSortRowLog *
                     (left * std::log2(left + 2.0) +
                      right * std::log2(right + 2.0)) +
                 (left + right) * CostWeights::kMergeRow;
        case JoinAlgorithm::kLoop:
          return left * right * CostWeights::kLoopJoinPair;
      }
      return left * right;
    }
    case LogicalOpKind::kAggregate:
      return std::max(1.0, node.children[0]->estimated_rows) *
             CostWeights::kAggRow;
    case LogicalOpKind::kSort: {
      double n = std::max(1.0, node.children[0]->estimated_rows);
      return CostWeights::kSortRowLog * n * std::log2(n + 2.0);
    }
    case LogicalOpKind::kLimit:
      return 1.0;
    case LogicalOpKind::kUnionAll:
      return rows * 0.1;
    case LogicalOpKind::kUdo:
      return std::max(1.0, node.children[0]->estimated_rows) *
             node.udo_cost_per_row;
    case LogicalOpKind::kSpool:
      return rows * CostWeights::kSpoolRow + bytes * CostWeights::kSpoolByte;
  }
  return rows;
}

double CostModel::SubtreeCost(const LogicalOp& node) const {
  double total = NodeCost(node);
  for (const LogicalOpPtr& child : node.children) {
    total += SubtreeCost(*child);
  }
  return total;
}

double CostModel::ViewScanCost(double observed_rows,
                               double observed_bytes) const {
  return std::max(1.0, observed_rows) * CostWeights::kScanRow +
         std::max(1.0, observed_bytes) * CostWeights::kViewScanByte;
}

void CostModel::ChooseJoinAlgorithm(LogicalOp* node) const {
  if (node->kind != LogicalOpKind::kJoin) return;
  if (node->equi_keys.empty()) {
    node->join_algorithm = JoinAlgorithm::kLoop;
    return;
  }
  // Cost-based choice using the same formulas as NodeCost.
  double left = std::max(1.0, node->children[0]->estimated_rows);
  double right = std::max(1.0, node->children[1]->estimated_rows);
  double loop_cost = left * right * CostWeights::kLoopJoinPair;
  double hash_cost = right * CostWeights::kHashBuildRow +
                     left * CostWeights::kHashProbeRow;
  // A bounded hash-table memory budget per container disqualifies hash
  // joins with huge build sides (they spill; merge wins).
  if (right > options_.hash_build_limit) {
    hash_cost = std::numeric_limits<double>::infinity();
  }
  double merge_cost = CostWeights::kSortRowLog *
                          (left * std::log2(left + 2.0) +
                           right * std::log2(right + 2.0)) +
                      (left + right) * CostWeights::kMergeRow;
  if (std::min(left, right) > options_.loop_join_threshold) {
    loop_cost = std::numeric_limits<double>::infinity();
  }
  if (loop_cost <= hash_cost && loop_cost <= merge_cost) {
    node->join_algorithm = JoinAlgorithm::kLoop;
  } else if (hash_cost <= merge_cost) {
    node->join_algorithm = JoinAlgorithm::kHash;
  } else {
    node->join_algorithm = JoinAlgorithm::kMerge;
  }
}

}  // namespace cloudviews
