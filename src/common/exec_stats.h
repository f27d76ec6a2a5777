#ifndef CLOUDVIEWS_COMMON_EXEC_STATS_H_
#define CLOUDVIEWS_COMMON_EXEC_STATS_H_

#include <cstdint>
#include <unordered_map>

namespace cloudviews {

class LogicalOp;

// Per-operator runtime statistics, keyed back to the logical node that the
// physical operator implements. These feed the workload repository (the
// "denormalized subexpressions table that pre-joins the logical query
// subexpressions with their runtime metrics").
struct OperatorStats {
  uint64_t rows_out = 0;
  uint64_t bytes_out = 0;
  double cpu_cost = 0.0;  // abstract cost units; the cluster simulator
                          // converts these to container-seconds
};

// Whole-job execution statistics.
struct ExecutionStats {
  // Base dataset scans only — the paper's "input size" metric (Figure 7b).
  uint64_t input_rows = 0;
  uint64_t input_bytes = 0;
  // Materialized-view scans (replacing recomputation).
  uint64_t view_rows = 0;
  uint64_t view_bytes = 0;
  // All reads: inputs + views + internal shuffles — "data read" (Figure 7c).
  uint64_t total_bytes_read = 0;
  // Bytes written to CloudViews by spool operators in this job.
  uint64_t bytes_spooled = 0;
  // Abstract CPU cost of the whole job ("processing time" raw material).
  double total_cpu_cost = 0.0;
  // Extra CPU spent feeding spool materialization (the first-job overhead).
  double spool_cpu_cost = 0.0;
  // Number of operators executed.
  int num_operators = 0;
  // Measured wall time of the whole Execute call. Observation only: no
  // decision and no simulated figure reads it.
  double wall_seconds = 0.0;

  std::unordered_map<const LogicalOp*, OperatorStats> per_node;
};

// Relative CPU weights of operator work items. Tuned so that a typical
// cooked-dataset job spends most of its cost in scans and joins, matching
// the shape of SCOPE jobs ("widest at the beginning").
struct CostWeights {
  static constexpr double kScanRow = 1.0;
  static constexpr double kScanByte = 0.01;
  static constexpr double kFilterRow = 0.3;
  static constexpr double kProjectRow = 0.3;
  static constexpr double kHashBuildRow = 1.2;
  static constexpr double kHashProbeRow = 0.8;
  static constexpr double kMergeRow = 0.6;
  static constexpr double kSortRowLog = 0.4;  // per row per log2(rows)
  static constexpr double kLoopJoinPair = 0.2;
  static constexpr double kAggRow = 1.0;
  static constexpr double kSpoolRow = 0.5;
  static constexpr double kSpoolByte = 0.02;  // write amplification
  static constexpr double kViewScanByte = 0.008;  // sequential, pre-cooked
};

}  // namespace cloudviews

#endif  // CLOUDVIEWS_COMMON_EXEC_STATS_H_
