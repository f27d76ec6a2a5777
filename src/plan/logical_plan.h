#ifndef CLOUDVIEWS_PLAN_LOGICAL_PLAN_H_
#define CLOUDVIEWS_PLAN_LOGICAL_PLAN_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/hash.h"
#include "plan/expr.h"
#include "storage/schema.h"

namespace cloudviews {

enum class LogicalOpKind {
  kScan,       // read a named (GUID-versioned) dataset
  kViewScan,   // read a previously materialized CloudView (optimizer-added)
  kFilter,
  kProject,
  kJoin,
  kAggregate,
  kSort,
  kLimit,
  kUnionAll,
  kUdo,        // user-defined operator: opaque per-row transform
  kSpool,      // dual-consumer spool (optimizer-added for materialization)
  kSharedScan, // subscribe to an in-flight shared producer (sharing-added)
};

const char* LogicalOpKindName(LogicalOpKind kind);

enum class AggFunc { kCountStar, kCount, kSum, kAvg, kMin, kMax };

const char* AggFuncName(AggFunc func);

struct AggregateSpec {
  AggFunc func = AggFunc::kCountStar;
  ExprPtr arg;  // null for COUNT(*)
  bool distinct = false;
  std::string output_name;
};

// Physical join implementation, chosen by the optimizer. Lives on the
// logical node because this engine (like SCOPE's memo output) hands a single
// annotated plan to the executor.
enum class JoinAlgorithm { kHash, kMerge, kLoop };

const char* JoinAlgorithmName(JoinAlgorithm algorithm);

struct SortKey {
  ExprPtr expr;
  bool ascending = true;
};

class LogicalOp;
using LogicalOpPtr = std::shared_ptr<LogicalOp>;

// A node of the logical plan DAG. Nodes are built by the plan builder,
// rewritten by the optimizer, and interpreted by the executor. Fields are
// grouped by the operator kinds that use them.
//
// A compiled plan is sealed (DESIGN.md "Sealed plans"): every node carries
// its signature, the optimizer annotates the freshly bound nodes once, and
// from then on no node changes. Rewrites copy the path to the root and share
// every untouched subtree, so one node may sit in several plans at once.
class LogicalOp {
 public:
  LogicalOpKind kind = LogicalOpKind::kScan;
  std::vector<LogicalOpPtr> children;
  Schema output_schema;

  // kScan.
  std::string dataset_name;
  std::string dataset_guid;   // version at bind time; part of strict signature
  // Column pruning: when non-empty, the scan emits only these columns (by
  // ordinal in the dataset's schema) and output_schema matches. Part of the
  // signature — scans of different column subsets are different
  // subexpressions.
  std::vector<int> scan_columns;

  // kViewScan: signatures of the subexpression the view replaces. Carrying
  // both makes the view scan signature-transparent — operators above it hash
  // exactly as they did over the original subtree, so larger candidates can
  // still match or materialize on top of a reused view.
  // kSpool: view_signature is the strict signature being materialized.
  // kSharedScan: signatures of the shared subexpression being subscribed to
  // (same transparency contract as kViewScan).
  Hash128 view_signature;
  Hash128 view_recurring_signature;
  std::string view_path;

  // kSharedScan only: a spool-free copy of the subtree this subscription
  // replaced. NOT a child — it stays invisible to children-based traversals
  // (signatures, verification, costing) and is executed independently only
  // when the subscriber detaches (producer abort / batch-wait timeout).
  LogicalOpPtr shared_fallback_plan;

  // kFilter; also kJoin residual condition.
  ExprPtr predicate;

  // kProject. projections.size() == output_schema.num_columns().
  std::vector<ExprPtr> projections;

  // kJoin.
  sql::JoinKind join_kind = sql::JoinKind::kInner;
  JoinAlgorithm join_algorithm = JoinAlgorithm::kHash;
  // Equi-join key ordinals extracted from the condition (left-child ordinal,
  // right-child ordinal pairs). Empty => pure theta/cross join (loop only).
  std::vector<std::pair<int, int>> equi_keys;

  // kAggregate.
  std::vector<ExprPtr> group_by;
  std::vector<AggregateSpec> aggregates;

  // kSort.
  std::vector<SortKey> sort_keys;

  // kLimit.
  int64_t limit = -1;

  // kUdo. UDOs are opaque: the engine cannot see inside them, matching the
  // paper's discussion of signature correctness for user code.
  std::string udo_name;
  bool udo_deterministic = true;
  int udo_dependency_depth = 0;   // library dependency chain length
  double udo_cost_per_row = 1.0;  // relative CPU weight
  // Simulated behaviour of the opaque transform: keep a row with this
  // probability (selectivity) — deterministic pseudo-random on row hash.
  double udo_selectivity = 1.0;

  // Annotations filled by the optimizer.
  double estimated_rows = 0.0;
  double estimated_bytes = 0.0;
  bool stats_from_view = false;  // statistics were fed back from a view

  // Sealed signature, written by SignatureComputer::Seal from the children's
  // sealed values: what SignatureComputer::ComputeAll reports for this node.
  // subtree_size 0 means the node is not sealed.
  Hash128 strict_signature;
  Hash128 recurring_signature;
  bool eligible = false;
  size_t subtree_size = 0;

  bool sealed() const { return subtree_size != 0; }

  // --- Factory helpers -----------------------------------------------------
  static LogicalOpPtr Scan(std::string dataset_name, std::string guid,
                           Schema schema);
  static LogicalOpPtr ViewScan(Hash128 signature, std::string path,
                               Schema schema);
  static LogicalOpPtr Filter(LogicalOpPtr child, ExprPtr predicate);
  static LogicalOpPtr Project(LogicalOpPtr child, std::vector<ExprPtr> exprs,
                              std::vector<std::string> names);
  static LogicalOpPtr Join(LogicalOpPtr left, LogicalOpPtr right,
                           sql::JoinKind kind, ExprPtr condition);
  static LogicalOpPtr Aggregate(LogicalOpPtr child, std::vector<ExprPtr> keys,
                                std::vector<AggregateSpec> aggs);
  static LogicalOpPtr Sort(LogicalOpPtr child, std::vector<SortKey> keys);
  static LogicalOpPtr Limit(LogicalOpPtr child, int64_t n);
  static LogicalOpPtr UnionAll(std::vector<LogicalOpPtr> children);
  static LogicalOpPtr Udo(LogicalOpPtr child, std::string name,
                          bool deterministic, int dependency_depth,
                          double selectivity = 1.0, double cost_per_row = 1.0);
  static LogicalOpPtr Spool(LogicalOpPtr child);
  static LogicalOpPtr SharedScan(Hash128 signature, Hash128 recurring,
                                 Schema schema, LogicalOpPtr fallback);

  // Number of operators in the subtree rooted here.
  size_t TreeSize() const;

  // Collects base dataset names read by this subtree (sorted, deduplicated).
  std::vector<std::string> InputDatasets() const;

  // Deep structural copy (expressions are shared; they are immutable).
  LogicalOpPtr Clone() const;

  // A copy of this one node over `children`: every other field, sealed
  // signature and annotations included, is carried over. Re-seal the copy
  // (SignatureComputer::Seal) unless the children it gained or lost are
  // spools, which signatures and estimates see through.
  LogicalOpPtr WithChildren(std::vector<LogicalOpPtr> children) const;

  std::string ToString(int indent = 0) const;
};

// Path-copy rewrite. Visits the subtree under `root` bottom-up and calls
// `rewrite(original, rebuilt)` at every node: `rebuilt` is `original` itself
// while none of its children changed, else a WithChildren copy over the
// rewritten children. What `rewrite` returns takes the node's place in its
// parent. Untouched subtrees come back as the same pointers, so the input
// plan is never written.
using PathRewriteFn = std::function<LogicalOpPtr(const LogicalOpPtr& original,
                                                 LogicalOpPtr rebuilt)>;
LogicalOpPtr RewritePaths(const LogicalOpPtr& root,
                          const PathRewriteFn& rewrite);

// Extracts equi-join key pairs from `condition` given the left child's output
// arity. Returns residual predicate parts that are not simple equality
// conjuncts (nullptr when fully consumed).
struct JoinConditionParts {
  std::vector<std::pair<int, int>> equi_keys;
  ExprPtr residual;
};
JoinConditionParts SplitJoinCondition(const ExprPtr& condition,
                                      size_t left_arity);

}  // namespace cloudviews

#endif  // CLOUDVIEWS_PLAN_LOGICAL_PLAN_H_
