#include "verify/plan_verifier.h"

#include <algorithm>

#include "verify/verify.h"

namespace cloudviews {
namespace verify {

namespace {

Status Corrupt(const LogicalOp& node, const std::string& path,
               const std::string& detail) {
  return Status::Corruption(NodePath(LogicalOpKindName(node.kind), path) +
                            ": " + detail);
}

// Wildcard-aware type equality: kNull means "unknown/any" (semi-structured
// extraction semantics), so it is compatible with everything.
bool TypesCompatible(DataType a, DataType b) {
  return a == b || a == DataType::kNull || b == DataType::kNull;
}

bool NumericOrNull(DataType t) {
  return t == DataType::kInt64 || t == DataType::kDouble ||
         t == DataType::kNull;
}

// Checks that every column ordinal in `expr` is within [0, arity) and that
// the expression tree itself is structurally sound (operands present).
Status CheckExprResolves(const Expr& expr, size_t arity,
                         const std::string& context) {
  if (expr.kind == ExprKind::kColumn) {
    if (expr.column_index < 0 ||
        static_cast<size_t>(expr.column_index) >= arity) {
      return Status::Corruption(
          context + ": dangling column reference $" +
          std::to_string(expr.column_index) +
          (expr.column_name.empty() ? "" : " (" + expr.column_name + ")") +
          " against child arity " + std::to_string(arity));
    }
  }
  for (const ExprPtr& child : expr.children) {
    if (child == nullptr) {
      return Status::Corruption(context + ": expression has a null operand");
    }
    CLOUDVIEWS_RETURN_NOT_OK(CheckExprResolves(*child, arity, context));
  }
  return Status::OK();
}

// The input schema a node's expressions are evaluated against: the single
// child's output, or for joins the concatenation of both children.
Schema ExprInputSchema(const LogicalOp& node) {
  if (node.kind == LogicalOpKind::kJoin) {
    Schema combined;
    for (const ColumnDef& col : node.children[0]->output_schema.columns()) {
      combined.AddColumn(col.name, col.type);
    }
    for (const ColumnDef& col : node.children[1]->output_schema.columns()) {
      combined.AddColumn(col.name, col.type);
    }
    return combined;
  }
  return node.children.empty() ? Schema() : node.children[0]->output_schema;
}

// Expected child count per operator kind; -1 means "one or more".
int ExpectedChildren(LogicalOpKind kind) {
  switch (kind) {
    case LogicalOpKind::kScan:
    case LogicalOpKind::kViewScan:
    case LogicalOpKind::kSharedScan:
      return 0;
    case LogicalOpKind::kFilter:
    case LogicalOpKind::kProject:
    case LogicalOpKind::kAggregate:
    case LogicalOpKind::kSort:
    case LogicalOpKind::kLimit:
    case LogicalOpKind::kUdo:
    case LogicalOpKind::kSpool:
      return 1;
    case LogicalOpKind::kJoin:
      return 2;
    case LogicalOpKind::kUnionAll:
      return -1;
  }
  return -1;
}

}  // namespace

Status PlanVerifier::Verify(const LogicalOp& root) const {
  std::vector<const LogicalOp*> stack;
  CLOUDVIEWS_RETURN_NOT_OK(VerifyNode(root, "", &stack));
  if (!options_.require_reuse_signatures || options_.signatures == nullptr) {
    return Status::OK();
  }
  // A fresh computer, so verification never counts as compile-path hashing.
  // The structural pass above ruled out cycles, so recomputing terminates.
  const std::vector<NodeSignature> expected =
      SignatureComputer(options_.signatures->options()).ComputeAll(root);
  size_t next = 0;
  return VerifySealed(root, "", expected, &next);
}

Status PlanVerifier::VerifySealed(const LogicalOp& node,
                                  const std::string& path,
                                  const std::vector<NodeSignature>& expected,
                                  size_t* next) const {
  for (size_t i = 0; i < node.children.size(); ++i) {
    std::string child_path =
        path.empty() ? std::to_string(i) : path + "." + std::to_string(i);
    CLOUDVIEWS_RETURN_NOT_OK(
        VerifySealed(*node.children[i], child_path, expected, next));
  }
  const NodeSignature& want = expected[(*next)++];
  if (!node.sealed()) return Corrupt(node, path, "node is not sealed");
  if (!(node.strict_signature == want.strict) ||
      !(node.recurring_signature == want.recurring) ||
      node.eligible != want.eligible ||
      node.subtree_size != want.subtree_size) {
    return Corrupt(
        node, path,
        "sealed signature (strict " + node.strict_signature.ToHex() +
            ", recurring " + node.recurring_signature.ToHex() +
            ", eligible " + std::to_string(node.eligible) + ", size " +
            std::to_string(node.subtree_size) +
            ") does not match its recomputation (strict " +
            want.strict.ToHex() + ", recurring " + want.recurring.ToHex() +
            ", eligible " + std::to_string(want.eligible) + ", size " +
            std::to_string(want.subtree_size) + ")");
  }
  return Status::OK();
}

Status PlanVerifier::VerifyAfterRule(const char* rule,
                                     const LogicalOp& root) const {
  Status status = Verify(root);
  if (status.ok()) return status;
  return Status::Corruption("after optimizer rule '" + std::string(rule) +
                            "': " + status.message());
}

Status PlanVerifier::VerifyNode(const LogicalOp& node, const std::string& path,
                                std::vector<const LogicalOp*>* stack) const {
  // Acyclicity: a node reappearing on the current DFS stack closes a cycle.
  // (Sharing a subtree across branches is legal — plans are DAGs — so only
  // on-stack revisits are violations.)
  if (std::find(stack->begin(), stack->end(), &node) != stack->end()) {
    return Corrupt(node, path, "cycle: operator is its own ancestor");
  }

  const int expected = ExpectedChildren(node.kind);
  if (expected >= 0 &&
      node.children.size() != static_cast<size_t>(expected)) {
    return Corrupt(node, path,
                   "expects " + std::to_string(expected) + " children, has " +
                       std::to_string(node.children.size()));
  }
  if (expected < 0 && node.children.empty()) {
    return Corrupt(node, path, "expects at least one child, has none");
  }
  for (const LogicalOpPtr& child : node.children) {
    if (child == nullptr) return Corrupt(node, path, "null child");
  }

  stack->push_back(&node);
  for (size_t i = 0; i < node.children.size(); ++i) {
    std::string child_path =
        path.empty() ? std::to_string(i) : path + "." + std::to_string(i);
    CLOUDVIEWS_RETURN_NOT_OK(VerifyNode(*node.children[i], child_path, stack));
  }
  stack->pop_back();

  const std::string where = NodePath(LogicalOpKindName(node.kind), path);
  CLOUDVIEWS_RETURN_NOT_OK(VerifyExpressions(node, where));
  CLOUDVIEWS_RETURN_NOT_OK(VerifySchemaContract(node, where));
  return Status::OK();
}

Status PlanVerifier::VerifyExpressions(const LogicalOp& node,
                                       const std::string& where) const {
  const Schema input = ExprInputSchema(node);
  const size_t arity = input.num_columns();
  switch (node.kind) {
    case LogicalOpKind::kFilter: {
      if (node.predicate == nullptr) {
        return Status::Corruption(where + ": filter has no predicate");
      }
      CLOUDVIEWS_RETURN_NOT_OK(CheckExprResolves(*node.predicate, arity,
                                                 where));
      DataType type = node.predicate->InferType(input);
      if (type != DataType::kBool && type != DataType::kNull) {
        return Status::Corruption(where + ": predicate is not boolean (" +
                                  std::string(DataTypeName(type)) + ")");
      }
      if (options_.expect_normalized) {
        // Normalized plans have merged filter cascades and canonical
        // (ascending strict-hash) conjunct order — the deterministic child
        // ordering for the commutative AND.
        if (node.children[0]->kind == LogicalOpKind::kFilter) {
          return Status::Corruption(
              where + ": filter cascade survived normalization");
        }
        const Expr* cursor = node.predicate.get();
        std::vector<const Expr*> conjuncts;
        while (cursor->kind == ExprKind::kBinary &&
               cursor->binary_op == sql::BinaryOp::kAnd) {
          conjuncts.push_back(cursor->children[1].get());
          cursor = cursor->children[0].get();
        }
        conjuncts.push_back(cursor);
        // AndAll left-folds, so walking the left spine yields conjuncts in
        // reverse canonical order.
        for (size_t i = 1; i < conjuncts.size(); ++i) {
          Hasher ha, hb;
          conjuncts[i]->HashInto(&ha, /*include_literals=*/true);
          conjuncts[i - 1]->HashInto(&hb, /*include_literals=*/true);
          if (hb.Finish() < ha.Finish()) {
            return Status::Corruption(
                where + ": conjuncts out of canonical hash order");
          }
        }
      }
      break;
    }
    case LogicalOpKind::kProject: {
      for (const ExprPtr& expr : node.projections) {
        if (expr == nullptr) {
          return Status::Corruption(where + ": null projection expression");
        }
        CLOUDVIEWS_RETURN_NOT_OK(CheckExprResolves(*expr, arity, where));
      }
      break;
    }
    case LogicalOpKind::kJoin: {
      const size_t left_arity =
          node.children[0]->output_schema.num_columns();
      const size_t right_arity =
          node.children[1]->output_schema.num_columns();
      for (const auto& [l, r] : node.equi_keys) {
        if (l < 0 || static_cast<size_t>(l) >= left_arity) {
          return Status::Corruption(where + ": equi-key left ordinal $" +
                                    std::to_string(l) + " out of range (" +
                                    std::to_string(left_arity) + " columns)");
        }
        if (r < 0 || static_cast<size_t>(r) >= right_arity) {
          return Status::Corruption(where + ": equi-key right ordinal $" +
                                    std::to_string(r) + " out of range (" +
                                    std::to_string(right_arity) +
                                    " columns)");
        }
        DataType lt =
            node.children[0]->output_schema.column(static_cast<size_t>(l))
                .type;
        DataType rt =
            node.children[1]->output_schema.column(static_cast<size_t>(r))
                .type;
        // Cross-type numeric keys are legal (hash and compare agree); any
        // other mismatch can never match and marks a miswired rewrite.
        if (!TypesCompatible(lt, rt) &&
            !(NumericOrNull(lt) && NumericOrNull(rt))) {
          return Status::Corruption(
              where + ": equi-key type mismatch $" + std::to_string(l) + ":" +
              DataTypeName(lt) + " vs $" + std::to_string(r) + ":" +
              DataTypeName(rt));
        }
      }
      if (node.predicate != nullptr) {
        CLOUDVIEWS_RETURN_NOT_OK(CheckExprResolves(*node.predicate, arity,
                                                   where));
      }
      if (options_.algorithms_chosen &&
          node.join_algorithm != JoinAlgorithm::kLoop &&
          node.equi_keys.empty()) {
        return Status::Corruption(
            where + ": " +
            std::string(JoinAlgorithmName(node.join_algorithm)) +
            " join requires at least one equi key");
      }
      break;
    }
    case LogicalOpKind::kAggregate: {
      for (const ExprPtr& key : node.group_by) {
        if (key == nullptr) {
          return Status::Corruption(where + ": null group-by key");
        }
        CLOUDVIEWS_RETURN_NOT_OK(CheckExprResolves(*key, arity, where));
      }
      for (const AggregateSpec& agg : node.aggregates) {
        if (agg.func != AggFunc::kCountStar && agg.arg == nullptr) {
          return Status::Corruption(where + ": " +
                                    std::string(AggFuncName(agg.func)) +
                                    " aggregate has no argument");
        }
        if (agg.arg != nullptr) {
          CLOUDVIEWS_RETURN_NOT_OK(CheckExprResolves(*agg.arg, arity, where));
        }
      }
      break;
    }
    case LogicalOpKind::kSort: {
      for (const SortKey& key : node.sort_keys) {
        if (key.expr == nullptr) {
          return Status::Corruption(where + ": null sort key");
        }
        CLOUDVIEWS_RETURN_NOT_OK(CheckExprResolves(*key.expr, arity, where));
      }
      break;
    }
    case LogicalOpKind::kLimit: {
      if (node.limit < 0) {
        return Status::Corruption(where + ": negative limit " +
                                  std::to_string(node.limit));
      }
      break;
    }
    case LogicalOpKind::kUdo: {
      if (node.udo_name.empty()) {
        return Status::Corruption(where + ": UDO has no name");
      }
      if (node.udo_selectivity < 0.0 || node.udo_selectivity > 1.0) {
        return Status::Corruption(where + ": UDO selectivity " +
                                  std::to_string(node.udo_selectivity) +
                                  " outside [0, 1]");
      }
      if (node.udo_dependency_depth < 0 || node.udo_cost_per_row < 0.0) {
        return Status::Corruption(where +
                                  ": negative UDO dependency depth or cost");
      }
      break;
    }
    default:
      break;
  }
  return Status::OK();
}

Status PlanVerifier::VerifySchemaContract(const LogicalOp& node,
                                          const std::string& where) const {
  switch (node.kind) {
    case LogicalOpKind::kScan: {
      if (!node.scan_columns.empty()) {
        if (node.scan_columns.size() != node.output_schema.num_columns()) {
          return Status::Corruption(
              where + ": pruned scan selects " +
              std::to_string(node.scan_columns.size()) +
              " columns but outputs " +
              std::to_string(node.output_schema.num_columns()));
        }
        for (size_t i = 1; i < node.scan_columns.size(); ++i) {
          if (node.scan_columns[i] <= node.scan_columns[i - 1]) {
            return Status::Corruption(
                where + ": scan_columns not strictly ascending");
          }
        }
        if (node.scan_columns.front() < 0) {
          return Status::Corruption(where + ": negative scan column ordinal");
        }
      }
      if (options_.catalog != nullptr) {
        auto dataset = options_.catalog->Lookup(node.dataset_name);
        if (!dataset.ok()) {
          return Status::Corruption(where + ": scans unknown dataset '" +
                                    node.dataset_name + "'");
        }
        const Schema& base = dataset->table->schema();
        if (node.scan_columns.empty()) {
          if (!(node.output_schema == base)) {
            return Status::Corruption(
                where + ": scan schema " + node.output_schema.ToString() +
                " does not match dataset schema " + base.ToString());
          }
        } else {
          for (size_t i = 0; i < node.scan_columns.size(); ++i) {
            int col = node.scan_columns[i];
            if (static_cast<size_t>(col) >= base.num_columns()) {
              return Status::Corruption(
                  where + ": scan column ordinal " + std::to_string(col) +
                  " out of range for dataset '" + node.dataset_name + "'");
            }
            if (!(node.output_schema.column(i) ==
                  base.column(static_cast<size_t>(col)))) {
              return Status::Corruption(
                  where + ": pruned scan column " + std::to_string(i) +
                  " does not match dataset column " + std::to_string(col));
            }
          }
        }
      }
      break;
    }
    case LogicalOpKind::kViewScan: {
      if (options_.require_reuse_signatures && node.view_signature.IsZero()) {
        return Status::Corruption(where + ": view scan with zero signature");
      }
      break;
    }
    case LogicalOpKind::kSharedScan: {
      if (options_.require_reuse_signatures && node.view_signature.IsZero()) {
        return Status::Corruption(where + ": shared scan with zero signature");
      }
      // Detach is the safety net: a subscriber without a fallback plan (or
      // with one of a different shape) could not answer the query alone.
      if (node.shared_fallback_plan == nullptr) {
        return Status::Corruption(where + ": shared scan without a fallback");
      }
      if (!(node.shared_fallback_plan->output_schema == node.output_schema)) {
        return Status::Corruption(
            where + ": fallback schema " +
            node.shared_fallback_plan->output_schema.ToString() +
            " does not match shared scan schema " +
            node.output_schema.ToString());
      }
      break;
    }
    case LogicalOpKind::kFilter:
    case LogicalOpKind::kSort:
    case LogicalOpKind::kLimit:
    case LogicalOpKind::kUdo: {
      // Row-preserving operators pass their child's schema through intact.
      if (!(node.output_schema == node.children[0]->output_schema)) {
        return Status::Corruption(
            where + ": output schema " + node.output_schema.ToString() +
            " does not preserve child schema " +
            node.children[0]->output_schema.ToString());
      }
      break;
    }
    case LogicalOpKind::kSpool: {
      if (!(node.output_schema == node.children[0]->output_schema)) {
        return Status::Corruption(
            where + ": spool must be schema-transparent, got " +
            node.output_schema.ToString() + " over " +
            node.children[0]->output_schema.ToString());
      }
      if (options_.require_reuse_signatures && node.view_signature.IsZero()) {
        return Status::Corruption(where + ": spool with zero view signature");
      }
      if (options_.signatures != nullptr && !node.view_signature.IsZero()) {
        // Exactly-once sealing keys the view store on this signature; a
        // forged or stale one would seal the wrong (or no) view.
        NodeSignature child_sig =
            SignatureComputer(options_.signatures->options())
                .Compute(*node.children[0]);
        if (!(child_sig.strict == node.view_signature)) {
          return Status::Corruption(
              where + ": spool signature " + node.view_signature.ToHex() +
              " does not match its child's strict signature " +
              child_sig.strict.ToHex() + " (forged or stale)");
        }
      }
      break;
    }
    case LogicalOpKind::kProject: {
      if (node.projections.size() != node.output_schema.num_columns()) {
        return Status::Corruption(
            where + ": " + std::to_string(node.projections.size()) +
            " projections but " +
            std::to_string(node.output_schema.num_columns()) +
            " output columns");
      }
      const Schema& input = node.children[0]->output_schema;
      for (size_t i = 0; i < node.projections.size(); ++i) {
        DataType inferred = node.projections[i]->InferType(input);
        if (!TypesCompatible(inferred, node.output_schema.column(i).type)) {
          return Status::Corruption(
              where + ": projection " + std::to_string(i) + " infers " +
              DataTypeName(inferred) + " but schema declares " +
              DataTypeName(node.output_schema.column(i).type));
        }
      }
      break;
    }
    case LogicalOpKind::kJoin: {
      const Schema& left = node.children[0]->output_schema;
      const Schema& right = node.children[1]->output_schema;
      if (node.output_schema.num_columns() !=
          left.num_columns() + right.num_columns()) {
        return Status::Corruption(
            where + ": join output arity " +
            std::to_string(node.output_schema.num_columns()) +
            " != left " + std::to_string(left.num_columns()) + " + right " +
            std::to_string(right.num_columns()));
      }
      for (size_t i = 0; i < left.num_columns(); ++i) {
        if (!TypesCompatible(node.output_schema.column(i).type,
                             left.column(i).type)) {
          return Status::Corruption(where + ": join output column " +
                                    std::to_string(i) +
                                    " type differs from left child");
        }
      }
      for (size_t i = 0; i < right.num_columns(); ++i) {
        if (!TypesCompatible(
                node.output_schema.column(left.num_columns() + i).type,
                right.column(i).type)) {
          return Status::Corruption(where + ": join output column " +
                                    std::to_string(left.num_columns() + i) +
                                    " type differs from right child");
        }
      }
      break;
    }
    case LogicalOpKind::kAggregate: {
      const size_t expected =
          node.group_by.size() + node.aggregates.size();
      if (node.output_schema.num_columns() != expected) {
        return Status::Corruption(
            where + ": aggregate output arity " +
            std::to_string(node.output_schema.num_columns()) +
            " != keys " + std::to_string(node.group_by.size()) +
            " + aggregates " + std::to_string(node.aggregates.size()));
      }
      break;
    }
    case LogicalOpKind::kUnionAll: {
      const size_t arity = node.output_schema.num_columns();
      for (size_t b = 0; b < node.children.size(); ++b) {
        const Schema& branch = node.children[b]->output_schema;
        if (branch.num_columns() != arity) {
          return Status::Corruption(
              where + ": union branch " + std::to_string(b) + " arity " +
              std::to_string(branch.num_columns()) + " != output arity " +
              std::to_string(arity));
        }
        for (size_t i = 0; i < arity; ++i) {
          if (!TypesCompatible(branch.column(i).type,
                               node.output_schema.column(i).type)) {
            return Status::Corruption(
                where + ": union branch " + std::to_string(b) + " column " +
                std::to_string(i) + " type " +
                DataTypeName(branch.column(i).type) +
                " incompatible with output " +
                DataTypeName(node.output_schema.column(i).type));
          }
        }
      }
      break;
    }
  }
  return Status::OK();
}

}  // namespace verify
}  // namespace cloudviews
