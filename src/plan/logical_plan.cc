#include "plan/logical_plan.h"

#include <algorithm>
#include <set>

namespace cloudviews {

const char* LogicalOpKindName(LogicalOpKind kind) {
  switch (kind) {
    case LogicalOpKind::kScan:
      return "Scan";
    case LogicalOpKind::kViewScan:
      return "ViewScan";
    case LogicalOpKind::kFilter:
      return "Filter";
    case LogicalOpKind::kProject:
      return "Project";
    case LogicalOpKind::kJoin:
      return "Join";
    case LogicalOpKind::kAggregate:
      return "Aggregate";
    case LogicalOpKind::kSort:
      return "Sort";
    case LogicalOpKind::kLimit:
      return "Limit";
    case LogicalOpKind::kUnionAll:
      return "UnionAll";
    case LogicalOpKind::kUdo:
      return "Udo";
    case LogicalOpKind::kSpool:
      return "Spool";
    case LogicalOpKind::kSharedScan:
      return "SharedScan";
  }
  return "Unknown";
}

const char* AggFuncName(AggFunc func) {
  switch (func) {
    case AggFunc::kCountStar:
      return "COUNT(*)";
    case AggFunc::kCount:
      return "COUNT";
    case AggFunc::kSum:
      return "SUM";
    case AggFunc::kAvg:
      return "AVG";
    case AggFunc::kMin:
      return "MIN";
    case AggFunc::kMax:
      return "MAX";
  }
  return "?";
}

const char* JoinAlgorithmName(JoinAlgorithm algorithm) {
  switch (algorithm) {
    case JoinAlgorithm::kHash:
      return "Hash";
    case JoinAlgorithm::kMerge:
      return "Merge";
    case JoinAlgorithm::kLoop:
      return "Loop";
  }
  return "?";
}

LogicalOpPtr LogicalOp::Scan(std::string dataset_name, std::string guid,
                             Schema schema) {
  auto op = std::make_shared<LogicalOp>();
  op->kind = LogicalOpKind::kScan;
  op->dataset_name = std::move(dataset_name);
  op->dataset_guid = std::move(guid);
  op->output_schema = std::move(schema);
  return op;
}

LogicalOpPtr LogicalOp::ViewScan(Hash128 signature, std::string path,
                                 Schema schema) {
  auto op = std::make_shared<LogicalOp>();
  op->kind = LogicalOpKind::kViewScan;
  op->view_signature = signature;
  op->view_path = std::move(path);
  op->output_schema = std::move(schema);
  return op;
}

LogicalOpPtr LogicalOp::Filter(LogicalOpPtr child, ExprPtr predicate) {
  auto op = std::make_shared<LogicalOp>();
  op->kind = LogicalOpKind::kFilter;
  op->output_schema = child->output_schema;
  op->children.push_back(std::move(child));
  op->predicate = std::move(predicate);
  return op;
}

LogicalOpPtr LogicalOp::Project(LogicalOpPtr child, std::vector<ExprPtr> exprs,
                                std::vector<std::string> names) {
  auto op = std::make_shared<LogicalOp>();
  op->kind = LogicalOpKind::kProject;
  Schema schema;
  for (size_t i = 0; i < exprs.size(); ++i) {
    schema.AddColumn(i < names.size() ? names[i] : "col" + std::to_string(i),
                     exprs[i]->InferType(child->output_schema));
  }
  op->output_schema = std::move(schema);
  op->children.push_back(std::move(child));
  op->projections = std::move(exprs);
  return op;
}

LogicalOpPtr LogicalOp::Join(LogicalOpPtr left, LogicalOpPtr right,
                             sql::JoinKind kind, ExprPtr condition) {
  auto op = std::make_shared<LogicalOp>();
  op->kind = LogicalOpKind::kJoin;
  op->join_kind = kind;
  Schema schema;
  for (const ColumnDef& col : left->output_schema.columns()) {
    schema.AddColumn(col.name, col.type);
  }
  for (const ColumnDef& col : right->output_schema.columns()) {
    schema.AddColumn(col.name, col.type);
  }
  op->output_schema = std::move(schema);
  size_t left_arity = left->output_schema.num_columns();
  op->children.push_back(std::move(left));
  op->children.push_back(std::move(right));
  if (condition != nullptr) {
    JoinConditionParts parts = SplitJoinCondition(condition, left_arity);
    op->equi_keys = std::move(parts.equi_keys);
    op->predicate = std::move(parts.residual);
  }
  op->join_algorithm =
      op->equi_keys.empty() ? JoinAlgorithm::kLoop : JoinAlgorithm::kHash;
  return op;
}

LogicalOpPtr LogicalOp::Aggregate(LogicalOpPtr child, std::vector<ExprPtr> keys,
                                  std::vector<AggregateSpec> aggs) {
  auto op = std::make_shared<LogicalOp>();
  op->kind = LogicalOpKind::kAggregate;
  Schema schema;
  for (size_t i = 0; i < keys.size(); ++i) {
    std::string name = keys[i]->kind == ExprKind::kColumn
                           ? keys[i]->column_name
                           : "key" + std::to_string(i);
    schema.AddColumn(std::move(name),
                     keys[i]->InferType(child->output_schema));
  }
  for (const AggregateSpec& agg : aggs) {
    DataType type = DataType::kDouble;
    if (agg.func == AggFunc::kCount || agg.func == AggFunc::kCountStar) {
      type = DataType::kInt64;
    } else if (agg.arg != nullptr &&
               (agg.func == AggFunc::kMin || agg.func == AggFunc::kMax)) {
      type = agg.arg->InferType(child->output_schema);
    } else if (agg.arg != nullptr && agg.func == AggFunc::kSum &&
               agg.arg->InferType(child->output_schema) == DataType::kInt64) {
      type = DataType::kInt64;
    }
    schema.AddColumn(agg.output_name, type);
  }
  op->output_schema = std::move(schema);
  op->children.push_back(std::move(child));
  op->group_by = std::move(keys);
  op->aggregates = std::move(aggs);
  return op;
}

LogicalOpPtr LogicalOp::Sort(LogicalOpPtr child, std::vector<SortKey> keys) {
  auto op = std::make_shared<LogicalOp>();
  op->kind = LogicalOpKind::kSort;
  op->output_schema = child->output_schema;
  op->children.push_back(std::move(child));
  op->sort_keys = std::move(keys);
  return op;
}

LogicalOpPtr LogicalOp::Limit(LogicalOpPtr child, int64_t n) {
  auto op = std::make_shared<LogicalOp>();
  op->kind = LogicalOpKind::kLimit;
  op->output_schema = child->output_schema;
  op->children.push_back(std::move(child));
  op->limit = n;
  return op;
}

LogicalOpPtr LogicalOp::UnionAll(std::vector<LogicalOpPtr> children) {
  auto op = std::make_shared<LogicalOp>();
  op->kind = LogicalOpKind::kUnionAll;
  if (!children.empty()) op->output_schema = children[0]->output_schema;
  op->children = std::move(children);
  return op;
}

LogicalOpPtr LogicalOp::Udo(LogicalOpPtr child, std::string name,
                            bool deterministic, int dependency_depth,
                            double selectivity, double cost_per_row) {
  auto op = std::make_shared<LogicalOp>();
  op->kind = LogicalOpKind::kUdo;
  op->output_schema = child->output_schema;
  op->children.push_back(std::move(child));
  op->udo_name = std::move(name);
  op->udo_deterministic = deterministic;
  op->udo_dependency_depth = dependency_depth;
  op->udo_selectivity = selectivity;
  op->udo_cost_per_row = cost_per_row;
  return op;
}

LogicalOpPtr LogicalOp::Spool(LogicalOpPtr child) {
  auto op = std::make_shared<LogicalOp>();
  op->kind = LogicalOpKind::kSpool;
  op->output_schema = child->output_schema;
  op->children.push_back(std::move(child));
  return op;
}

LogicalOpPtr LogicalOp::SharedScan(Hash128 signature, Hash128 recurring,
                                   Schema schema, LogicalOpPtr fallback) {
  auto op = std::make_shared<LogicalOp>();
  op->kind = LogicalOpKind::kSharedScan;
  op->view_signature = signature;
  op->view_recurring_signature = recurring;
  op->output_schema = std::move(schema);
  op->shared_fallback_plan = std::move(fallback);
  return op;
}

size_t LogicalOp::TreeSize() const {
  size_t n = 1;
  for (const LogicalOpPtr& child : children) n += child->TreeSize();
  return n;
}

std::vector<std::string> LogicalOp::InputDatasets() const {
  std::set<std::string> names;
  // Iterative DFS to avoid building intermediate vectors per node.
  std::vector<const LogicalOp*> stack = {this};
  while (!stack.empty()) {
    const LogicalOp* op = stack.back();
    stack.pop_back();
    if (op->kind == LogicalOpKind::kScan) names.insert(op->dataset_name);
    for (const LogicalOpPtr& child : op->children) {
      stack.push_back(child.get());
    }
  }
  return {names.begin(), names.end()};
}

LogicalOpPtr LogicalOp::Clone() const {
  auto copy = std::make_shared<LogicalOp>(*this);
  copy->children.clear();
  for (const LogicalOpPtr& child : children) {
    copy->children.push_back(child->Clone());
  }
  return copy;
}

LogicalOpPtr LogicalOp::WithChildren(std::vector<LogicalOpPtr> children) const {
  auto copy = std::make_shared<LogicalOp>(*this);
  copy->children = std::move(children);
  return copy;
}

LogicalOpPtr RewritePaths(const LogicalOpPtr& root,
                          const PathRewriteFn& rewrite) {
  std::vector<LogicalOpPtr> children;
  for (size_t i = 0; i < root->children.size(); ++i) {
    LogicalOpPtr child = RewritePaths(root->children[i], rewrite);
    if (child != root->children[i] && children.empty()) {
      children = root->children;
    }
    if (!children.empty()) children[i] = std::move(child);
  }
  return rewrite(root, children.empty() ? root
                                        : root->WithChildren(std::move(children)));
}

std::string LogicalOp::ToString(int indent) const {
  std::string pad(static_cast<size_t>(indent) * 2, ' ');
  std::string out = pad + LogicalOpKindName(kind);
  switch (kind) {
    case LogicalOpKind::kScan:
      out += " " + dataset_name + " [guid=" + dataset_guid.substr(0, 8) + "]";
      break;
    case LogicalOpKind::kViewScan:
      out += " sig=" + view_signature.ToHex().substr(0, 12);
      break;
    case LogicalOpKind::kSharedScan:
      out += " sig=" + view_signature.ToHex().substr(0, 12);
      break;
    case LogicalOpKind::kFilter:
      out += " " + predicate->ToString();
      break;
    case LogicalOpKind::kProject: {
      out += " [";
      for (size_t i = 0; i < projections.size(); ++i) {
        if (i > 0) out += ", ";
        out += projections[i]->ToString();
      }
      out += "]";
      break;
    }
    case LogicalOpKind::kJoin: {
      out += std::string(" ") + JoinAlgorithmName(join_algorithm);
      out += join_kind == sql::JoinKind::kLeft ? " LEFT" : " INNER";
      for (const auto& [l, r] : equi_keys) {
        out += " $" + std::to_string(l) + "=$" + std::to_string(r);
      }
      if (predicate != nullptr) out += " residual=" + predicate->ToString();
      break;
    }
    case LogicalOpKind::kAggregate: {
      out += " keys=[";
      for (size_t i = 0; i < group_by.size(); ++i) {
        if (i > 0) out += ", ";
        out += group_by[i]->ToString();
      }
      out += "] aggs=[";
      for (size_t i = 0; i < aggregates.size(); ++i) {
        if (i > 0) out += ", ";
        out += AggFuncName(aggregates[i].func);
        if (aggregates[i].arg != nullptr) {
          out += "(" + aggregates[i].arg->ToString() + ")";
        }
      }
      out += "]";
      break;
    }
    case LogicalOpKind::kSort: {
      out += " [";
      for (size_t i = 0; i < sort_keys.size(); ++i) {
        if (i > 0) out += ", ";
        out += sort_keys[i].expr->ToString();
        out += sort_keys[i].ascending ? " ASC" : " DESC";
      }
      out += "]";
      break;
    }
    case LogicalOpKind::kLimit:
      out += " " + std::to_string(limit);
      break;
    case LogicalOpKind::kUdo:
      out += " " + udo_name +
             (udo_deterministic ? "" : " [non-deterministic]");
      break;
    default:
      break;
  }
  if (estimated_rows > 0) {
    out += "  {est_rows=" + std::to_string(static_cast<int64_t>(estimated_rows));
    if (stats_from_view) out += ", from_view";
    out += "}";
  }
  out += "\n";
  for (const LogicalOpPtr& child : children) {
    out += child->ToString(indent + 1);
  }
  return out;
}

namespace {

// Gathers top-level AND conjuncts.
void CollectConjuncts(const ExprPtr& expr, std::vector<ExprPtr>* out) {
  if (expr->kind == ExprKind::kBinary &&
      expr->binary_op == sql::BinaryOp::kAnd) {
    CollectConjuncts(expr->children[0], out);
    CollectConjuncts(expr->children[1], out);
    return;
  }
  out->push_back(expr);
}

}  // namespace

JoinConditionParts SplitJoinCondition(const ExprPtr& condition,
                                      size_t left_arity) {
  JoinConditionParts parts;
  if (condition == nullptr) return parts;
  std::vector<ExprPtr> conjuncts;
  CollectConjuncts(condition, &conjuncts);
  std::vector<ExprPtr> residual;
  for (const ExprPtr& c : conjuncts) {
    if (c->kind == ExprKind::kBinary && c->binary_op == sql::BinaryOp::kEq &&
        c->children[0]->kind == ExprKind::kColumn &&
        c->children[1]->kind == ExprKind::kColumn) {
      int a = c->children[0]->column_index;
      int b = c->children[1]->column_index;
      bool a_left = static_cast<size_t>(a) < left_arity;
      bool b_left = static_cast<size_t>(b) < left_arity;
      if (a_left != b_left) {
        int left_idx = a_left ? a : b;
        int right_idx = a_left ? b : a;
        parts.equi_keys.emplace_back(
            left_idx, right_idx - static_cast<int>(left_arity));
        continue;
      }
    }
    residual.push_back(c);
  }
  for (const ExprPtr& r : residual) {
    parts.residual = parts.residual == nullptr
                         ? r
                         : Expr::MakeBinary(sql::BinaryOp::kAnd,
                                            parts.residual, r);
  }
  return parts;
}

}  // namespace cloudviews
