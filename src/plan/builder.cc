#include "plan/builder.h"

#include <functional>
#include <optional>

#include "sql/parser.h"

namespace cloudviews {

namespace {

// Recognized aggregate function names.
std::optional<AggFunc> AggFuncFromName(const std::string& name) {
  if (name == "COUNT") return AggFunc::kCount;
  if (name == "SUM") return AggFunc::kSum;
  if (name == "AVG") return AggFunc::kAvg;
  if (name == "MIN") return AggFunc::kMin;
  if (name == "MAX") return AggFunc::kMax;
  return std::nullopt;
}

bool ContainsAggregate(const sql::AstExpr& ast) {
  if (ast.kind == sql::AstExprKind::kFunctionCall &&
      AggFuncFromName(ast.function_name).has_value()) {
    return true;
  }
  for (const auto& child : ast.children) {
    if (ContainsAggregate(*child)) return true;
  }
  return false;
}

const char* kScalarFunctions[] = {"UPPER", "LOWER", "ABS",
                                  "ROUND", "LENGTH", "SUBSTR"};

bool IsScalarFunction(const std::string& name) {
  for (const char* fn : kScalarFunctions) {
    if (name == fn) return true;
  }
  return false;
}

// Collects aggregate calls appearing in an AST expression (deduplicated by
// structural identity is handled later, at bind time).
void CollectAggCalls(const sql::AstExpr& ast,
                     std::vector<const sql::AstExpr*>* out) {
  if (ast.kind == sql::AstExprKind::kFunctionCall &&
      AggFuncFromName(ast.function_name).has_value()) {
    out->push_back(&ast);
    return;  // no nested aggregates
  }
  for (const auto& child : ast.children) CollectAggCalls(*child, out);
}

}  // namespace

Result<ExprPtr> PlanBuilder::BindingScope::ResolveColumn(
    const std::string& qualifier, const std::string& name) const {
  const RelationBinding* found_rel = nullptr;
  int found_index = -1;
  for (const RelationBinding& rel : relations) {
    if (!qualifier.empty() && rel.qualifier != qualifier) continue;
    std::optional<int> idx = rel.schema.FindColumn(name);
    if (idx.has_value()) {
      if (found_rel != nullptr) {
        return Status::InvalidArgument("ambiguous column reference: " + name);
      }
      found_rel = &rel;
      found_index = rel.column_offset + *idx;
    }
  }
  if (found_rel == nullptr) {
    return Status::NotFound(
        "unresolved column: " +
        (qualifier.empty() ? name : qualifier + "." + name));
  }
  return Expr::MakeColumn(found_index, name);
}

Schema PlanBuilder::BindingScope::CombinedSchema() const {
  Schema out;
  for (const RelationBinding& rel : relations) {
    for (const ColumnDef& col : rel.schema.columns()) {
      out.AddColumn(col.name, col.type);
    }
  }
  return out;
}

Result<LogicalOpPtr> PlanBuilder::BuildFromSql(const std::string& sql) const {
  auto stmt = sql::Parser::Parse(sql);
  if (!stmt.ok()) return stmt.status();
  return Build(**stmt);
}

Result<LogicalOpPtr> PlanBuilder::Build(const sql::SelectStatement& stmt) const {
  auto plan = BuildQueryBlock(stmt);
  if (!plan.ok()) return plan.status();
  LogicalOpPtr root = std::move(plan).value();

  // UNION ALL chain: schemas must have equal arity.
  if (stmt.union_all_next != nullptr) {
    std::vector<LogicalOpPtr> branches;
    branches.push_back(std::move(root));
    const sql::SelectStatement* next = stmt.union_all_next.get();
    while (next != nullptr) {
      auto branch = BuildQueryBlock(*next);
      if (!branch.ok()) return branch.status();
      if ((*branch)->output_schema.num_columns() !=
          branches[0]->output_schema.num_columns()) {
        return Status::InvalidArgument(
            "UNION ALL branches have mismatched arity");
      }
      branches.push_back(std::move(branch).value());
      next = next->union_all_next.get();
    }
    root = LogicalOp::UnionAll(std::move(branches));
  }
  return root;
}

Result<LogicalOpPtr> PlanBuilder::BindScan(const sql::TableRef& ref,
                                           BindingScope* scope) const {
  auto dataset = catalog_->Lookup(ref.table_name);
  if (!dataset.ok()) return dataset.status();
  RelationBinding binding;
  binding.qualifier = ref.alias.empty() ? ref.table_name : ref.alias;
  binding.schema = dataset->table->schema();
  binding.column_offset = 0;
  for (const RelationBinding& rel : scope->relations) {
    binding.column_offset += static_cast<int>(rel.schema.num_columns());
  }
  scope->relations.push_back(binding);
  return LogicalOp::Scan(ref.table_name, dataset->guid,
                         dataset->table->schema());
}

Result<ExprPtr> PlanBuilder::BindExpr(const sql::AstExpr& ast,
                                      const BindingScope& scope) const {
  using sql::AstExprKind;
  switch (ast.kind) {
    case AstExprKind::kLiteral:
      return Expr::MakeLiteral(ast.literal);
    case AstExprKind::kColumnRef:
      return scope.ResolveColumn(ast.table_qualifier, ast.column_name);
    case AstExprKind::kStar:
      return Status::InvalidArgument("'*' is only valid in a select list");
    case AstExprKind::kUnary: {
      auto operand = BindExpr(*ast.children[0], scope);
      if (!operand.ok()) return operand.status();
      return Expr::MakeUnary(ast.unary_op, std::move(operand).value());
    }
    case AstExprKind::kBinary: {
      auto lhs = BindExpr(*ast.children[0], scope);
      if (!lhs.ok()) return lhs.status();
      auto rhs = BindExpr(*ast.children[1], scope);
      if (!rhs.ok()) return rhs.status();
      return Expr::MakeBinary(ast.binary_op, std::move(lhs).value(),
                              std::move(rhs).value());
    }
    case AstExprKind::kFunctionCall: {
      if (AggFuncFromName(ast.function_name).has_value()) {
        return Status::InvalidArgument(
            "aggregate " + ast.function_name +
            " not allowed here (only in SELECT or HAVING)");
      }
      if (!IsScalarFunction(ast.function_name)) {
        return Status::NotSupported("unknown function: " + ast.function_name);
      }
      std::vector<ExprPtr> args;
      for (const auto& child : ast.children) {
        auto arg = BindExpr(*child, scope);
        if (!arg.ok()) return arg.status();
        args.push_back(std::move(arg).value());
      }
      return Expr::MakeCall(ast.function_name, std::move(args));
    }
    case AstExprKind::kBetween: {
      auto v = BindExpr(*ast.children[0], scope);
      if (!v.ok()) return v.status();
      auto lo = BindExpr(*ast.children[1], scope);
      if (!lo.ok()) return lo.status();
      auto hi = BindExpr(*ast.children[2], scope);
      if (!hi.ok()) return hi.status();
      return Expr::MakeBetween(std::move(v).value(), std::move(lo).value(),
                               std::move(hi).value(), ast.negated);
    }
    case AstExprKind::kInList: {
      std::vector<ExprPtr> children;
      for (const auto& child : ast.children) {
        auto bound = BindExpr(*child, scope);
        if (!bound.ok()) return bound.status();
        children.push_back(std::move(bound).value());
      }
      return Expr::MakeInList(std::move(children), ast.negated);
    }
    case AstExprKind::kIsNull: {
      auto operand = BindExpr(*ast.children[0], scope);
      if (!operand.ok()) return operand.status();
      return Expr::MakeIsNull(std::move(operand).value(), ast.negated);
    }
    case AstExprKind::kLike: {
      auto operand = BindExpr(*ast.children[0], scope);
      if (!operand.ok()) return operand.status();
      return Expr::MakeLike(std::move(operand).value(), ast.like_pattern,
                            ast.negated);
    }
  }
  return Status::Internal("unhandled AST expression kind");
}

Result<LogicalOpPtr> PlanBuilder::BuildQueryBlock(
    const sql::SelectStatement& stmt) const {
  BindingScope scope;
  auto scan = BindScan(stmt.from, &scope);
  if (!scan.ok()) return scan.status();
  LogicalOpPtr plan = std::move(scan).value();

  for (const sql::JoinClause& join : stmt.joins) {
    auto right = BindScan(join.table, &scope);
    if (!right.ok()) return right.status();
    ExprPtr condition;
    if (join.condition != nullptr) {
      auto bound = BindExpr(*join.condition, scope);
      if (!bound.ok()) return bound.status();
      condition = std::move(bound).value();
    }
    plan = LogicalOp::Join(plan, std::move(right).value(), join.kind,
                           condition);
  }

  if (stmt.where != nullptr) {
    auto predicate = BindExpr(*stmt.where, scope);
    if (!predicate.ok()) return predicate.status();
    plan = LogicalOp::Filter(plan, std::move(predicate).value());
  }

  // Decide whether this block aggregates.
  bool has_agg = !stmt.group_by.empty() || stmt.having != nullptr;
  for (const sql::SelectItem& item : stmt.select_list) {
    if (item.expr->kind != sql::AstExprKind::kStar &&
        ContainsAggregate(*item.expr)) {
      has_agg = true;
    }
  }

  // Bind final projection list. With aggregation, select/having expressions
  // are rewritten over the aggregate's output schema.
  std::vector<ExprPtr> projections;
  std::vector<std::string> names;

  if (has_agg) {
    // Bind group-by keys over the pre-aggregate scope.
    std::vector<ExprPtr> keys;
    for (const auto& g : stmt.group_by) {
      auto key = BindExpr(*g, scope);
      if (!key.ok()) return key.status();
      keys.push_back(std::move(key).value());
    }

    // Collect aggregate calls from select list and HAVING.
    std::vector<const sql::AstExpr*> agg_calls;
    for (const sql::SelectItem& item : stmt.select_list) {
      if (item.expr->kind != sql::AstExprKind::kStar) {
        CollectAggCalls(*item.expr, &agg_calls);
      }
    }
    if (stmt.having != nullptr) CollectAggCalls(*stmt.having, &agg_calls);

    std::vector<AggregateSpec> specs;
    std::vector<ExprPtr> bound_agg_args;  // parallel to specs; for dedup
    auto bind_agg = [&](const sql::AstExpr& call) -> Result<int> {
      AggregateSpec spec;
      spec.func = *AggFuncFromName(call.function_name);
      spec.distinct = call.distinct;
      ExprPtr arg;
      if (call.children.empty() ||
          call.children[0]->kind == sql::AstExprKind::kStar) {
        // Only COUNT counts rows; every other aggregate needs an argument.
        if (spec.func != AggFunc::kCount) {
          return Status::InvalidArgument(
              call.function_name + " needs an argument; only COUNT takes *");
        }
        spec.func = AggFunc::kCountStar;
      } else {
        auto bound = BindExpr(*call.children[0], scope);
        if (!bound.ok()) return bound.status();
        arg = std::move(bound).value();
      }
      // Deduplicate identical aggregate expressions.
      for (size_t i = 0; i < specs.size(); ++i) {
        if (specs[i].func == spec.func && specs[i].distinct == spec.distinct) {
          bool same_arg =
              (arg == nullptr && bound_agg_args[i] == nullptr) ||
              (arg != nullptr && bound_agg_args[i] != nullptr &&
               arg->Equals(*bound_agg_args[i]));
          if (same_arg) return static_cast<int>(i);
        }
      }
      spec.arg = arg;
      spec.output_name =
          std::string(AggFuncName(spec.func)) + "_" +
          std::to_string(specs.size());
      specs.push_back(spec);
      bound_agg_args.push_back(arg);
      return static_cast<int>(specs.size()) - 1;
    };

    // Pre-bind all aggregate calls (stable order of specs).
    for (const sql::AstExpr* call : agg_calls) {
      auto idx = bind_agg(*call);
      if (!idx.ok()) return idx.status();
    }

    LogicalOpPtr agg_op = LogicalOp::Aggregate(plan, keys, specs);

    // Rewrites an AST expression into an Expr over the aggregate output:
    // aggregate calls become columns [num_keys + spec_index]; other parts
    // must match a group-by key expression.
    size_t num_keys = keys.size();
    std::function<Result<ExprPtr>(const sql::AstExpr&)> rewrite =
        [&](const sql::AstExpr& ast) -> Result<ExprPtr> {
      if (ast.kind == sql::AstExprKind::kFunctionCall &&
          AggFuncFromName(ast.function_name).has_value()) {
        auto idx = bind_agg(ast);
        if (!idx.ok()) return idx.status();
        int col = static_cast<int>(num_keys) + *idx;
        return Expr::MakeColumn(
            col, agg_op->output_schema.column(static_cast<size_t>(col)).name);
      }
      // Try to match the whole expression against a group-by key.
      auto bound = BindExpr(ast, scope);
      if (bound.ok()) {
        for (size_t i = 0; i < keys.size(); ++i) {
          if (bound.value()->Equals(*keys[i])) {
            return Expr::MakeColumn(
                static_cast<int>(i),
                agg_op->output_schema.column(i).name);
          }
        }
      }
      // Otherwise recurse into children (e.g. SUM(x) / COUNT(x) + 1).
      switch (ast.kind) {
        case sql::AstExprKind::kUnary: {
          auto operand = rewrite(*ast.children[0]);
          if (!operand.ok()) return operand.status();
          return Expr::MakeUnary(ast.unary_op, std::move(operand).value());
        }
        case sql::AstExprKind::kBinary: {
          auto lhs = rewrite(*ast.children[0]);
          if (!lhs.ok()) return lhs.status();
          auto rhs = rewrite(*ast.children[1]);
          if (!rhs.ok()) return rhs.status();
          return Expr::MakeBinary(ast.binary_op, std::move(lhs).value(),
                                  std::move(rhs).value());
        }
        case sql::AstExprKind::kLiteral:
          return Expr::MakeLiteral(ast.literal);
        default:
          return Status::InvalidArgument(
              "expression references non-grouped column");
      }
    };

    if (stmt.having != nullptr) {
      auto having = rewrite(*stmt.having);
      if (!having.ok()) return having.status();
      agg_op = LogicalOp::Filter(agg_op, std::move(having).value());
    }

    for (const sql::SelectItem& item : stmt.select_list) {
      if (item.expr->kind == sql::AstExprKind::kStar) {
        return Status::InvalidArgument("SELECT * with aggregation");
      }
      auto expr = rewrite(*item.expr);
      if (!expr.ok()) return expr.status();
      std::string name = item.alias;
      if (name.empty()) {
        name = item.expr->kind == sql::AstExprKind::kColumnRef
                   ? item.expr->column_name
                   : "expr" + std::to_string(projections.size());
      }
      projections.push_back(std::move(expr).value());
      names.push_back(std::move(name));
    }
    plan = LogicalOp::Project(agg_op, projections, names);
  } else {
    // No aggregation: bind select list directly; expand '*'.
    Schema combined = scope.CombinedSchema();
    for (const sql::SelectItem& item : stmt.select_list) {
      if (item.expr->kind == sql::AstExprKind::kStar) {
        for (size_t i = 0; i < combined.num_columns(); ++i) {
          projections.push_back(
              Expr::MakeColumn(static_cast<int>(i), combined.column(i).name));
          names.push_back(combined.column(i).name);
        }
        continue;
      }
      auto expr = BindExpr(*item.expr, scope);
      if (!expr.ok()) return expr.status();
      std::string name = item.alias;
      if (name.empty()) {
        name = item.expr->kind == sql::AstExprKind::kColumnRef
                   ? item.expr->column_name
                   : "expr" + std::to_string(projections.size());
      }
      projections.push_back(std::move(expr).value());
      names.push_back(std::move(name));
    }
    plan = LogicalOp::Project(plan, projections, names);
  }

  if (stmt.distinct) {
    // DISTINCT = group by all output columns with no aggregates.
    std::vector<ExprPtr> keys;
    for (size_t i = 0; i < plan->output_schema.num_columns(); ++i) {
      keys.push_back(
          Expr::MakeColumn(static_cast<int>(i),
                           plan->output_schema.column(i).name));
    }
    plan = LogicalOp::Aggregate(plan, keys, {});
  }

  if (!stmt.order_by.empty()) {
    // ORDER BY binds against the projected output schema (aliases visible).
    BindingScope out_scope;
    RelationBinding out_rel;
    out_rel.schema = plan->output_schema;
    out_scope.relations.push_back(out_rel);
    std::vector<SortKey> sort_keys;
    for (const sql::OrderItem& item : stmt.order_by) {
      auto expr = BindExpr(*item.expr, out_scope);
      if (!expr.ok()) return expr.status();
      sort_keys.push_back({std::move(expr).value(), item.ascending});
    }
    plan = LogicalOp::Sort(plan, std::move(sort_keys));
  }

  if (stmt.limit >= 0) {
    plan = LogicalOp::Limit(plan, stmt.limit);
  }
  return plan;
}

}  // namespace cloudviews
