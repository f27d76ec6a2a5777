#include "plan/expr.h"

#include <algorithm>
#include <cctype>
#include <cmath>

namespace cloudviews {

namespace {

std::shared_ptr<Expr> NewExpr(ExprKind kind) {
  auto e = std::make_shared<Expr>();
  e->kind = kind;
  return e;
}

Result<Value> EvalBinary(sql::BinaryOp op, const Value& lhs, const Value& rhs) {
  using sql::BinaryOp;
  switch (op) {
    case BinaryOp::kAnd: {
      // Three-valued logic: false AND x = false; null AND true = null.
      if (!lhs.is_null() && lhs.type() == DataType::kBool && !lhs.AsBool()) {
        return Value(false);
      }
      if (!rhs.is_null() && rhs.type() == DataType::kBool && !rhs.AsBool()) {
        return Value(false);
      }
      if (lhs.is_null() || rhs.is_null()) return Value::Null();
      return Value(lhs.AsBool() && rhs.AsBool());
    }
    case BinaryOp::kOr: {
      if (!lhs.is_null() && lhs.type() == DataType::kBool && lhs.AsBool()) {
        return Value(true);
      }
      if (!rhs.is_null() && rhs.type() == DataType::kBool && rhs.AsBool()) {
        return Value(true);
      }
      if (lhs.is_null() || rhs.is_null()) return Value::Null();
      return Value(lhs.AsBool() || rhs.AsBool());
    }
    default:
      break;
  }

  if (lhs.is_null() || rhs.is_null()) return Value::Null();

  switch (op) {
    case BinaryOp::kEq:
      return Value(lhs.Compare(rhs) == 0);
    case BinaryOp::kNe:
      return Value(lhs.Compare(rhs) != 0);
    case BinaryOp::kLt:
      return Value(lhs.Compare(rhs) < 0);
    case BinaryOp::kLe:
      return Value(lhs.Compare(rhs) <= 0);
    case BinaryOp::kGt:
      return Value(lhs.Compare(rhs) > 0);
    case BinaryOp::kGe:
      return Value(lhs.Compare(rhs) >= 0);
    default:
      break;
  }

  // Arithmetic. String + string concatenates; everything else is numeric.
  if (op == BinaryOp::kAdd && lhs.type() == DataType::kString &&
      rhs.type() == DataType::kString) {
    return Value(lhs.AsString() + rhs.AsString());
  }
  const bool both_int =
      lhs.type() == DataType::kInt64 && rhs.type() == DataType::kInt64;
  const bool numeric =
      (lhs.type() == DataType::kInt64 || lhs.type() == DataType::kDouble) &&
      (rhs.type() == DataType::kInt64 || rhs.type() == DataType::kDouble);
  if (!numeric) {
    return Status::InvalidArgument("arithmetic on non-numeric values: " +
                                   lhs.ToString() + " vs " + rhs.ToString());
  }
  if (both_int) {
    int64_t out = 0;
    CLOUDVIEWS_RETURN_NOT_OK(
        IntArithmetic(op, lhs.AsInt64(), rhs.AsInt64(), &out));
    return Value(out);
  }
  double a = lhs.NumericValue();
  double b = rhs.NumericValue();
  switch (op) {
    case BinaryOp::kAdd:
      return Value(a + b);
    case BinaryOp::kSubtract:
      return Value(a - b);
    case BinaryOp::kMultiply:
      return Value(a * b);
    case BinaryOp::kDivide:
      if (b == 0.0) return Status::InvalidArgument("division by zero");
      return Value(a / b);
    case BinaryOp::kModulo:
      if (b == 0.0) return Status::InvalidArgument("modulo by zero");
      return Value(std::fmod(a, b));
    default:
      break;
  }
  return Status::Internal("unhandled binary operator");
}

}  // namespace

Status IntArithmetic(sql::BinaryOp op, int64_t a, int64_t b, int64_t* out) {
  using sql::BinaryOp;
  bool overflow = false;
  switch (op) {
    case BinaryOp::kAdd:
      overflow = __builtin_add_overflow(a, b, out);
      break;
    case BinaryOp::kSubtract:
      overflow = __builtin_sub_overflow(a, b, out);
      break;
    case BinaryOp::kMultiply:
      overflow = __builtin_mul_overflow(a, b, out);
      break;
    case BinaryOp::kDivide:
      if (b == 0) return Status::InvalidArgument("integer division by zero");
      // INT64_MIN / -1 is the one quotient outside int64.
      overflow = a == INT64_MIN && b == -1;
      if (!overflow) *out = a / b;
      break;
    case BinaryOp::kModulo:
      if (b == 0) return Status::InvalidArgument("modulo by zero");
      // Every remainder by -1 is 0; computing INT64_MIN % -1 traps.
      *out = b == -1 ? 0 : a % b;
      break;
    default:
      return Status::Internal("unhandled binary operator");
  }
  if (overflow) return Status::InvalidArgument("integer overflow");
  return Status::OK();
}

Status IntSumResult(__int128 total, int64_t* out) {
  if (total < INT64_MIN || total > INT64_MAX) {
    return Status::InvalidArgument("integer overflow");
  }
  *out = static_cast<int64_t>(total);
  return Status::OK();
}

bool LikeMatch(std::string_view text, std::string_view pattern) {
  // Iterative wildcard match: % = any run, _ = any single char.
  size_t t = 0, p = 0;
  size_t star_p = std::string::npos, star_t = 0;
  while (t < text.size()) {
    if (p < pattern.size() &&
        (pattern[p] == '_' || pattern[p] == text[t])) {
      ++t;
      ++p;
    } else if (p < pattern.size() && pattern[p] == '%') {
      star_p = p++;
      star_t = t;
    } else if (star_p != std::string::npos) {
      p = star_p + 1;
      t = ++star_t;
    } else {
      return false;
    }
  }
  while (p < pattern.size() && pattern[p] == '%') ++p;
  return p == pattern.size();
}

ExprPtr Expr::MakeLiteral(Value v) {
  auto e = NewExpr(ExprKind::kLiteral);
  e->literal = std::move(v);
  return e;
}

ExprPtr Expr::MakeColumn(int index, std::string name) {
  auto e = NewExpr(ExprKind::kColumn);
  e->column_index = index;
  e->column_name = std::move(name);
  return e;
}

ExprPtr Expr::MakeUnary(sql::UnaryOp op, ExprPtr operand) {
  auto e = NewExpr(ExprKind::kUnary);
  e->unary_op = op;
  e->children.push_back(std::move(operand));
  return e;
}

ExprPtr Expr::MakeBinary(sql::BinaryOp op, ExprPtr lhs, ExprPtr rhs) {
  auto e = NewExpr(ExprKind::kBinary);
  e->binary_op = op;
  e->children.push_back(std::move(lhs));
  e->children.push_back(std::move(rhs));
  return e;
}

ExprPtr Expr::MakeCall(std::string name, std::vector<ExprPtr> args) {
  auto e = NewExpr(ExprKind::kCall);
  e->function_name = std::move(name);
  e->children = std::move(args);
  return e;
}

ExprPtr Expr::MakeIsNull(ExprPtr operand, bool negated) {
  auto e = NewExpr(ExprKind::kIsNull);
  e->negated = negated;
  e->children.push_back(std::move(operand));
  return e;
}

ExprPtr Expr::MakeLike(ExprPtr operand, std::string pattern, bool negated) {
  auto e = NewExpr(ExprKind::kLike);
  e->like_pattern = std::move(pattern);
  e->negated = negated;
  e->children.push_back(std::move(operand));
  return e;
}

ExprPtr Expr::MakeBetween(ExprPtr v, ExprPtr lo, ExprPtr hi, bool negated) {
  auto e = NewExpr(ExprKind::kBetween);
  e->negated = negated;
  e->children.push_back(std::move(v));
  e->children.push_back(std::move(lo));
  e->children.push_back(std::move(hi));
  return e;
}

ExprPtr Expr::MakeInList(std::vector<ExprPtr> value_then_items, bool negated) {
  auto e = NewExpr(ExprKind::kInList);
  e->negated = negated;
  e->children = std::move(value_then_items);
  return e;
}

Result<Value> Expr::Evaluate(const Row& row) const {
  switch (kind) {
    case ExprKind::kLiteral:
      return literal;
    case ExprKind::kColumn: {
      if (column_index < 0 || static_cast<size_t>(column_index) >= row.size()) {
        return Status::Internal("column index " +
                                std::to_string(column_index) +
                                " out of range for row of arity " +
                                std::to_string(row.size()));
      }
      return row[static_cast<size_t>(column_index)];
    }
    case ExprKind::kUnary: {
      auto v = children[0]->Evaluate(row);
      if (!v.ok()) return v.status();
      const Value& val = v.value();
      if (val.is_null()) return Value::Null();
      if (unary_op == sql::UnaryOp::kNot) {
        if (val.type() != DataType::kBool) {
          return Status::InvalidArgument("NOT applied to non-boolean");
        }
        return Value(!val.AsBool());
      }
      if (val.type() == DataType::kInt64) return Value(-val.AsInt64());
      return Value(-val.NumericValue());
    }
    case ExprKind::kBinary: {
      // AND/OR need lazy-ish handling but we evaluate both: side effects are
      // impossible in this expression language, only errors. Evaluate lhs
      // first and short-circuit where its value already decides the result.
      auto lhs = children[0]->Evaluate(row);
      if (!lhs.ok()) return lhs.status();
      if (binary_op == sql::BinaryOp::kAnd && !lhs.value().is_null() &&
          lhs.value().type() == DataType::kBool && !lhs.value().AsBool()) {
        return Value(false);
      }
      if (binary_op == sql::BinaryOp::kOr && !lhs.value().is_null() &&
          lhs.value().type() == DataType::kBool && lhs.value().AsBool()) {
        return Value(true);
      }
      auto rhs = children[1]->Evaluate(row);
      if (!rhs.ok()) return rhs.status();
      return EvalBinary(binary_op, lhs.value(), rhs.value());
    }
    case ExprKind::kCall: {
      std::vector<Value> args;
      args.reserve(children.size());
      for (const ExprPtr& child : children) {
        auto v = child->Evaluate(row);
        if (!v.ok()) return v.status();
        args.push_back(std::move(v).value());
      }
      if (function_name == "UPPER" || function_name == "LOWER") {
        if (args.size() != 1) {
          return Status::InvalidArgument(function_name + " takes 1 argument");
        }
        if (args[0].is_null()) return Value::Null();
        std::string s = args[0].AsString();
        for (char& c : s) {
          c = function_name == "UPPER"
                  ? static_cast<char>(std::toupper(c))
                  : static_cast<char>(std::tolower(c));
        }
        return Value(std::move(s));
      }
      if (function_name == "LENGTH") {
        if (args.size() != 1 || args[0].is_null()) return Value::Null();
        return Value(static_cast<int64_t>(args[0].AsString().size()));
      }
      if (function_name == "ABS") {
        if (args.size() != 1 || args[0].is_null()) return Value::Null();
        if (args[0].type() == DataType::kInt64) {
          return Value(std::abs(args[0].AsInt64()));
        }
        return Value(std::fabs(args[0].NumericValue()));
      }
      if (function_name == "ROUND") {
        if (args.empty() || args[0].is_null()) return Value::Null();
        return Value(std::round(args[0].NumericValue()));
      }
      if (function_name == "SUBSTR") {
        if (args.size() != 3 || args[0].is_null()) return Value::Null();
        const std::string& s = args[0].AsString();
        int64_t start = args[1].AsInt64();  // 1-based
        int64_t len = args[2].AsInt64();
        if (start < 1) start = 1;
        if (static_cast<size_t>(start - 1) >= s.size() || len <= 0) {
          return Value(std::string());
        }
        return Value(s.substr(static_cast<size_t>(start - 1),
                              static_cast<size_t>(len)));
      }
      return Status::NotSupported("unknown scalar function: " + function_name);
    }
    case ExprKind::kBetween: {
      auto v = children[0]->Evaluate(row);
      if (!v.ok()) return v.status();
      auto lo = children[1]->Evaluate(row);
      if (!lo.ok()) return lo.status();
      auto hi = children[2]->Evaluate(row);
      if (!hi.ok()) return hi.status();
      if (v.value().is_null() || lo.value().is_null() || hi.value().is_null()) {
        return Value::Null();
      }
      bool in = v.value().Compare(lo.value()) >= 0 &&
                v.value().Compare(hi.value()) <= 0;
      return Value(negated ? !in : in);
    }
    case ExprKind::kInList: {
      auto v = children[0]->Evaluate(row);
      if (!v.ok()) return v.status();
      if (v.value().is_null()) return Value::Null();
      for (size_t i = 1; i < children.size(); ++i) {
        auto item = children[i]->Evaluate(row);
        if (!item.ok()) return item.status();
        if (!item.value().is_null() && v.value().Compare(item.value()) == 0) {
          return Value(!negated);
        }
      }
      return Value(negated);
    }
    case ExprKind::kIsNull: {
      auto v = children[0]->Evaluate(row);
      if (!v.ok()) return v.status();
      bool is_null = v.value().is_null();
      return Value(negated ? !is_null : is_null);
    }
    case ExprKind::kLike: {
      auto v = children[0]->Evaluate(row);
      if (!v.ok()) return v.status();
      if (v.value().is_null()) return Value::Null();
      if (v.value().type() != DataType::kString) {
        return Status::InvalidArgument("LIKE applied to non-string");
      }
      bool m = LikeMatch(v.value().AsString(), like_pattern);
      return Value(negated ? !m : m);
    }
  }
  return Status::Internal("unhandled expression kind");
}

DataType Expr::InferType(const Schema& input) const {
  switch (kind) {
    case ExprKind::kLiteral:
      return literal.type();
    case ExprKind::kColumn:
      if (column_index >= 0 &&
          static_cast<size_t>(column_index) < input.num_columns()) {
        return input.column(static_cast<size_t>(column_index)).type;
      }
      return DataType::kNull;
    case ExprKind::kUnary:
      if (unary_op == sql::UnaryOp::kNot) return DataType::kBool;
      return children[0]->InferType(input);
    case ExprKind::kBinary:
      switch (binary_op) {
        case sql::BinaryOp::kEq:
        case sql::BinaryOp::kNe:
        case sql::BinaryOp::kLt:
        case sql::BinaryOp::kLe:
        case sql::BinaryOp::kGt:
        case sql::BinaryOp::kGe:
        case sql::BinaryOp::kAnd:
        case sql::BinaryOp::kOr:
          return DataType::kBool;
        default: {
          DataType lhs = children[0]->InferType(input);
          DataType rhs = children[1]->InferType(input);
          if (lhs == DataType::kString && rhs == DataType::kString) {
            return DataType::kString;
          }
          if (lhs == DataType::kDouble || rhs == DataType::kDouble ||
              binary_op == sql::BinaryOp::kDivide) {
            return DataType::kDouble;
          }
          return DataType::kInt64;
        }
      }
    case ExprKind::kCall:
      if (function_name == "UPPER" || function_name == "LOWER" ||
          function_name == "SUBSTR") {
        return DataType::kString;
      }
      if (function_name == "LENGTH") return DataType::kInt64;
      if (function_name == "ROUND" || function_name == "ABS") {
        return children.empty() ? DataType::kDouble
                                : children[0]->InferType(input);
      }
      return DataType::kNull;
    case ExprKind::kBetween:
    case ExprKind::kInList:
    case ExprKind::kIsNull:
    case ExprKind::kLike:
      return DataType::kBool;
  }
  return DataType::kNull;
}

void Expr::HashInto(Hasher* hasher, bool include_literals) const {
  hasher->Update(static_cast<uint64_t>(kind) + 0x1000);
  switch (kind) {
    case ExprKind::kLiteral:
      if (include_literals) {
        literal.HashInto(hasher);
      } else {
        // Recurring signatures keep only the literal's type, treating the
        // value as a time-varying parameter.
        hasher->Update(static_cast<uint64_t>(literal.type()));
      }
      break;
    case ExprKind::kColumn:
      hasher->Update(uint64_t{0xC01u});
      hasher->Update(static_cast<uint64_t>(column_index));
      break;
    case ExprKind::kUnary:
      hasher->Update(static_cast<uint64_t>(unary_op));
      break;
    case ExprKind::kBinary:
      hasher->Update(static_cast<uint64_t>(binary_op));
      break;
    case ExprKind::kCall:
      hasher->Update(std::string_view(function_name));
      break;
    case ExprKind::kBetween:
    case ExprKind::kInList:
    case ExprKind::kIsNull:
      hasher->Update(negated);
      break;
    case ExprKind::kLike:
      hasher->Update(negated);
      if (include_literals) {
        hasher->Update(std::string_view(like_pattern));
      }
      break;
  }
  hasher->Update(uint64_t{children.size()});
  for (const ExprPtr& child : children) {
    child->HashInto(hasher, include_literals);
  }
}

ExprPtr Expr::RemapColumns(const std::vector<int>& mapping) const {
  if (kind == ExprKind::kColumn) {
    if (column_index < 0 ||
        static_cast<size_t>(column_index) >= mapping.size() ||
        mapping[static_cast<size_t>(column_index)] < 0) {
      return nullptr;
    }
    return MakeColumn(mapping[static_cast<size_t>(column_index)], column_name);
  }
  auto copy = std::make_shared<Expr>(*this);
  copy->children.clear();
  for (const ExprPtr& child : children) {
    ExprPtr remapped = child->RemapColumns(mapping);
    if (remapped == nullptr) return nullptr;
    copy->children.push_back(std::move(remapped));
  }
  return copy;
}

void Expr::CollectColumns(std::vector<int>* out) const {
  if (kind == ExprKind::kColumn && column_index >= 0) {
    if (std::find(out->begin(), out->end(), column_index) == out->end()) {
      out->push_back(column_index);
    }
  }
  for (const ExprPtr& child : children) child->CollectColumns(out);
  std::sort(out->begin(), out->end());
}

bool Expr::Equals(const Expr& other) const {
  if (kind != other.kind || children.size() != other.children.size()) {
    return false;
  }
  switch (kind) {
    case ExprKind::kLiteral:
      if (literal.is_null() != other.literal.is_null()) return false;
      if (!literal.is_null() && literal.Compare(other.literal) != 0) {
        return false;
      }
      if (literal.type() != other.literal.type()) return false;
      break;
    case ExprKind::kColumn:
      if (column_index != other.column_index) return false;
      break;
    case ExprKind::kUnary:
      if (unary_op != other.unary_op) return false;
      break;
    case ExprKind::kBinary:
      if (binary_op != other.binary_op) return false;
      break;
    case ExprKind::kCall:
      if (function_name != other.function_name) return false;
      break;
    case ExprKind::kLike:
      if (like_pattern != other.like_pattern || negated != other.negated) {
        return false;
      }
      break;
    case ExprKind::kBetween:
    case ExprKind::kInList:
    case ExprKind::kIsNull:
      if (negated != other.negated) return false;
      break;
  }
  for (size_t i = 0; i < children.size(); ++i) {
    if (!children[i]->Equals(*other.children[i])) return false;
  }
  return true;
}

std::string Expr::ToString() const {
  switch (kind) {
    case ExprKind::kLiteral:
      return literal.type() == DataType::kString ? "'" + literal.ToString() + "'"
                                                 : literal.ToString();
    case ExprKind::kColumn:
      return column_name.empty() ? "$" + std::to_string(column_index)
                                 : column_name;
    case ExprKind::kUnary:
      return (unary_op == sql::UnaryOp::kNot ? "NOT " : "-") +
             children[0]->ToString();
    case ExprKind::kBinary: {
      const char* op = "?";
      switch (binary_op) {
        case sql::BinaryOp::kAdd:
          op = "+";
          break;
        case sql::BinaryOp::kSubtract:
          op = "-";
          break;
        case sql::BinaryOp::kMultiply:
          op = "*";
          break;
        case sql::BinaryOp::kDivide:
          op = "/";
          break;
        case sql::BinaryOp::kModulo:
          op = "%";
          break;
        case sql::BinaryOp::kEq:
          op = "=";
          break;
        case sql::BinaryOp::kNe:
          op = "<>";
          break;
        case sql::BinaryOp::kLt:
          op = "<";
          break;
        case sql::BinaryOp::kLe:
          op = "<=";
          break;
        case sql::BinaryOp::kGt:
          op = ">";
          break;
        case sql::BinaryOp::kGe:
          op = ">=";
          break;
        case sql::BinaryOp::kAnd:
          op = "AND";
          break;
        case sql::BinaryOp::kOr:
          op = "OR";
          break;
      }
      return "(" + children[0]->ToString() + " " + op + " " +
             children[1]->ToString() + ")";
    }
    case ExprKind::kCall: {
      std::string out = function_name + "(";
      for (size_t i = 0; i < children.size(); ++i) {
        if (i > 0) out += ", ";
        out += children[i]->ToString();
      }
      return out + ")";
    }
    case ExprKind::kBetween:
      return children[0]->ToString() + (negated ? " NOT BETWEEN " : " BETWEEN ") +
             children[1]->ToString() + " AND " + children[2]->ToString();
    case ExprKind::kInList: {
      std::string out =
          children[0]->ToString() + (negated ? " NOT IN (" : " IN (");
      for (size_t i = 1; i < children.size(); ++i) {
        if (i > 1) out += ", ";
        out += children[i]->ToString();
      }
      return out + ")";
    }
    case ExprKind::kIsNull:
      return children[0]->ToString() + (negated ? " IS NOT NULL" : " IS NULL");
    case ExprKind::kLike:
      return children[0]->ToString() + (negated ? " NOT LIKE '" : " LIKE '") +
             like_pattern + "'";
  }
  return "?";
}

}  // namespace cloudviews
