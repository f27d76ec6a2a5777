#include "exec/batch_kernels.h"

#include <cctype>
#include <cmath>
#include <cstdlib>
#include <memory>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>

namespace cloudviews {

namespace {

using sql::BinaryOp;
using sql::UnaryOp;

Status EvalColumnRef(const Expr& expr, const EvalInput& in, ColumnPtr* out) {
  const int idx = expr.column_index;
  if (idx < 0 || static_cast<size_t>(idx) >= in.columns->size()) {
    return Status::Internal(
        "column index " + std::to_string(idx) + " out of range for row of arity " +
        std::to_string(in.columns->size()));
  }
  const ColumnPtr& col = (*in.columns)[static_cast<size_t>(idx)];
  if (col == nullptr) {
    return Status::Internal("column index " + std::to_string(idx) +
                            " not gathered for sub-evaluation");
  }
  *out = col;
  return Status::OK();
}

Status EvalUnary(const Expr& expr, const EvalInput& in, ColumnPtr* out) {
  ColumnPtr operand;
  Status st = EvalExprBatch(*expr.children[0], in, &operand);
  if (!st.ok()) return st;
  const bool is_not = expr.unary_op == UnaryOp::kNot;
  auto result = std::make_shared<ColumnVector>();
  result->Reserve(in.num_rows, is_not ? DataType::kBool : DataType::kNull);
  if (is_not) {
    for (size_t i = 0; i < in.num_rows; ++i) {
      if (operand->IsNull(i)) {
        result->AppendNull();
        continue;
      }
      if (operand->CellType(i) != DataType::kBool) {
        return Status::InvalidArgument("NOT applied to non-boolean");
      }
      result->AppendBool(!operand->CellBool(i));
    }
    *out = std::move(result);
    return Status::OK();
  }
  // Negate: integers stay integers, everything else goes through the
  // NumericValue coercion (so -bool and -string are doubles), exactly as
  // Expr::Evaluate does.
  if (!operand->mixed() && operand->type() == DataType::kInt64) {
    const std::vector<int64_t>& v = operand->ints();
    for (size_t i = 0; i < in.num_rows; ++i) {
      if (operand->IsNull(i)) {
        result->AppendNull();
      } else {
        result->AppendInt64(-v[i]);
      }
    }
  } else {
    for (size_t i = 0; i < in.num_rows; ++i) {
      if (operand->IsNull(i)) {
        result->AppendNull();
      } else if (operand->CellType(i) == DataType::kInt64) {
        result->AppendInt64(-operand->CellInt64(i));
      } else {
        result->AppendDouble(-operand->CellNumeric(i));
      }
    }
  }
  *out = std::move(result);
  return Status::OK();
}

bool IsComparisonOp(BinaryOp op) {
  switch (op) {
    case BinaryOp::kEq:
    case BinaryOp::kNe:
    case BinaryOp::kLt:
    case BinaryOp::kLe:
    case BinaryOp::kGt:
    case BinaryOp::kGe:
      return true;
    default:
      return false;
  }
}

bool ComparisonResult(BinaryOp op, int cmp) {
  switch (op) {
    case BinaryOp::kEq:
      return cmp == 0;
    case BinaryOp::kNe:
      return cmp != 0;
    case BinaryOp::kLt:
      return cmp < 0;
    case BinaryOp::kLe:
      return cmp <= 0;
    case BinaryOp::kGt:
      return cmp > 0;
    default:
      return cmp >= 0;  // kGe
  }
}

// Word-wise AND of the operand bitmaps: the result is null wherever either
// operand is, exactly the null semantics of the per-cell loops.
std::vector<uint64_t> AndValid(const ColumnVector& a, const ColumnVector& b,
                               size_t n) {
  const std::vector<uint64_t>& wa = a.valid_words();
  const std::vector<uint64_t>& wb = b.valid_words();
  std::vector<uint64_t> out((n + 63) / 64);
  for (size_t i = 0; i < out.size(); ++i) out[i] = wa[i] & wb[i];
  return out;
}

// One comparison operand: a column, or a non-null literal that stands for a
// column holding it in every row. At most one operand is a literal.
struct CompareOperand {
  const ColumnVector* column = nullptr;
  const Value* literal = nullptr;

  // The type every non-null cell has; kNull for a mixed column.
  DataType type() const {
    if (literal != nullptr) return literal->type();
    return column->mixed() ? DataType::kNull : column->type();
  }
};

template <typename T>
T LiteralAs(const Value& v) {
  if constexpr (std::is_same_v<T, int64_t>) {
    return v.AsInt64();
  } else if constexpr (std::is_same_v<T, double>) {
    return v.NumericValue();
  } else {
    return std::string_view(v.AsString());
  }
}

// Calls `f` with a lane of a typed operand read as T: lane(i) is row i's
// value (null slots hold defaults), or the literal in every row. An int64
// column read as double converts as CompareCells does for an int/double
// pair; T is int64_t only when the operand is int64.
template <typename T, typename F>
void WithLane(const CompareOperand& o, F&& f) {
  if (o.literal != nullptr) {
    const T v = LiteralAs<T>(*o.literal);
    f([&v](size_t) -> const T& { return v; });
    return;
  }
  const ColumnVector& c = *o.column;
  if constexpr (std::is_same_v<T, std::string_view>) {
    f([&c](size_t i) { return c.StringAt(i); });
  } else if constexpr (std::is_same_v<T, int64_t>) {
    f([&v = c.ints()](size_t i) { return v[i]; });
  } else if (c.type() == DataType::kInt64) {
    f([&v = c.ints()](size_t i) { return static_cast<double>(v[i]); });
  } else {
    f([&v = c.doubles()](size_t i) { return v[i]; });
  }
}

template <typename T>
int ThreeWay(const T& a, const T& b) {
  if constexpr (std::is_same_v<T, std::string_view>) {
    const int c = a.compare(b);
    return c < 0 ? -1 : (c > 0 ? 1 : 0);
  } else {
    return a < b ? -1 : (a > b ? 1 : 0);
  }
}

// The operator's answer for each three-way outcome is looked up once per
// call, so the loop body selects among three bytes instead of switching on
// the operator per lane.
template <typename T>
void CompareLanes(BinaryOp op, const CompareOperand& lhs,
                  const CompareOperand& rhs, size_t n, uint8_t* cells) {
  const uint8_t on_less = ComparisonResult(op, -1) ? 1 : 0;
  const uint8_t on_equal = ComparisonResult(op, 0) ? 1 : 0;
  const uint8_t on_greater = ComparisonResult(op, 1) ? 1 : 0;
  WithLane<T>(lhs, [&](const auto& a) {
    WithLane<T>(rhs, [&](const auto& b) {
      for (size_t i = 0; i < n; ++i) {
        const int cmp = ThreeWay<T>(a(i), b(i));
        cells[i] = cmp < 0 ? on_less : (cmp > 0 ? on_greater : on_equal);
      }
    });
  });
}

// Typed operands (int64/double with int64/double, string with string)
// compare over every lane and then mask — a literal is never null, so the
// result is null wherever a column operand is, and DenseBool normalizes
// null slots back to 0. Any other pair compares cell by cell through
// CompareCells, a literal broadcast into a column first.
Status EvalComparison(BinaryOp op, const CompareOperand& lhs,
                      const CompareOperand& rhs, size_t n, ColumnPtr* out) {
  const DataType lt = lhs.type();
  const DataType rt = rhs.type();
  const bool numeric = (lt == DataType::kInt64 || lt == DataType::kDouble) &&
                       (rt == DataType::kInt64 || rt == DataType::kDouble);
  if (numeric || (lt == DataType::kString && rt == DataType::kString)) {
    std::vector<uint8_t> cells(n);
    if (lt == DataType::kInt64 && rt == DataType::kInt64) {
      CompareLanes<int64_t>(op, lhs, rhs, n, cells.data());
    } else if (numeric) {
      // Cross-type numeric comparison goes through double, exactly as
      // CompareCells does for an int/double pair.
      CompareLanes<double>(op, lhs, rhs, n, cells.data());
    } else {
      CompareLanes<std::string_view>(op, lhs, rhs, n, cells.data());
    }
    std::vector<uint64_t> valid =
        lhs.literal != nullptr   ? rhs.column->valid_words()
        : rhs.literal != nullptr ? lhs.column->valid_words()
                                 : AndValid(*lhs.column, *rhs.column, n);
    *out = ColumnVector::DenseBool(std::move(cells), std::move(valid), n);
    return Status::OK();
  }
  ColumnPtr broadcast;
  if (const Value* lit = lhs.literal != nullptr ? lhs.literal : rhs.literal) {
    broadcast = BroadcastValue(*lit, n);
  }
  const ColumnVector& l = lhs.literal != nullptr ? *broadcast : *lhs.column;
  const ColumnVector& r = rhs.literal != nullptr ? *broadcast : *rhs.column;
  auto result = std::make_shared<ColumnVector>();
  result->Reserve(n, DataType::kBool);
  for (size_t i = 0; i < n; ++i) {
    if (l.IsNull(i) || r.IsNull(i)) {
      result->AppendNull();
    } else {
      result->AppendBool(ComparisonResult(op, CompareCells(l, i, r, i)));
    }
  }
  *out = std::move(result);
  return Status::OK();
}

bool IsValueLiteral(const Expr& expr) {
  return expr.kind == ExprKind::kLiteral && !expr.literal.is_null();
}

// One arithmetic cell, mirroring EvalBinary's arithmetic tail (both operands
// non-null). Appends the result to `out`.
Status ArithmeticCell(BinaryOp op, const ColumnVector& lhs, size_t i,
                      const ColumnVector& rhs, size_t j, ColumnVector* out) {
  const DataType lt = lhs.CellType(i);
  const DataType rt = rhs.CellType(j);
  if (op == BinaryOp::kAdd && lt == DataType::kString &&
      rt == DataType::kString) {
    std::string joined(lhs.CellString(i));
    joined += rhs.CellString(j);
    out->AppendString(joined);
    return Status::OK();
  }
  const bool both_int = lt == DataType::kInt64 && rt == DataType::kInt64;
  const bool numeric =
      (lt == DataType::kInt64 || lt == DataType::kDouble) &&
      (rt == DataType::kInt64 || rt == DataType::kDouble);
  if (!numeric) {
    return Status::InvalidArgument("arithmetic on non-numeric values: " +
                                   lhs.CellToString(i) + " vs " +
                                   rhs.CellToString(j));
  }
  if (both_int) {
    int64_t result = 0;
    CLOUDVIEWS_RETURN_NOT_OK(
        IntArithmetic(op, lhs.CellInt64(i), rhs.CellInt64(j), &result));
    out->AppendInt64(result);
    return Status::OK();
  }
  double a = lhs.CellNumeric(i);
  double b = rhs.CellNumeric(j);
  switch (op) {
    case BinaryOp::kAdd:
      out->AppendDouble(a + b);
      return Status::OK();
    case BinaryOp::kSubtract:
      out->AppendDouble(a - b);
      return Status::OK();
    case BinaryOp::kMultiply:
      out->AppendDouble(a * b);
      return Status::OK();
    case BinaryOp::kDivide:
      if (b == 0.0) return Status::InvalidArgument("division by zero");
      out->AppendDouble(a / b);
      return Status::OK();
    case BinaryOp::kModulo:
      if (b == 0.0) return Status::InvalidArgument("modulo by zero");
      out->AppendDouble(std::fmod(a, b));
      return Status::OK();
    default:
      break;
  }
  return Status::Internal("unhandled binary operator");
}

Status EvalArithmetic(BinaryOp op, const ColumnVector& lhs,
                      const ColumnVector& rhs, size_t n, ColumnPtr* out) {
  const bool typed = !lhs.mixed() && !rhs.mixed();
  const bool both_int = typed && lhs.type() == DataType::kInt64 &&
                        rhs.type() == DataType::kInt64;
  const bool lhs_num = typed && (lhs.type() == DataType::kInt64 ||
                                 lhs.type() == DataType::kDouble);
  const bool rhs_num = typed && (rhs.type() == DataType::kInt64 ||
                                 rhs.type() == DataType::kDouble);
  if (both_int && op != BinaryOp::kDivide && op != BinaryOp::kModulo) {
    // Dense typed kernel: compute on every lane and let DenseInt64
    // normalize null slots back to 0. A null lane (holding 0) can overflow
    // too, 0 - INT64_MIN, so only a non-null lane's overflow is an error,
    // the same one IntArithmetic returns.
    const std::vector<int64_t>& a = lhs.ints();
    const std::vector<int64_t>& b = rhs.ints();
    std::vector<int64_t> cells(n);
    std::vector<uint64_t> valid = AndValid(lhs, rhs, n);
    bool overflow = false;
    auto lanes = [&](auto checked_op) {
      for (size_t i = 0; i < n; ++i) {
        const bool lane = checked_op(a[i], b[i], &cells[i]);
        overflow |= lane & (((valid[i >> 6] >> (i & 63)) & 1) != 0);
      }
    };
    switch (op) {
      case BinaryOp::kAdd:
        lanes([](int64_t x, int64_t y, int64_t* r) {
          return __builtin_add_overflow(x, y, r);
        });
        break;
      case BinaryOp::kSubtract:
        lanes([](int64_t x, int64_t y, int64_t* r) {
          return __builtin_sub_overflow(x, y, r);
        });
        break;
      default:
        lanes([](int64_t x, int64_t y, int64_t* r) {
          return __builtin_mul_overflow(x, y, r);
        });
        break;
    }
    if (overflow) return Status::InvalidArgument("integer overflow");
    *out = ColumnVector::DenseInt64(std::move(cells), std::move(valid), n);
    return Status::OK();
  } else if (lhs_num && rhs_num && !both_int && op != BinaryOp::kDivide &&
             op != BinaryOp::kModulo) {
    const bool l_int = lhs.type() == DataType::kInt64;
    const bool r_int = rhs.type() == DataType::kInt64;
    std::vector<double> cells(n);
    for (size_t i = 0; i < n; ++i) {
      const double a =
          l_int ? static_cast<double>(lhs.ints()[i]) : lhs.doubles()[i];
      const double b =
          r_int ? static_cast<double>(rhs.ints()[i]) : rhs.doubles()[i];
      switch (op) {
        case BinaryOp::kAdd:
          cells[i] = a + b;
          break;
        case BinaryOp::kSubtract:
          cells[i] = a - b;
          break;
        default:
          cells[i] = a * b;
          break;
      }
    }
    *out =
        ColumnVector::DenseDouble(std::move(cells), AndValid(lhs, rhs, n), n);
    return Status::OK();
  }
  auto result = std::make_shared<ColumnVector>();
  result->Reserve(n);
  for (size_t i = 0; i < n; ++i) {
    if (lhs.IsNull(i) || rhs.IsNull(i)) {
      result->AppendNull();
      continue;
    }
    Status st = ArithmeticCell(op, lhs, i, rhs, i, result.get());
    if (!st.ok()) return st;
  }
  *out = std::move(result);
  return Status::OK();
}

// AND/OR with the row engine's short-circuit contract: the right operand is
// evaluated only for rows the left side leaves undecided.
Status EvalAndOr(const Expr& expr, const EvalInput& in, ColumnPtr* out) {
  const bool is_and = expr.binary_op == BinaryOp::kAnd;
  ColumnPtr lhs;
  Status st = EvalExprBatch(*expr.children[0], in, &lhs);
  if (!st.ok()) return st;
  const size_t n = in.num_rows;
  const uint8_t short_circuit = is_and ? 0 : 1;
  std::vector<uint32_t> undecided;
  if (!lhs->mixed() && lhs->type() == DataType::kBool) {
    const std::vector<uint8_t>& v = lhs->bools();
    for (size_t i = 0; i < n; ++i) {
      const bool decides = !lhs->IsNull(i) && (v[i] != 0) == !is_and;
      if (!decides) undecided.push_back(static_cast<uint32_t>(i));
    }
  } else {
    for (size_t i = 0; i < n; ++i) {
      const bool decides = !lhs->IsNull(i) &&
                           lhs->CellType(i) == DataType::kBool &&
                           lhs->CellBool(i) == !is_and;
      if (!decides) undecided.push_back(static_cast<uint32_t>(i));
    }
  }
  // Dense result: decided rows carry the short-circuit value; the merge loop
  // below only touches undecided rows.
  std::vector<uint8_t> cells(n, short_circuit);
  if (undecided.empty()) {
    *out = ColumnVector::DenseBool(std::move(cells), ColumnVector::AllValid(n),
                                   n);
    return Status::OK();
  }
  std::vector<ColumnPtr> sub_cols;
  GatherReferenced(*expr.children[1], *in.columns, undecided, {}, {},
                   &sub_cols);
  EvalInput sub{&sub_cols, undecided.size()};
  ColumnPtr rhs;
  st = EvalExprBatch(*expr.children[1], sub, &rhs);
  if (!st.ok()) return st;
  std::vector<uint64_t> valid = ColumnVector::AllValid(n);
  for (size_t k = 0; k < undecided.size(); ++k) {
    const size_t i = undecided[k];
    // Mirror of EvalBinary's kAnd/kOr arm for an undecided left side.
    if (!rhs->IsNull(k) && rhs->CellType(k) == DataType::kBool &&
        rhs->CellBool(k) == !is_and) {
      cells[i] = short_circuit;
      continue;
    }
    if (lhs->IsNull(i) || rhs->IsNull(k)) {
      cells[i] = 0;
      valid[i >> 6] &= ~(uint64_t{1} << (i & 63));
      continue;
    }
    if (lhs->CellType(i) != DataType::kBool ||
        rhs->CellType(k) != DataType::kBool) {
      return Status::Internal("AND/OR applied to non-boolean");
    }
    const bool combined = is_and ? (lhs->CellBool(i) && rhs->CellBool(k))
                                 : (lhs->CellBool(i) || rhs->CellBool(k));
    cells[i] = combined ? 1 : 0;
  }
  *out = ColumnVector::DenseBool(std::move(cells), std::move(valid), n);
  return Status::OK();
}

Status EvalBinaryBatch(const Expr& expr, const EvalInput& in, ColumnPtr* out) {
  if (expr.binary_op == BinaryOp::kAnd || expr.binary_op == BinaryOp::kOr) {
    return EvalAndOr(expr, in, out);
  }
  if (IsComparisonOp(expr.binary_op)) {
    // One non-null literal operand (the right one if both are) stays a
    // scalar. A literal never fails to evaluate, so evaluating only the
    // other operand surfaces the same errors.
    const bool literal_right = IsValueLiteral(*expr.children[1]);
    const bool literal_left =
        !literal_right && IsValueLiteral(*expr.children[0]);
    ColumnPtr cols[2];
    CompareOperand operands[2];
    for (int side = 0; side < 2; ++side) {
      const Expr& child = *expr.children[static_cast<size_t>(side)];
      if (side == 0 ? literal_left : literal_right) {
        operands[side].literal = &child.literal;
        continue;
      }
      Status st = EvalExprBatch(child, in, &cols[side]);
      if (!st.ok()) return st;
      operands[side].column = cols[side].get();
    }
    return EvalComparison(expr.binary_op, operands[0], operands[1],
                          in.num_rows, out);
  }
  ColumnPtr lhs;
  Status st = EvalExprBatch(*expr.children[0], in, &lhs);
  if (!st.ok()) return st;
  ColumnPtr rhs;
  st = EvalExprBatch(*expr.children[1], in, &rhs);
  if (!st.ok()) return st;
  return EvalArithmetic(expr.binary_op, *lhs, *rhs, in.num_rows, out);
}

Status EvalCall(const Expr& expr, const EvalInput& in, ColumnPtr* out) {
  std::vector<ColumnPtr> args;
  args.reserve(expr.children.size());
  for (const ExprPtr& child : expr.children) {
    ColumnPtr col;
    Status st = EvalExprBatch(*child, in, &col);
    if (!st.ok()) return st;
    args.push_back(std::move(col));
  }
  const std::string& name = expr.function_name;
  const size_t n = in.num_rows;
  auto result = std::make_shared<ColumnVector>();
  result->Reserve(n);
  auto all_null = [&]() {
    for (size_t i = 0; i < n; ++i) result->AppendNull();
    *out = std::move(result);
    return Status::OK();
  };
  if (name == "UPPER" || name == "LOWER") {
    if (args.size() != 1) {
      return Status::InvalidArgument(name + " takes 1 argument");
    }
    const bool upper = name == "UPPER";
    for (size_t i = 0; i < n; ++i) {
      if (args[0]->IsNull(i)) {
        result->AppendNull();
        continue;
      }
      if (args[0]->CellType(i) != DataType::kString) {
        return Status::Internal(name + " applied to non-string");
      }
      std::string s(args[0]->CellString(i));
      for (char& c : s) {
        c = upper ? static_cast<char>(std::toupper(c))
                  : static_cast<char>(std::tolower(c));
      }
      result->AppendString(s);
    }
    *out = std::move(result);
    return Status::OK();
  }
  if (name == "LENGTH") {
    if (args.size() != 1) return all_null();
    for (size_t i = 0; i < n; ++i) {
      if (args[0]->IsNull(i)) {
        result->AppendNull();
        continue;
      }
      if (args[0]->CellType(i) != DataType::kString) {
        return Status::Internal("LENGTH applied to non-string");
      }
      result->AppendInt64(static_cast<int64_t>(args[0]->CellString(i).size()));
    }
    *out = std::move(result);
    return Status::OK();
  }
  if (name == "ABS") {
    if (args.size() != 1) return all_null();
    for (size_t i = 0; i < n; ++i) {
      if (args[0]->IsNull(i)) {
        result->AppendNull();
      } else if (args[0]->CellType(i) == DataType::kInt64) {
        result->AppendInt64(std::abs(args[0]->CellInt64(i)));
      } else {
        result->AppendDouble(std::fabs(args[0]->CellNumeric(i)));
      }
    }
    *out = std::move(result);
    return Status::OK();
  }
  if (name == "ROUND") {
    if (args.empty()) return all_null();
    for (size_t i = 0; i < n; ++i) {
      if (args[0]->IsNull(i)) {
        result->AppendNull();
      } else {
        result->AppendDouble(std::round(args[0]->CellNumeric(i)));
      }
    }
    *out = std::move(result);
    return Status::OK();
  }
  if (name == "SUBSTR") {
    if (args.size() != 3) return all_null();
    for (size_t i = 0; i < n; ++i) {
      if (args[0]->IsNull(i)) {
        result->AppendNull();
        continue;
      }
      if (args[0]->CellType(i) != DataType::kString ||
          args[1]->CellType(i) != DataType::kInt64 ||
          args[2]->CellType(i) != DataType::kInt64) {
        return Status::Internal("SUBSTR argument type mismatch");
      }
      const std::string_view s = args[0]->CellString(i);
      int64_t start = args[1]->CellInt64(i);  // 1-based
      int64_t len = args[2]->CellInt64(i);
      if (start < 1) start = 1;
      if (static_cast<size_t>(start - 1) >= s.size() || len <= 0) {
        result->AppendString(std::string_view());
        continue;
      }
      result->AppendString(s.substr(static_cast<size_t>(start - 1),
                                    static_cast<size_t>(len)));
    }
    *out = std::move(result);
    return Status::OK();
  }
  return Status::NotSupported("unknown scalar function: " + name);
}

Status EvalBetween(const Expr& expr, const EvalInput& in, ColumnPtr* out) {
  ColumnPtr v, lo, hi;
  Status st = EvalExprBatch(*expr.children[0], in, &v);
  if (!st.ok()) return st;
  st = EvalExprBatch(*expr.children[1], in, &lo);
  if (!st.ok()) return st;
  st = EvalExprBatch(*expr.children[2], in, &hi);
  if (!st.ok()) return st;
  auto result = std::make_shared<ColumnVector>();
  result->Reserve(in.num_rows, DataType::kBool);
  for (size_t i = 0; i < in.num_rows; ++i) {
    if (v->IsNull(i) || lo->IsNull(i) || hi->IsNull(i)) {
      result->AppendNull();
      continue;
    }
    const bool inside = CompareCells(*v, i, *lo, i) >= 0 &&
                        CompareCells(*v, i, *hi, i) <= 0;
    result->AppendBool(expr.negated ? !inside : inside);
  }
  *out = std::move(result);
  return Status::OK();
}

// IN-list with the row engine's early-return contract: once a row matches an
// item, later items are never evaluated for that row.
Status EvalInList(const Expr& expr, const EvalInput& in, ColumnPtr* out) {
  ColumnPtr value;
  Status st = EvalExprBatch(*expr.children[0], in, &value);
  if (!st.ok()) return st;
  const size_t n = in.num_rows;
  // Per-row state: 0 = null value, 1 = matched, 2 = still searching.
  std::vector<uint8_t> state(n, 2);
  std::vector<uint32_t> undecided;
  for (size_t i = 0; i < n; ++i) {
    if (value->IsNull(i)) {
      state[i] = 0;
    } else {
      undecided.push_back(static_cast<uint32_t>(i));
    }
  }
  for (size_t item = 1; item < expr.children.size() && !undecided.empty();
       ++item) {
    std::vector<ColumnPtr> sub_cols;
    GatherReferenced(*expr.children[item], *in.columns, undecided, {}, {},
                     &sub_cols);
    EvalInput sub{&sub_cols, undecided.size()};
    ColumnPtr item_col;
    st = EvalExprBatch(*expr.children[item], sub, &item_col);
    if (!st.ok()) return st;
    std::vector<uint32_t> still;
    for (size_t k = 0; k < undecided.size(); ++k) {
      const uint32_t row = undecided[k];
      if (!item_col->IsNull(k) &&
          CompareCells(*value, row, *item_col, k) == 0) {
        state[row] = 1;
      } else {
        still.push_back(row);
      }
    }
    undecided.swap(still);
  }
  auto result = std::make_shared<ColumnVector>();
  result->Reserve(n, DataType::kBool);
  for (size_t i = 0; i < n; ++i) {
    if (state[i] == 0) {
      result->AppendNull();
    } else if (state[i] == 1) {
      result->AppendBool(!expr.negated);
    } else {
      result->AppendBool(expr.negated);
    }
  }
  *out = std::move(result);
  return Status::OK();
}

Status EvalIsNull(const Expr& expr, const EvalInput& in, ColumnPtr* out) {
  ColumnPtr v;
  Status st = EvalExprBatch(*expr.children[0], in, &v);
  if (!st.ok()) return st;
  auto result = std::make_shared<ColumnVector>();
  result->Reserve(in.num_rows, DataType::kBool);
  for (size_t i = 0; i < in.num_rows; ++i) {
    const bool is_null = v->IsNull(i);
    result->AppendBool(expr.negated ? !is_null : is_null);
  }
  *out = std::move(result);
  return Status::OK();
}

Status EvalLike(const Expr& expr, const EvalInput& in, ColumnPtr* out) {
  ColumnPtr v;
  Status st = EvalExprBatch(*expr.children[0], in, &v);
  if (!st.ok()) return st;
  auto result = std::make_shared<ColumnVector>();
  result->Reserve(in.num_rows, DataType::kBool);
  for (size_t i = 0; i < in.num_rows; ++i) {
    if (v->IsNull(i)) {
      result->AppendNull();
      continue;
    }
    if (v->CellType(i) != DataType::kString) {
      return Status::InvalidArgument("LIKE applied to non-string");
    }
    const bool m = LikeMatch(v->CellString(i), expr.like_pattern);
    result->AppendBool(expr.negated ? !m : m);
  }
  *out = std::move(result);
  return Status::OK();
}

}  // namespace

Status EvalExprBatch(const Expr& expr, const EvalInput& in, ColumnPtr* out) {
  if (in.num_rows == 0) {
    // The row engine evaluates nothing for zero rows, so no error path of
    // any kind may fire on an empty batch.
    *out = std::make_shared<ColumnVector>();
    return Status::OK();
  }
  switch (expr.kind) {
    case ExprKind::kLiteral:
      *out = BroadcastValue(expr.literal, in.num_rows);
      return Status::OK();
    case ExprKind::kColumn:
      return EvalColumnRef(expr, in, out);
    case ExprKind::kUnary:
      return EvalUnary(expr, in, out);
    case ExprKind::kBinary:
      return EvalBinaryBatch(expr, in, out);
    case ExprKind::kCall:
      return EvalCall(expr, in, out);
    case ExprKind::kBetween:
      return EvalBetween(expr, in, out);
    case ExprKind::kInList:
      return EvalInList(expr, in, out);
    case ExprKind::kIsNull:
      return EvalIsNull(expr, in, out);
    case ExprKind::kLike:
      return EvalLike(expr, in, out);
  }
  return Status::Internal("unhandled expression kind");
}

Status FilterSelection(const Expr& predicate, const EvalInput& in,
                       std::vector<uint32_t>* sel) {
  ColumnPtr pred;
  Status st = EvalExprBatch(predicate, in, &pred);
  if (!st.ok()) return st;
  if (!pred->mixed() && pred->type() == DataType::kBool) {
    const std::vector<uint8_t>& v = pred->bools();
    for (size_t i = 0; i < in.num_rows; ++i) {
      if (!pred->IsNull(i) && v[i] != 0) {
        sel->push_back(static_cast<uint32_t>(i));
      }
    }
    return Status::OK();
  }
  for (size_t i = 0; i < in.num_rows; ++i) {
    if (!pred->IsNull(i) && pred->CellType(i) == DataType::kBool &&
        pred->CellBool(i)) {
      sel->push_back(static_cast<uint32_t>(i));
    }
  }
  return Status::OK();
}

void GatherReferenced(const Expr& expr, const std::vector<ColumnPtr>& left,
                      const std::vector<uint32_t>& left_rows,
                      const std::vector<ColumnPtr>& right,
                      const std::vector<uint32_t>& right_rows,
                      std::vector<ColumnPtr>* sub) {
  sub->assign(left.size() + right.size(), nullptr);
  std::vector<int> refs;
  expr.CollectColumns(&refs);
  for (int idx : refs) {
    if (idx < 0 || static_cast<size_t>(idx) >= sub->size()) continue;
    const size_t i = static_cast<size_t>(idx);
    const bool from_left = i < left.size();
    const ColumnPtr& src = from_left ? left[i] : right[i - left.size()];
    if (src != nullptr) {
      (*sub)[i] = GatherColumn(*src, from_left ? left_rows : right_rows);
    }
  }
}

void RowByteSizes(const ColumnBatch& batch, std::vector<uint32_t>* out) {
  if (batch.unread_bytes.empty()) {
    out->assign(batch.num_rows, 0);
  } else {
    *out = batch.unread_bytes;
  }
  for (const ColumnPtr& col : batch.columns) {
    if (col != nullptr) col->AddCellByteSizes(0, batch.num_rows, out->data());
  }
}

size_t BatchByteSize(const ColumnBatch& batch) {
  size_t total = 0;
  for (const ColumnPtr& col : batch.columns) {
    if (col != nullptr) total += col->TotalByteSize();
  }
  for (uint32_t bytes : batch.unread_bytes) total += bytes;
  return total;
}

}  // namespace cloudviews
