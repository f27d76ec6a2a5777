#include "exec/batch_kernels.h"

#include <cctype>
#include <cmath>
#include <cstdlib>
#include <memory>
#include <string>
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
  auto result = std::make_shared<ColumnVector>();
  result->Reserve(in.num_rows);
  if (expr.unary_op == UnaryOp::kNot) {
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

Status EvalComparison(BinaryOp op, const ColumnVector& lhs,
                      const ColumnVector& rhs, size_t n, ColumnPtr* out) {
  const bool typed = !lhs.mixed() && !rhs.mixed();
  const bool l_int = typed && lhs.type() == DataType::kInt64;
  const bool r_int = typed && rhs.type() == DataType::kInt64;
  const bool l_dbl = typed && lhs.type() == DataType::kDouble;
  const bool r_dbl = typed && rhs.type() == DataType::kDouble;
  if ((l_int || l_dbl) && (r_int || r_dbl)) {
    // Typed numeric kernels: compute over every lane (null slots hold
    // defaults), then mask — DenseBool normalizes null slots back to 0.
    std::vector<uint8_t> cells(n);
    if (l_int && r_int) {
      const std::vector<int64_t>& a = lhs.ints();
      const std::vector<int64_t>& b = rhs.ints();
      for (size_t i = 0; i < n; ++i) {
        const int cmp = a[i] < b[i] ? -1 : (a[i] > b[i] ? 1 : 0);
        cells[i] = ComparisonResult(op, cmp) ? 1 : 0;
      }
    } else {
      // Cross-type numeric comparison goes through double, exactly as
      // CompareCells does for an int/double pair.
      for (size_t i = 0; i < n; ++i) {
        const double a = l_int ? static_cast<double>(lhs.ints()[i])
                               : lhs.doubles()[i];
        const double b = r_int ? static_cast<double>(rhs.ints()[i])
                               : rhs.doubles()[i];
        const int cmp = a < b ? -1 : (a > b ? 1 : 0);
        cells[i] = ComparisonResult(op, cmp) ? 1 : 0;
      }
    }
    *out = ColumnVector::DenseBool(std::move(cells), AndValid(lhs, rhs, n), n);
    return Status::OK();
  }
  if (typed && lhs.type() == DataType::kString &&
      rhs.type() == DataType::kString) {
    const std::vector<std::string>& a = lhs.strings();
    const std::vector<std::string>& b = rhs.strings();
    std::vector<uint8_t> cells(n);
    for (size_t i = 0; i < n; ++i) {
      const int c = a[i].compare(b[i]);
      const int cmp = c < 0 ? -1 : (c > 0 ? 1 : 0);
      cells[i] = ComparisonResult(op, cmp) ? 1 : 0;
    }
    *out = ColumnVector::DenseBool(std::move(cells), AndValid(lhs, rhs, n), n);
    return Status::OK();
  }
  auto result = std::make_shared<ColumnVector>();
  result->Reserve(n);
  for (size_t i = 0; i < n; ++i) {
    if (lhs.IsNull(i) || rhs.IsNull(i)) {
      result->AppendNull();
    } else {
      result->AppendBool(ComparisonResult(op, CompareCells(lhs, i, rhs, i)));
    }
  }
  *out = std::move(result);
  return Status::OK();
}

// One arithmetic cell, mirroring EvalBinary's arithmetic tail (both operands
// non-null). Appends the result to `out`.
Status ArithmeticCell(BinaryOp op, const ColumnVector& lhs, size_t i,
                      const ColumnVector& rhs, size_t j, ColumnVector* out) {
  const DataType lt = lhs.CellType(i);
  const DataType rt = rhs.CellType(j);
  if (op == BinaryOp::kAdd && lt == DataType::kString &&
      rt == DataType::kString) {
    out->AppendString(lhs.CellString(i) + rhs.CellString(j));
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
    int64_t a = lhs.CellInt64(i);
    int64_t b = rhs.CellInt64(j);
    switch (op) {
      case BinaryOp::kAdd:
        out->AppendInt64(a + b);
        return Status::OK();
      case BinaryOp::kSubtract:
        out->AppendInt64(a - b);
        return Status::OK();
      case BinaryOp::kMultiply:
        out->AppendInt64(a * b);
        return Status::OK();
      case BinaryOp::kDivide:
        if (b == 0) return Status::InvalidArgument("integer division by zero");
        out->AppendInt64(a / b);
        return Status::OK();
      case BinaryOp::kModulo:
        if (b == 0) return Status::InvalidArgument("modulo by zero");
        out->AppendInt64(a % b);
        return Status::OK();
      default:
        break;
    }
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
    // Dense typed kernel: compute on every lane (null slots hold 0, so no
    // overflow hazard) and let DenseInt64 normalize null slots back to 0.
    const std::vector<int64_t>& a = lhs.ints();
    const std::vector<int64_t>& b = rhs.ints();
    std::vector<int64_t> cells(n);
    switch (op) {
      case BinaryOp::kAdd:
        for (size_t i = 0; i < n; ++i) cells[i] = a[i] + b[i];
        break;
      case BinaryOp::kSubtract:
        for (size_t i = 0; i < n; ++i) cells[i] = a[i] - b[i];
        break;
      default:
        for (size_t i = 0; i < n; ++i) cells[i] = a[i] * b[i];
        break;
    }
    *out = ColumnVector::DenseInt64(std::move(cells), AndValid(lhs, rhs, n), n);
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
  ColumnPtr lhs;
  Status st = EvalExprBatch(*expr.children[0], in, &lhs);
  if (!st.ok()) return st;
  ColumnPtr rhs;
  st = EvalExprBatch(*expr.children[1], in, &rhs);
  if (!st.ok()) return st;
  if (IsComparisonOp(expr.binary_op)) {
    return EvalComparison(expr.binary_op, *lhs, *rhs, in.num_rows, out);
  }
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
      std::string s = args[0]->CellString(i);
      for (char& c : s) {
        c = upper ? static_cast<char>(std::toupper(c))
                  : static_cast<char>(std::tolower(c));
      }
      result->AppendString(std::move(s));
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
      const std::string& s = args[0]->CellString(i);
      int64_t start = args[1]->CellInt64(i);  // 1-based
      int64_t len = args[2]->CellInt64(i);
      if (start < 1) start = 1;
      if (static_cast<size_t>(start - 1) >= s.size() || len <= 0) {
        result->AppendString(std::string());
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
  result->Reserve(in.num_rows);
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
  result->Reserve(n);
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
  result->Reserve(in.num_rows);
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
  result->Reserve(in.num_rows);
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

void GatherBatch(const ColumnBatch& in, const std::vector<uint32_t>& sel,
                 ColumnBatch* out) {
  out->columns.clear();
  out->columns.reserve(in.columns.size());
  for (const ColumnPtr& col : in.columns) {
    out->columns.push_back(GatherColumn(*col, sel));
  }
  out->num_rows = sel.size();
}

void RowByteSizes(const ColumnBatch& batch, std::vector<size_t>* out) {
  out->assign(batch.num_rows, 0);
  for (const ColumnPtr& col : batch.columns) {
    const ColumnVector& c = *col;
    if (!c.mixed()) {
      switch (c.type()) {
        case DataType::kNull:
        case DataType::kBool:
          for (size_t i = 0; i < batch.num_rows; ++i) (*out)[i] += 1;
          continue;
        case DataType::kInt64:
        case DataType::kDouble:
          for (size_t i = 0; i < batch.num_rows; ++i) {
            (*out)[i] += c.IsNull(i) ? 1 : 8;
          }
          continue;
        case DataType::kString:
          for (size_t i = 0; i < batch.num_rows; ++i) {
            (*out)[i] += c.IsNull(i) ? 1 : c.strings()[i].size() + 4;
          }
          continue;
      }
    }
    for (size_t i = 0; i < batch.num_rows; ++i) {
      (*out)[i] += c.CellByteSize(i);
    }
  }
}

size_t BatchByteSize(const ColumnBatch& batch) {
  size_t total = 0;
  for (const ColumnPtr& col : batch.columns) total += col->TotalByteSize();
  return total;
}

}  // namespace cloudviews
