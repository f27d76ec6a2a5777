#ifndef CLOUDVIEWS_PLAN_EXPR_H_
#define CLOUDVIEWS_PLAN_EXPR_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/hash.h"
#include "common/status.h"
#include "sql/ast.h"
#include "storage/schema.h"
#include "storage/value.h"

namespace cloudviews {

// Resolved (bound) expression over a child operator's output row. Column
// references are ordinal; evaluation needs only the input Row.
enum class ExprKind {
  kLiteral,
  kColumn,
  kUnary,
  kBinary,
  kCall,     // scalar function: UPPER, LOWER, ABS, ROUND, LENGTH, SUBSTR
  kBetween,  // children: value, lo, hi
  kInList,   // children: value, item...
  kIsNull,
  kLike,
};

class Expr;
using ExprPtr = std::shared_ptr<const Expr>;

class Expr {
 public:
  ExprKind kind = ExprKind::kLiteral;

  Value literal;
  int column_index = -1;
  std::string column_name;  // retained for printing / signatures

  sql::UnaryOp unary_op = sql::UnaryOp::kNegate;
  sql::BinaryOp binary_op = sql::BinaryOp::kAdd;

  std::string function_name;
  bool negated = false;
  std::string like_pattern;

  std::vector<ExprPtr> children;

  static ExprPtr MakeLiteral(Value v);
  static ExprPtr MakeColumn(int index, std::string name);
  static ExprPtr MakeUnary(sql::UnaryOp op, ExprPtr operand);
  static ExprPtr MakeBinary(sql::BinaryOp op, ExprPtr lhs, ExprPtr rhs);
  static ExprPtr MakeCall(std::string name, std::vector<ExprPtr> args);
  static ExprPtr MakeIsNull(ExprPtr operand, bool negated);
  static ExprPtr MakeLike(ExprPtr operand, std::string pattern, bool negated);
  static ExprPtr MakeBetween(ExprPtr v, ExprPtr lo, ExprPtr hi, bool negated);
  static ExprPtr MakeInList(std::vector<ExprPtr> value_then_items,
                            bool negated);

  // Evaluates against one input row. Errors (type mismatches, unknown
  // functions) surface as Status — the engine treats them as job failures.
  Result<Value> Evaluate(const Row& row) const;

  // Infers the output type given the input schema (best effort; kNull means
  // "unknown/any", matching semi-structured extraction semantics).
  DataType InferType(const Schema& input) const;

  // Contributes this expression to a signature hash. `include_literals`
  // distinguishes strict signatures (true) from recurring signatures, which
  // discard time-varying parameter values (false).
  void HashInto(Hasher* hasher, bool include_literals) const;

  // Remaps column ordinals through `mapping` (old index -> new index).
  // Returns nullptr if a referenced column has no mapping.
  ExprPtr RemapColumns(const std::vector<int>& mapping) const;

  // Collects all referenced column ordinals into `out` (deduplicated,
  // ascending).
  void CollectColumns(std::vector<int>* out) const;

  // Structural equality (same shape, ops, literals and column ordinals).
  bool Equals(const Expr& other) const;

  std::string ToString() const;
};

// SQL LIKE with % and _ wildcards.
bool LikeMatch(std::string_view text, std::string_view pattern);

// `a op b` for two int64 operands, the one integer arithmetic of both
// engines: +, -, * and / outside int64 are InvalidArgument("integer
// overflow"), division and modulo by zero are InvalidArgument, and
// INT64_MIN % -1 is 0. Any other `op` is Internal.
Status IntArithmetic(sql::BinaryOp op, int64_t a, int64_t b, int64_t* out);

// The SUM of int64 cells, from the exact `total` both engines accumulate
// in 128 bits (under 2^64 cells cannot pass its range): a total outside
// int64 is InvalidArgument("integer overflow"), whatever order the cells
// arrived in.
Status IntSumResult(__int128 total, int64_t* out);

}  // namespace cloudviews

#endif  // CLOUDVIEWS_PLAN_EXPR_H_
