#ifndef CLOUDVIEWS_EXEC_BATCH_KERNELS_H_
#define CLOUDVIEWS_EXEC_BATCH_KERNELS_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "plan/expr.h"
#include "storage/column.h"

namespace cloudviews {

// Vectorized expression evaluation over a ColumnBatch. The kernels replicate
// Expr::Evaluate / EvalBinary cell for cell — same results, same null
// handling, same error Status codes and messages — so the columnar engine
// stays byte-identical to the row reference. The one sanctioned divergence
// is *which* error surfaces when several rows of a batch would each error:
// the row engine reports the first failing row's innermost error, the batch
// engine the first failing subexpression's (see DESIGN.md, "Columnar
// execution").
//
// AND/OR and IN-list honor the row engine's short-circuit contract exactly:
// the right operand (or the next list item) is evaluated only for rows the
// left side leaves undecided, so errors never surface for rows the row
// engine would have short-circuited past.

// Input batch for evaluation. Columns may contain null entries for ordinals
// a sub-evaluation does not reference (sparse gathered contexts).
struct EvalInput {
  const std::vector<ColumnPtr>* columns = nullptr;
  size_t num_rows = 0;
};

// Evaluates `expr` for every row of `in`; `*out` receives a column of
// length in.num_rows.
Status EvalExprBatch(const Expr& expr, const EvalInput& in, ColumnPtr* out);

// Evaluates a filter predicate and appends the ordinals of kept rows
// (non-null boolean true, exactly FilterOp's keep test) to `*sel`.
Status FilterSelection(const Expr& predicate, const EvalInput& in,
                       std::vector<uint32_t>* sel);

// Gathers the columns `expr` references from the side-by-side concatenation
// of `left` (at `left_rows`) and `right` (at `right_rows`) into a sparse
// input of left.size() + right.size() slots; the slots `expr` does not read
// stay null. A one-sided gather passes an empty `right`.
void GatherReferenced(const Expr& expr, const std::vector<ColumnPtr>& left,
                      const std::vector<uint32_t>& left_rows,
                      const std::vector<ColumnPtr>& right,
                      const std::vector<uint32_t>& right_rows,
                      std::vector<ColumnPtr>* sub);

// Per-row byte sizes (sum of Value::ByteSize over the row's cells — the row
// engine's bytes/IO accounting unit), the unread columns' bytes included.
// `*out` is assigned length batch.num_rows.
void RowByteSizes(const ColumnBatch& batch, std::vector<uint32_t>* out);

// Sum of RowByteSizes over the whole batch.
size_t BatchByteSize(const ColumnBatch& batch);

}  // namespace cloudviews

#endif  // CLOUDVIEWS_EXEC_BATCH_KERNELS_H_
