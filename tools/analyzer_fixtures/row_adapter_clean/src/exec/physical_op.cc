// Fixture: the row oracle's scan reads rows through the adapter. lint.py
// must stay silent here.
#include "exec/physical_op.h"

namespace cloudviews {

Status TableScanOp::Next(Row* row, bool* done) {
  *done = index_ >= table_->num_rows();
  if (!*done) *row = table_->row(index_++);
  return Status::OK();
}

}  // namespace cloudviews
