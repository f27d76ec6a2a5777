// Fixture: a sampler that reads a view row by row. lint.py must flag both
// row-adapter reads.
#include "extensions/sampled_views.h"

namespace cloudviews {

size_t CountNonEmptyRows(const Table& view_contents, const TablePtr& other) {
  size_t kept = 0;
  for (const Row& row : view_contents.rows()) {
    if (!row.empty()) kept += 1;
  }
  if (!other->row(0).empty()) kept += 1;
  return kept;
}

}  // namespace cloudviews
