// Fixture: storage code outside table.* truncating a view through the row
// adapter. lint.py must flag it.
#include "storage/view_store.h"

namespace cloudviews {

Status Truncate(const Table& full, size_t keep, Table* out) {
  for (size_t i = 0; i < keep; ++i) {
    CLOUDVIEWS_RETURN_NOT_OK(out->Append(full.row(i)));
  }
  return Status::OK();
}

}  // namespace cloudviews
