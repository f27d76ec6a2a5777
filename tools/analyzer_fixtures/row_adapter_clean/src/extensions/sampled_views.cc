// Fixture: a sampler that hashes a column at a time and counts rows without
// the adapter. Prose naming view.rows() and table->row(i) in comments or
// strings is fine. lint.py must stay silent here.
#include "extensions/sampled_views.h"

namespace cloudviews {

size_t CountRows(const Table& view_contents, std::vector<Hasher>* hashers) {
  hashers->assign(view_contents.num_rows(), Hasher());
  for (size_t c = 0; c < view_contents.num_columns(); ++c) {
    view_contents.column(c)->HashCellsInto(0, hashers->size(),
                                           hashers->data());
  }
  const char* note = "not view_contents.rows()";
  return note == nullptr ? 0 : view_contents.num_rows();
}

}  // namespace cloudviews
