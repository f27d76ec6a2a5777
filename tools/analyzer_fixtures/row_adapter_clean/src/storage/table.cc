// Fixture: the adapter's own definition. lint.py must stay silent here.
#include "storage/table.h"

namespace cloudviews {

std::vector<Row> Table::rows() const {
  std::vector<Row> out;
  for (size_t i = 0; i < num_rows_; ++i) out.push_back(this->row(i));
  return out;
}

}  // namespace cloudviews
