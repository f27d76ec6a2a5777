#ifndef CLOUDVIEWS_STORAGE_TABLE_H_
#define CLOUDVIEWS_STORAGE_TABLE_H_

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "storage/column.h"
#include "storage/schema.h"
#include "storage/value.h"

namespace cloudviews {

// An immutable-after-load table. Datasets in Cosmos are written once and
// read many times; bulk updates replace the whole table (see DatasetCatalog),
// so Table itself has no fine-grained update path.
//
// A table is one typed column per schema column and nothing else. It is
// appended to only while it is built (a generated dataset, a spool side
// table, a query output), before any scan can read it; scans then share the
// columns without copying them, so a built table is safe to read from any
// number of threads. No state is built lazily on a read.
class Table {
 public:
  Table(std::string name, Schema schema);

  const std::string& name() const { return name_; }
  const Schema& schema() const { return schema_; }

  size_t num_rows() const { return num_rows_; }
  size_t byte_size() const { return byte_size_; }

  // Column i, shared zero-copy into scans.
  ColumnPtr column(size_t i) const { return columns_[i]; }
  size_t num_columns() const { return columns_.size(); }

  // Row adapter: row i's cells as Values, built on every call. Only the
  // row-at-a-time reference engine and tests read tables this way.
  Row row(size_t i) const;
  std::vector<Row> rows() const;

  // Cell-append builder: appends a row's cells to the typed columns. The row
  // arity must match the schema. Type checking is loose (nulls allowed
  // anywhere) to mirror semi-structured extracted logs.
  Status Append(const Row& row);

  // Appends a batch column-wise. Every column must be present, hold exactly
  // num_rows cells, and the batch must carry no unread bytes.
  Status AppendBatch(const ColumnBatch& batch);

  // Fills an empty table with whole columns, one per schema column and all
  // of one length, adopting them without a copy.
  Status AdoptColumns(std::vector<ColumnVector> columns);

 private:
  std::string name_;
  Schema schema_;
  size_t num_rows_ = 0;
  size_t byte_size_ = 0;
  std::vector<std::shared_ptr<ColumnVector>> columns_;
};

using TablePtr = std::shared_ptr<const Table>;

}  // namespace cloudviews

#endif  // CLOUDVIEWS_STORAGE_TABLE_H_
