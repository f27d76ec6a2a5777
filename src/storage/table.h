#ifndef CLOUDVIEWS_STORAGE_TABLE_H_
#define CLOUDVIEWS_STORAGE_TABLE_H_

#include <memory>
#include <mutex>
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
// A table is either row-primary (loaded via Append) or column-primary
// (loaded via AppendBatch — spool side tables and columnar query outputs).
// Whichever representation is primary, the other is materialized lazily and
// cached on first access; both views report identical num_rows/byte_size,
// and the conversion is guarded by std::call_once so concurrent readers
// (e.g. parallel scans of a shared materialized view) are race-free.
class Table {
 public:
  Table(std::string name, Schema schema)
      : name_(std::move(name)), schema_(std::move(schema)) {}

  const std::string& name() const { return name_; }
  const Schema& schema() const { return schema_; }

  size_t num_rows() const {
    return column_primary_ ? col_num_rows_ : rows_.size();
  }
  size_t byte_size() const { return byte_size_; }

  // Row view. For column-primary tables the first call materializes rows.
  const Row& row(size_t i) const { return rows()[i]; }
  const std::vector<Row>& rows() const;

  // Columnar view. For row-primary tables the first call materializes the
  // per-column arrays. Column i is shared zero-copy into scans.
  ColumnPtr column(size_t i) const;
  size_t num_columns() const { return schema_.num_columns(); }
  bool column_primary() const { return column_primary_; }

  // Appends a row; the row arity must match the schema. Type checking is
  // loose (nulls allowed anywhere) to mirror semi-structured extracted logs.
  // Invalid on a column-primary table.
  Status Append(Row row);

  // Appends a batch of rows column-wise. Only valid before any row-wise
  // Append (the first AppendBatch switches the table to column-primary).
  // Scans share the columns instead of copying them, so a table is appended
  // to only while it is built, before any scan can read it.
  Status AppendBatch(const ColumnBatch& batch);

  void Reserve(size_t n) { rows_.reserve(n); }

  std::string ToString(size_t max_rows = 10) const;

 private:
  void EnsureColumns() const;
  void EnsureRows() const;

  std::string name_;
  Schema schema_;
  size_t byte_size_ = 0;
  bool column_primary_ = false;

  // Row-primary storage, or the lazily materialized row view.
  mutable std::vector<Row> rows_;
  mutable std::once_flag rows_once_;

  // Column-primary storage, or the lazily materialized columnar view.
  mutable std::vector<std::shared_ptr<ColumnVector>> columns_;
  mutable std::once_flag columns_once_;
  size_t col_num_rows_ = 0;
};

using TablePtr = std::shared_ptr<const Table>;

}  // namespace cloudviews

#endif  // CLOUDVIEWS_STORAGE_TABLE_H_
