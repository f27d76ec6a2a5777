#include "storage/table.h"

#include <utility>

namespace cloudviews {

Table::Table(std::string name, Schema schema)
    : name_(std::move(name)), schema_(std::move(schema)) {
  columns_.reserve(schema_.num_columns());
  for (size_t c = 0; c < schema_.num_columns(); ++c) {
    columns_.push_back(std::make_shared<ColumnVector>());
  }
}

Row Table::row(size_t i) const {
  Row out;
  out.reserve(columns_.size());
  for (const auto& col : columns_) out.push_back(col->GetValue(i));
  return out;
}

std::vector<Row> Table::rows() const {
  std::vector<Row> out;
  out.reserve(num_rows_);
  for (size_t i = 0; i < num_rows_; ++i) out.push_back(row(i));
  return out;
}

Status Table::Append(const Row& row) {
  if (row.size() != columns_.size()) {
    return Status::InvalidArgument(
        "row arity " + std::to_string(row.size()) + " does not match schema " +
        schema_.ToString() + " of table " + name_);
  }
  for (size_t c = 0; c < columns_.size(); ++c) {
    columns_[c]->AppendValue(row[c]);
    byte_size_ += row[c].ByteSize();
  }
  num_rows_ += 1;
  return Status::OK();
}

Status Table::AppendBatch(const ColumnBatch& batch) {
  if (batch.num_columns() != columns_.size()) {
    return Status::InvalidArgument(
        "batch arity " + std::to_string(batch.num_columns()) +
        " does not match schema " + schema_.ToString() + " of table " + name_);
  }
  if (!batch.unread_bytes.empty() || batch.uniform_unread_bytes != 0) {
    return Status::InvalidArgument("batch with unread columns appended to " +
                                   name_);
  }
  for (size_t c = 0; c < columns_.size(); ++c) {
    const ColumnPtr& src = batch.columns[c];
    if (src == nullptr || src->size() != batch.num_rows) {
      return Status::InvalidArgument("batch column " + std::to_string(c) +
                                     " is missing or not " +
                                     std::to_string(batch.num_rows) +
                                     " rows long in append to " + name_);
    }
  }
  for (size_t c = 0; c < columns_.size(); ++c) {
    const ColumnVector& src = *batch.columns[c];
    columns_[c]->AppendRangeFrom(src, 0, batch.num_rows);
    byte_size_ += src.TotalByteSize();
  }
  num_rows_ += batch.num_rows;
  return Status::OK();
}

Status Table::AdoptColumns(std::vector<ColumnVector> columns) {
  if (num_rows_ != 0 || columns.size() != columns_.size()) {
    return Status::InvalidArgument(
        std::to_string(columns.size()) + " columns adopted by " + name_ +
        ", which needs " + std::to_string(columns_.size()) + " and no rows");
  }
  const size_t n = columns.empty() ? 0 : columns[0].size();
  for (const ColumnVector& col : columns) {
    if (col.size() != n) {
      return Status::InvalidArgument("columns of unequal length adopted by " +
                                     name_);
    }
  }
  for (size_t c = 0; c < columns_.size(); ++c) {
    byte_size_ += columns[c].TotalByteSize();
    columns_[c] = std::make_shared<ColumnVector>(std::move(columns[c]));
  }
  num_rows_ = n;
  return Status::OK();
}

}  // namespace cloudviews
