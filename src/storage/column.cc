#include "storage/column.h"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace cloudviews {

DataType ColumnVector::CellType(size_t i) const {
  if (mixed_) return cells_[i].type();
  if (IsNull(i)) return DataType::kNull;
  return type_;
}

bool ColumnVector::CellBool(size_t i) const {
  if (mixed_) return cells_[i].AsBool();
  return bools_[i] != 0;
}

int64_t ColumnVector::CellInt64(size_t i) const {
  if (mixed_) return cells_[i].AsInt64();
  return ints_[i];
}

double ColumnVector::CellDouble(size_t i) const {
  if (mixed_) return cells_[i].AsDouble();
  return doubles_[i];
}

const std::string& ColumnVector::CellString(size_t i) const {
  if (mixed_) return cells_[i].AsString();
  return strings_[i];
}

double ColumnVector::CellNumeric(size_t i) const {
  switch (CellType(i)) {
    case DataType::kInt64:
      return static_cast<double>(CellInt64(i));
    case DataType::kDouble:
      return CellDouble(i);
    case DataType::kBool:
      return CellBool(i) ? 1.0 : 0.0;
    default:
      return 0.0;
  }
}

size_t ColumnVector::CellByteSize(size_t i) const {
  switch (CellType(i)) {
    case DataType::kNull:
    case DataType::kBool:
      return 1;
    case DataType::kInt64:
    case DataType::kDouble:
      return 8;
    case DataType::kString:
      return CellString(i).size() + 4;
  }
  return 1;
}

namespace {

// What Value::HashInto feeds for a null.
constexpr uint64_t kNullHashWord = 0xDEAD0011u;

}  // namespace

void ColumnVector::HashCellInto(size_t i, Hasher* hasher) const {
  switch (CellType(i)) {
    case DataType::kNull:
      hasher->Update(kNullHashWord);
      break;
    case DataType::kBool:
      hasher->Update(CellBool(i));
      break;
    case DataType::kInt64:
      // Integers hash through double, matching Value::HashInto so that int 5
      // and double 5.0 land in the same hash-join bucket.
      hasher->Update(static_cast<double>(CellInt64(i)));
      break;
    case DataType::kDouble:
      hasher->Update(CellDouble(i));
      break;
    case DataType::kString:
      hasher->Update(std::string_view(CellString(i)));
      break;
  }
}

void ColumnVector::HashCellsInto(size_t begin, size_t n,
                                 Hasher* hashers) const {
  if (mixed_) {
    for (size_t k = 0; k < n; ++k) HashCellInto(begin + k, &hashers[k]);
    return;
  }
  // Typed loops: each arm is HashCellInto's case for the column's type.
  switch (type_) {
    case DataType::kNull:
      for (size_t k = 0; k < n; ++k) hashers[k].Update(kNullHashWord);
      return;
    case DataType::kBool:
      for (size_t k = 0, i = begin; k < n; ++k, ++i) {
        if (IsNull(i)) {
          hashers[k].Update(kNullHashWord);
        } else {
          hashers[k].Update(bools_[i] != 0);
        }
      }
      return;
    case DataType::kInt64:
      for (size_t k = 0, i = begin; k < n; ++k, ++i) {
        if (IsNull(i)) {
          hashers[k].Update(kNullHashWord);
        } else {
          hashers[k].Update(static_cast<double>(ints_[i]));
        }
      }
      return;
    case DataType::kDouble:
      for (size_t k = 0, i = begin; k < n; ++k, ++i) {
        if (IsNull(i)) {
          hashers[k].Update(kNullHashWord);
        } else {
          hashers[k].Update(doubles_[i]);
        }
      }
      return;
    case DataType::kString:
      for (size_t k = 0, i = begin; k < n; ++k, ++i) {
        if (IsNull(i)) {
          hashers[k].Update(kNullHashWord);
        } else {
          hashers[k].Update(std::string_view(strings_[i]));
        }
      }
      return;
  }
}

std::string ColumnVector::CellToString(size_t i) const {
  switch (CellType(i)) {
    case DataType::kNull:
      return "NULL";
    case DataType::kBool:
      return CellBool(i) ? "true" : "false";
    case DataType::kInt64:
      return std::to_string(CellInt64(i));
    case DataType::kDouble: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%g", CellDouble(i));
      return buf;
    }
    case DataType::kString:
      return CellString(i);
  }
  return "?";
}

Value ColumnVector::GetValue(size_t i) const {
  if (mixed_) return cells_[i];
  switch (CellType(i)) {
    case DataType::kNull:
      return Value::Null();
    case DataType::kBool:
      return Value(CellBool(i));
    case DataType::kInt64:
      return Value(CellInt64(i));
    case DataType::kDouble:
      return Value(CellDouble(i));
    case DataType::kString:
      return Value(CellString(i));
  }
  return Value::Null();
}

void ColumnVector::Reserve(size_t n, DataType expected) {
  valid_.reserve((n + 63) / 64);
  if (mixed_) {
    cells_.reserve(n);
    return;
  }
  // The first non-null append's assign() keeps this capacity.
  switch (type_ == DataType::kNull ? expected : type_) {
    case DataType::kBool:
      bools_.reserve(n);
      break;
    case DataType::kInt64:
      ints_.reserve(n);
      break;
    case DataType::kDouble:
      doubles_.reserve(n);
      break;
    case DataType::kString:
      strings_.reserve(n);
      break;
    default:
      break;
  }
}

void ColumnVector::GrowBitmap(bool valid) {
  if ((size_ & 63) == 0) valid_.push_back(0);
  if (valid) SetValid(size_);
  ++size_;
}

void ColumnVector::AppendTypedDefault() {
  switch (type_) {
    case DataType::kBool:
      bools_.push_back(0);
      break;
    case DataType::kInt64:
      ints_.push_back(0);
      break;
    case DataType::kDouble:
      doubles_.push_back(0.0);
      break;
    case DataType::kString:
      strings_.emplace_back();
      break;
    default:
      break;
  }
}

void ColumnVector::Demote() {
  cells_.reserve(size_);
  for (size_t i = 0; i < size_; ++i) cells_.push_back(GetValue(i));
  mixed_ = true;
  type_ = DataType::kNull;
  bools_.clear();
  ints_.clear();
  doubles_.clear();
  strings_.clear();
}

void ColumnVector::AppendNull() {
  if (mixed_) {
    cells_.push_back(Value::Null());
  } else {
    AppendTypedDefault();
  }
  GrowBitmap(false);
}

void ColumnVector::AppendBool(bool v) {
  if (!mixed_) {
    if (type_ == DataType::kNull) {
      type_ = DataType::kBool;
      bools_.assign(size_, 0);
    } else if (type_ != DataType::kBool) {
      Demote();
    }
  }
  if (mixed_) {
    cells_.push_back(Value(v));
  } else {
    bools_.push_back(v ? 1 : 0);
  }
  GrowBitmap(true);
}

void ColumnVector::AppendInt64(int64_t v) {
  if (!mixed_) {
    if (type_ == DataType::kNull) {
      type_ = DataType::kInt64;
      ints_.assign(size_, 0);
    } else if (type_ != DataType::kInt64) {
      Demote();
    }
  }
  if (mixed_) {
    cells_.push_back(Value(v));
  } else {
    ints_.push_back(v);
  }
  GrowBitmap(true);
}

void ColumnVector::AppendDouble(double v) {
  if (!mixed_) {
    if (type_ == DataType::kNull) {
      type_ = DataType::kDouble;
      doubles_.assign(size_, 0.0);
    } else if (type_ != DataType::kDouble) {
      Demote();
    }
  }
  if (mixed_) {
    cells_.push_back(Value(v));
  } else {
    doubles_.push_back(v);
  }
  GrowBitmap(true);
}

void ColumnVector::AppendString(std::string v) {
  if (!mixed_) {
    if (type_ == DataType::kNull) {
      type_ = DataType::kString;
      strings_.assign(size_, std::string());
    } else if (type_ != DataType::kString) {
      Demote();
    }
  }
  if (mixed_) {
    cells_.push_back(Value(std::move(v)));
  } else {
    strings_.push_back(std::move(v));
  }
  GrowBitmap(true);
}

void ColumnVector::AppendValue(const Value& v) {
  switch (v.type()) {
    case DataType::kNull:
      AppendNull();
      break;
    case DataType::kBool:
      AppendBool(v.AsBool());
      break;
    case DataType::kInt64:
      AppendInt64(v.AsInt64());
      break;
    case DataType::kDouble:
      AppendDouble(v.AsDouble());
      break;
    case DataType::kString:
      AppendString(v.AsString());
      break;
  }
}

void ColumnVector::AppendBits(const std::vector<uint64_t>& words, size_t begin,
                              size_t count) {
  const size_t new_size = size_ + count;
  valid_.resize((new_size + 63) / 64, 0);
  size_t out_bit = size_;
  size_t in_bit = begin;
  size_t remaining = count;
  while (remaining > 0) {
    const size_t n = remaining < 64 ? remaining : 64;
    const size_t w = in_bit >> 6;
    const size_t off = in_bit & 63;
    uint64_t v = words[w] >> off;
    if (off != 0 && w + 1 < words.size()) v |= words[w + 1] << (64 - off);
    if (n < 64) v &= (uint64_t{1} << n) - 1;
    const size_t ow = out_bit >> 6;
    const size_t ooff = out_bit & 63;
    valid_[ow] |= v << ooff;
    if (ooff != 0 && n > 64 - ooff) valid_[ow + 1] |= v >> (64 - ooff);
    out_bit += n;
    in_bit += n;
    remaining -= n;
  }
  size_ = new_size;
}

void ColumnVector::AppendRangeFrom(const ColumnVector& src, size_t begin,
                                   size_t end) {
  if (begin >= end) return;
  const bool bulk_ok =
      !mixed_ && !src.mixed_ && src.type_ != DataType::kNull &&
      (type_ == src.type_ || type_ == DataType::kNull);
  if (!bulk_ok) {
    for (size_t i = begin; i < end; ++i) AppendCellFrom(src, i);
    return;
  }
  if (type_ == DataType::kNull) {
    // Adopt the source type, backfilling defaults for any existing nulls —
    // exactly what the first non-null per-cell append would have done.
    type_ = src.type_;
    switch (type_) {
      case DataType::kBool:
        bools_.assign(size_, 0);
        break;
      case DataType::kInt64:
        ints_.assign(size_, 0);
        break;
      case DataType::kDouble:
        doubles_.assign(size_, 0.0);
        break;
      case DataType::kString:
        strings_.assign(size_, std::string());
        break;
      default:
        break;
    }
  }
  switch (type_) {
    case DataType::kBool:
      bools_.insert(bools_.end(), src.bools_.begin() + begin,
                    src.bools_.begin() + end);
      break;
    case DataType::kInt64:
      ints_.insert(ints_.end(), src.ints_.begin() + begin,
                   src.ints_.begin() + end);
      break;
    case DataType::kDouble:
      doubles_.insert(doubles_.end(), src.doubles_.begin() + begin,
                      src.doubles_.begin() + end);
      break;
    case DataType::kString:
      strings_.insert(strings_.end(), src.strings_.begin() + begin,
                      src.strings_.begin() + end);
      break;
    default:
      break;
  }
  AppendBits(src.valid_, begin, end - begin);
}

void ColumnVector::AppendGatherFrom(const ColumnVector& src,
                                    const std::vector<uint32_t>& indices) {
  const bool bulk_ok =
      !mixed_ && !src.mixed_ && src.type_ != DataType::kNull &&
      (type_ == src.type_ || (type_ == DataType::kNull && size_ == 0));
  if (!bulk_ok) {
    for (uint32_t idx : indices) {
      if (idx == kPadIndex) {
        AppendNull();
      } else {
        AppendCellFrom(src, idx);
      }
    }
    return;
  }
  const size_t n = indices.size();
  if (n == 0) return;
  // Pads take the typed default, exactly what AppendNull pushes.
  type_ = src.type_;
  switch (type_) {
    case DataType::kBool:
      bools_.reserve(bools_.size() + n);
      for (uint32_t idx : indices) {
        bools_.push_back(idx == kPadIndex ? 0 : src.bools_[idx]);
      }
      break;
    case DataType::kInt64:
      ints_.reserve(ints_.size() + n);
      for (uint32_t idx : indices) {
        ints_.push_back(idx == kPadIndex ? 0 : src.ints_[idx]);
      }
      break;
    case DataType::kDouble:
      doubles_.reserve(doubles_.size() + n);
      for (uint32_t idx : indices) {
        doubles_.push_back(idx == kPadIndex ? 0.0 : src.doubles_[idx]);
      }
      break;
    case DataType::kString:
      strings_.reserve(strings_.size() + n);
      for (uint32_t idx : indices) {
        if (idx == kPadIndex) {
          strings_.emplace_back();
        } else {
          strings_.push_back(src.strings_[idx]);
        }
      }
      break;
    default:
      break;
  }
  const size_t new_size = size_ + n;
  valid_.resize((new_size + 63) / 64, 0);
  size_t bit = size_;
  for (uint32_t idx : indices) {
    if (idx != kPadIndex &&
        (src.valid_[idx >> 6] & (uint64_t{1} << (idx & 63))) != 0) {
      valid_[bit >> 6] |= uint64_t{1} << (bit & 63);
    }
    ++bit;
  }
  size_ = new_size;
}

void ColumnVector::NormalizeDense() {
  valid_.resize((size_ + 63) / 64, 0);
  // Zero tail bits past size_.
  if ((size_ & 63) != 0 && !valid_.empty()) {
    valid_.back() &= (uint64_t{1} << (size_ & 63)) - 1;
  }
  // Defaults at null positions, matching what per-cell AppendNull builds.
  for (size_t w = 0; w < valid_.size(); ++w) {
    uint64_t invalid = ~valid_[w];
    if (invalid == 0) continue;
    const size_t base = w * 64;
    const size_t limit = size_ - base < 64 ? size_ - base : 64;
    for (size_t b = 0; b < limit; ++b) {
      if ((invalid & (uint64_t{1} << b)) == 0) continue;
      const size_t i = base + b;
      switch (type_) {
        case DataType::kBool:
          bools_[i] = 0;
          break;
        case DataType::kInt64:
          ints_[i] = 0;
          break;
        case DataType::kDouble:
          doubles_[i] = 0.0;
          break;
        case DataType::kString:
          strings_[i].clear();
          break;
        default:
          break;
      }
    }
  }
}

std::shared_ptr<ColumnVector> ColumnVector::DenseBool(
    std::vector<uint8_t> cells, std::vector<uint64_t> valid, size_t n) {
  auto col = std::make_shared<ColumnVector>();
  col->size_ = n;
  col->type_ = DataType::kBool;
  col->bools_ = std::move(cells);
  col->valid_ = std::move(valid);
  col->NormalizeDense();
  return col;
}

std::shared_ptr<ColumnVector> ColumnVector::DenseInt64(
    std::vector<int64_t> cells, std::vector<uint64_t> valid, size_t n) {
  auto col = std::make_shared<ColumnVector>();
  col->size_ = n;
  col->type_ = DataType::kInt64;
  col->ints_ = std::move(cells);
  col->valid_ = std::move(valid);
  col->NormalizeDense();
  return col;
}

std::shared_ptr<ColumnVector> ColumnVector::DenseDouble(
    std::vector<double> cells, std::vector<uint64_t> valid, size_t n) {
  auto col = std::make_shared<ColumnVector>();
  col->size_ = n;
  col->type_ = DataType::kDouble;
  col->doubles_ = std::move(cells);
  col->valid_ = std::move(valid);
  col->NormalizeDense();
  return col;
}

std::vector<uint64_t> ColumnVector::AllValid(size_t n) {
  std::vector<uint64_t> words((n + 63) / 64, ~uint64_t{0});
  if ((n & 63) != 0 && !words.empty()) {
    words.back() = (uint64_t{1} << (n & 63)) - 1;
  }
  return words;
}

void ColumnVector::AppendCellFrom(const ColumnVector& src, size_t i) {
  switch (src.CellType(i)) {
    case DataType::kNull:
      AppendNull();
      break;
    case DataType::kBool:
      AppendBool(src.CellBool(i));
      break;
    case DataType::kInt64:
      AppendInt64(src.CellInt64(i));
      break;
    case DataType::kDouble:
      AppendDouble(src.CellDouble(i));
      break;
    case DataType::kString:
      AppendString(src.CellString(i));
      break;
  }
}

size_t ColumnVector::CountValid(size_t begin, size_t end) const {
  size_t present = 0;
  while (begin < end) {
    const size_t off = begin & 63;
    const size_t n = std::min<size_t>(64 - off, end - begin);
    uint64_t w = valid_[begin >> 6] >> off;
    if (n < 64) w &= (uint64_t{1} << n) - 1;
    present += static_cast<size_t>(__builtin_popcountll(w));
    begin += n;
  }
  return present;
}

template <typename RowAt, typename Add>
void ColumnVector::ForEachCellByteSize(size_t n, RowAt row_at,
                                       Add add) const {
  auto present = [&](uint32_t r) { return r != kPadIndex && !IsNull(r); };
  if (mixed_) {
    for (size_t k = 0; k < n; ++k) {
      const uint32_t r = row_at(k);
      add(k, r == kPadIndex ? 1 : CellByteSize(r));
    }
    return;
  }
  switch (type_) {
    case DataType::kNull:
    case DataType::kBool:
      for (size_t k = 0; k < n; ++k) add(k, 1);
      return;
    case DataType::kInt64:
    case DataType::kDouble:
      for (size_t k = 0; k < n; ++k) add(k, present(row_at(k)) ? 8 : 1);
      return;
    case DataType::kString:
      for (size_t k = 0; k < n; ++k) {
        const uint32_t r = row_at(k);
        add(k, present(r) ? strings_[r].size() + 4 : 1);
      }
      return;
  }
}

void ColumnVector::AddCellByteSizes(const std::vector<uint32_t>& rows,
                                    uint32_t* out) const {
  ForEachCellByteSize(
      rows.size(), [&](size_t k) { return rows[k]; },
      [&](size_t k, size_t bytes) { out[k] += static_cast<uint32_t>(bytes); });
}

void ColumnVector::AddCellByteSizes(size_t begin, size_t n,
                                    uint32_t* out) const {
  ForEachCellByteSize(
      n, [&](size_t k) { return static_cast<uint32_t>(begin + k); },
      [&](size_t k, size_t bytes) { out[k] += static_cast<uint32_t>(bytes); });
}

size_t ColumnVector::ByteSize(size_t begin, size_t end) const {
  if (begin >= end) return 0;
  const size_t n = end - begin;
  if (!mixed_ && (type_ == DataType::kInt64 || type_ == DataType::kDouble)) {
    // A null cell is 1 byte, a present one 8: count nulls word-wise.
    const size_t present = CountValid(begin, end);
    return (n - present) + present * 8;
  }
  size_t total = 0;
  ForEachCellByteSize(
      n, [&](size_t k) { return static_cast<uint32_t>(begin + k); },
      [&](size_t, size_t bytes) { total += bytes; });
  return total;
}

int CompareCells(const ColumnVector& a, size_t i, const ColumnVector& b,
                 size_t j) {
  const bool a_null = a.IsNull(i);
  const bool b_null = b.IsNull(j);
  if (a_null || b_null) {
    if (a_null && b_null) return 0;
    return a_null ? -1 : 1;
  }
  const DataType ta = a.CellType(i);
  const DataType tb = b.CellType(j);
  const bool a_num = ta == DataType::kInt64 || ta == DataType::kDouble;
  const bool b_num = tb == DataType::kInt64 || tb == DataType::kDouble;
  if (a_num && b_num) {
    if (ta == DataType::kInt64 && tb == DataType::kInt64) {
      int64_t x = a.CellInt64(i);
      int64_t y = b.CellInt64(j);
      return x < y ? -1 : (x > y ? 1 : 0);
    }
    double x = a.CellNumeric(i);
    double y = b.CellNumeric(j);
    return x < y ? -1 : (x > y ? 1 : 0);
  }
  if (ta != tb) return static_cast<int>(ta) < static_cast<int>(tb) ? -1 : 1;
  switch (ta) {
    case DataType::kBool: {
      bool x = a.CellBool(i);
      bool y = b.CellBool(j);
      return x == y ? 0 : (x ? 1 : -1);
    }
    case DataType::kString: {
      const std::string& x = a.CellString(i);
      const std::string& y = b.CellString(j);
      return x.compare(y) < 0 ? -1 : (x == y ? 0 : 1);
    }
    default:
      return 0;
  }
}

ColumnPtr SliceColumn(const ColumnVector& src, size_t begin, size_t end) {
  auto out = std::make_shared<ColumnVector>();
  out->AppendRangeFrom(src, begin, end);
  return out;
}

ColumnPtr GatherColumn(const ColumnVector& src,
                       const std::vector<uint32_t>& indices) {
  auto out = std::make_shared<ColumnVector>();
  out->AppendGatherFrom(src, indices);
  return out;
}

ColumnPtr ConcatColumn(const std::vector<ColumnBatch>& batches, size_t col) {
  if (batches.size() == 1) return batches[0].columns[col];  // zero-copy share
  auto out = std::make_shared<ColumnVector>();
  for (const ColumnBatch& b : batches) {
    out->AppendRangeFrom(*b.columns[col], 0, b.num_rows);
  }
  return out;
}

ColumnPtr BroadcastValue(const Value& v, size_t n) {
  auto out = std::make_shared<ColumnVector>();
  switch (v.type()) {
    case DataType::kBool: {
      std::vector<uint8_t> cells(n, v.AsBool() ? 1 : 0);
      return ColumnVector::DenseBool(std::move(cells),
                                     ColumnVector::AllValid(n), n);
    }
    case DataType::kInt64: {
      std::vector<int64_t> cells(n, v.AsInt64());
      return ColumnVector::DenseInt64(std::move(cells),
                                      ColumnVector::AllValid(n), n);
    }
    case DataType::kDouble: {
      std::vector<double> cells(n, v.AsDouble());
      return ColumnVector::DenseDouble(std::move(cells),
                                       ColumnVector::AllValid(n), n);
    }
    default:
      break;
  }
  out->Reserve(n);
  for (size_t i = 0; i < n; ++i) out->AppendValue(v);
  return out;
}

}  // namespace cloudviews
