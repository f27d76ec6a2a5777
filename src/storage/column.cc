#include "storage/column.h"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstring>
#include <limits>
#include <stdexcept>
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

// The key word of a non-null double: Hasher::Update(double)'s bits.
uint64_t DoubleKeyWord(double v) {
  return std::bit_cast<uint64_t>(v == 0.0 ? 0.0 : v);
}

// The key word of a cell of any type.
uint64_t CellKeyWord(const ColumnVector& col, size_t i) {
  switch (col.CellType(i)) {
    case DataType::kNull:
      return kNullHashWord;
    case DataType::kBool:
      return col.CellBool(i) ? 1 : 2;
    case DataType::kInt64:
      return DoubleKeyWord(static_cast<double>(col.CellInt64(i)));
    case DataType::kDouble:
      return DoubleKeyWord(col.CellDouble(i));
    case DataType::kString:
      return HashBytes64(col.CellString(i));
  }
  return kNullHashWord;
}

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
      hasher->Update(CellString(i));
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
          hashers[k].Update(StringAt(i));
        }
      }
      return;
  }
}

void ColumnVector::MixKeyHashes(size_t n, uint64_t* hashes) const {
  // Typed loops: each arm is CellKeyWord's case for the column's type.
  auto fold = [&](auto word_at) {
    for (size_t i = 0; i < n; ++i) {
      hashes[i] = MixKeyWord(hashes[i], IsNull(i) ? kNullHashWord : word_at(i));
    }
  };
  if (mixed_) {
    fold([&](size_t i) { return CellKeyWord(*this, i); });
    return;
  }
  switch (type_) {
    case DataType::kNull:  // every cell is null
      fold([](size_t) { return kNullHashWord; });
      return;
    case DataType::kBool:
      fold([&](size_t i) { return uint64_t{bools_[i] != 0 ? 1u : 2u}; });
      return;
    case DataType::kInt64:
      // An integer hashes as its double, so int 5 and double 5.0 collide.
      fold([&](size_t i) {
        return std::bit_cast<uint64_t>(static_cast<double>(ints_[i]));
      });
      return;
    case DataType::kDouble:
      fold([&](size_t i) { return DoubleKeyWord(doubles_[i]); });
      return;
    case DataType::kString:
      fold([&](size_t i) { return HashBytes64(StringAt(i)); });
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
      return std::string(CellString(i));
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
      return Value(std::string(CellString(i)));
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
      offsets_.reserve(n + 1);
      break;
    default:
      break;
  }
}

void ColumnVector::GrowBitmap(bool valid) {
  if ((size_ & 63) == 0) valid_.push_back(0);
  if (valid) {
    SetValid(size_);
  } else {
    ++null_count_;
  }
  ++size_;
}

void ColumnVector::SetValidRange(size_t begin, size_t end) {
  while (begin < end) {
    const size_t off = begin & 63;
    const size_t n = std::min<size_t>(64 - off, end - begin);
    const uint64_t bits = n == 64 ? ~uint64_t{0} : (uint64_t{1} << n) - 1;
    valid_[begin >> 6] |= bits << off;
    begin += n;
  }
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
      offsets_.push_back(offsets_.back());
      break;
    default:
      break;
  }
}

void ColumnVector::AdoptType(DataType type) {
  type_ = type;
  // assign() keeps the capacity Reserve made.
  switch (type) {
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
      offsets_.assign(size_ + 1, 0);
      break;
    default:
      break;
  }
}

bool ColumnVector::PrepareTyped(DataType type) {
  if (mixed_) return false;
  if (type_ == DataType::kNull) {
    AdoptType(type);
  } else if (type_ != type) {
    Demote();
  }
  return !mixed_;
}

void ColumnVector::Demote() {
  cells_.reserve(size_);
  for (size_t i = 0; i < size_; ++i) cells_.push_back(GetValue(i));
  mixed_ = true;
  DropTyped();
}

void ColumnVector::DropTyped() {
  type_ = DataType::kNull;
  bools_.clear();
  ints_.clear();
  doubles_.clear();
  offsets_.clear();
  bytes_.clear();
}

uint32_t ColumnVector::CheckedOffset(size_t bytes) {
  if (bytes > std::numeric_limits<uint32_t>::max()) {
    throw std::length_error("string column of " + std::to_string(bytes) +
                            " bytes passes its 32-bit offsets");
  }
  return static_cast<uint32_t>(bytes);
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
  if (PrepareTyped(DataType::kBool)) {
    bools_.push_back(v ? 1 : 0);
  } else {
    cells_.push_back(Value(v));
  }
  GrowBitmap(true);
}

void ColumnVector::AppendInt64(int64_t v) {
  if (PrepareTyped(DataType::kInt64)) {
    ints_.push_back(v);
  } else {
    cells_.push_back(Value(v));
  }
  GrowBitmap(true);
}

void ColumnVector::AppendDouble(double v) {
  if (PrepareTyped(DataType::kDouble)) {
    doubles_.push_back(v);
  } else {
    cells_.push_back(Value(v));
  }
  GrowBitmap(true);
}

void ColumnVector::AppendString(std::string_view v) {
  if (PrepareTyped(DataType::kString)) {
    const uint32_t end = CheckedOffset(bytes_.size() + v.size());
    bytes_.append(v);
    offsets_.push_back(end);
  } else {
    cells_.push_back(Value(std::string(v)));
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
  size_t present = 0;
  while (remaining > 0) {
    const size_t n = remaining < 64 ? remaining : 64;
    const size_t w = in_bit >> 6;
    const size_t off = in_bit & 63;
    uint64_t v = words[w] >> off;
    if (off != 0 && w + 1 < words.size()) v |= words[w + 1] << (64 - off);
    if (n < 64) v &= (uint64_t{1} << n) - 1;
    present += static_cast<size_t>(std::popcount(v));
    const size_t ow = out_bit >> 6;
    const size_t ooff = out_bit & 63;
    valid_[ow] |= v << ooff;
    if (ooff != 0 && n > 64 - ooff) valid_[ow + 1] |= v >> (64 - ooff);
    out_bit += n;
    in_bit += n;
    remaining -= n;
  }
  null_count_ += count - present;
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
  // Adopting the source type backfills defaults for any existing nulls —
  // exactly what the first non-null per-cell append would have done.
  if (type_ == DataType::kNull) AdoptType(src.type_);
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
    case DataType::kString: {
      // One byte copy; each offset shifts by where the range lands.
      const uint32_t first = src.offsets_[begin];
      const uint32_t last = src.offsets_[end];
      const uint32_t base = static_cast<uint32_t>(bytes_.size());
      CheckedOffset(bytes_.size() + (last - first));
      bytes_.append(src.bytes_, first, last - first);
      const size_t at = offsets_.size();
      offsets_.resize(at + (end - begin));
      uint32_t* out = offsets_.data() + at;
      const uint32_t* in = src.offsets_.data() + begin + 1;
      for (size_t k = 0; k < end - begin; ++k) out[k] = in[k] - first + base;
      break;
    }
    default:
      break;
  }
  AppendBits(src.valid_, begin, end - begin);
}

namespace {

// Appends from[idx] for each index to *out, a pad taking T{} (the default
// AppendNull pushes). Without pads, one indexed loop into presized storage.
template <typename T>
void GatherValues(const std::vector<T>& from,
                  const std::vector<uint32_t>& indices, bool pads,
                  std::vector<T>* out) {
  const size_t at = out->size();
  out->resize(at + indices.size());
  T* dst = out->data() + at;
  if (pads) {
    for (size_t k = 0; k < indices.size(); ++k) {
      const uint32_t idx = indices[k];
      dst[k] = idx == ColumnVector::kPadIndex ? T{} : from[idx];
    }
  } else {
    for (size_t k = 0; k < indices.size(); ++k) dst[k] = from[indices[k]];
  }
}

}  // namespace

void ColumnVector::AppendGatherFrom(const ColumnVector& src,
                                    const std::vector<uint32_t>& indices,
                                    bool pads) {
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
  const bool adopted = type_ == DataType::kNull;
  if (adopted) AdoptType(src.type_);
  switch (type_) {
    case DataType::kBool:
      GatherValues(src.bools_, indices, pads, &bools_);
      break;
    case DataType::kInt64:
      GatherValues(src.ints_, indices, pads, &ints_);
      break;
    case DataType::kDouble:
      GatherValues(src.doubles_, indices, pads, &doubles_);
      break;
    case DataType::kString: {
      // Size the bytes first, then copy each cell's range; a pad or a null
      // is an empty range.
      size_t total = 0;
      for (uint32_t idx : indices) {
        if (idx == kPadIndex) continue;
        total += src.offsets_[idx + 1] - src.offsets_[idx];
      }
      size_t pos = bytes_.size();
      CheckedOffset(pos + total);
      bytes_.resize(pos + total);
      const size_t at = offsets_.size();
      offsets_.resize(at + n);
      uint32_t* out = offsets_.data() + at;
      char* dst = bytes_.data();
      for (size_t k = 0; k < n; ++k) {
        const uint32_t idx = indices[k];
        if (idx != kPadIndex) {
          const uint32_t from = src.offsets_[idx];
          const uint32_t len = src.offsets_[idx + 1] - from;
          std::memcpy(dst + pos, src.bytes_.data() + from, len);
          pos += len;
        }
        out[k] = static_cast<uint32_t>(pos);
      }
      break;
    }
    default:
      break;
  }
  const size_t new_size = size_ + n;
  valid_.resize((new_size + 63) / 64, 0);
  if (!pads && src.null_count_ == 0) {
    SetValidRange(size_, new_size);
  } else {
    size_t bit = size_;
    for (uint32_t idx : indices) {
      if (idx != kPadIndex && !src.IsNull(idx)) {
        SetValid(bit);
      } else {
        ++null_count_;
      }
      ++bit;
    }
  }
  size_ = new_size;
  // Nulls alone leave an untyped column untyped, as per-cell appends do.
  if (adopted && null_count_ == size_) DropTyped();
}

void ColumnVector::NormalizeDense() {
  valid_.resize((size_ + 63) / 64, 0);
  // Zero tail bits past size_.
  if ((size_ & 63) != 0 && !valid_.empty()) {
    valid_.back() &= (uint64_t{1} << (size_ & 63)) - 1;
  }
  null_count_ = size_ - CountValid(0, size_);
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
    present += static_cast<size_t>(std::popcount(w));
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
        add(k, present(r) ? offsets_[r + 1] - offsets_[r] + 4 : 1);
      }
      return;
  }
}

size_t ColumnVector::UniformCellByteSize() const {
  if (mixed_) return 0;
  switch (type_) {
    case DataType::kNull:
    case DataType::kBool:
      return 1;
    case DataType::kInt64:
    case DataType::kDouble:
      return null_count_ == 0 ? 8 : 0;
    case DataType::kString:
      return 0;
  }
  return 0;
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
  if (mixed_) {
    size_t total = 0;
    ForEachCellByteSize(
        n, [&](size_t k) { return static_cast<uint32_t>(begin + k); },
        [&](size_t, size_t bytes) { total += bytes; });
    return total;
  }
  // A null cell is 1 byte: the whole column's nulls are counted, a range's
  // are counted word-wise.
  const auto present = [&] {
    return begin == 0 && end == size_ ? size_ - null_count_
                                      : CountValid(begin, end);
  };
  switch (type_) {
    case DataType::kInt64:
    case DataType::kDouble: {
      const size_t p = present();
      return (n - p) + p * 8;
    }
    case DataType::kString: {
      // A null's range is empty, so the offsets span the present bytes.
      const size_t p = present();
      return (n - p) + p * 4 + (offsets_[end] - offsets_[begin]);
    }
    default:
      return n;
  }
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
      const int c = a.CellString(i).compare(b.CellString(j));
      return c < 0 ? -1 : (c > 0 ? 1 : 0);
    }
    default:
      return 0;
  }
}

KeyEquality::KeyEquality(const ColumnVector& a, const ColumnVector& b)
    : a_(&a), b_(&b) {
  if (a.mixed() || b.mixed()) return;
  const DataType ta = a.type();
  const DataType tb = b.type();
  if (ta == DataType::kInt64 && tb == DataType::kInt64) {
    kind_ = Kind::kInt64;
  } else if (ta == DataType::kDouble && tb == DataType::kDouble) {
    kind_ = Kind::kDouble;
  } else if (ta == DataType::kInt64 && tb == DataType::kDouble) {
    kind_ = Kind::kIntDouble;
  } else if (ta == DataType::kDouble && tb == DataType::kInt64) {
    kind_ = Kind::kDoubleInt;
  } else if (ta == DataType::kString && tb == DataType::kString) {
    kind_ = Kind::kString;
  } else if (ta == DataType::kBool && tb == DataType::kBool) {
    kind_ = Kind::kBool;
  }
}

ColumnPtr SliceColumn(const ColumnVector& src, size_t begin, size_t end) {
  auto out = std::make_shared<ColumnVector>();
  out->AppendRangeFrom(src, begin, end);
  return out;
}

ColumnPtr GatherColumn(const ColumnVector& src,
                       const std::vector<uint32_t>& indices, bool pads) {
  auto out = std::make_shared<ColumnVector>();
  out->AppendGatherFrom(src, indices, pads);
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
