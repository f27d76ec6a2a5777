#ifndef CLOUDVIEWS_STORAGE_COLUMN_H_
#define CLOUDVIEWS_STORAGE_COLUMN_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/hash.h"
#include "storage/value.h"

namespace cloudviews {

// One column of a batch: a typed value array plus a null bitmap. The column
// starts untyped (every cell null) and adopts the type of the first non-null
// cell appended. Appending a second scalar type demotes the column to
// `mixed` storage (per-cell dynamic Values) — the correctness fallback that
// keeps batch execution byte-identical to the row engine for heterogeneous
// columns (e.g. SUM emitting int64 for one group and double for another).
//
// Typed storage keeps a full-length vector with defaults at null positions,
// so kernels can read `ints()[i]` unconditionally and consult the bitmap
// separately. A string column is Arrow's variable-size binary layout: one
// byte buffer and size() + 1 `uint32_t` offsets, cell i being the bytes
// [offsets[i], offsets[i + 1]); a null cell is an empty range. Cell-granular
// accessors (CellByteSize / HashCellInto / CompareCells / CellToString)
// replicate the corresponding Value methods bit for bit; they are the
// parity layer every columnar operator leans on.
class ColumnVector {
 public:
  // A gather index meaning "append a null here" (the unmatched side of an
  // outer join).
  static constexpr uint32_t kPadIndex = 0xFFFFFFFFu;

  ColumnVector() = default;

  size_t size() const { return size_; }
  // Storage type: kNull until the first non-null append; the scalar type
  // afterwards. Meaningless (kNull) in mixed mode.
  DataType type() const { return type_; }
  bool mixed() const { return mixed_; }

  bool IsNull(size_t i) const {
    return (valid_[i >> 6] & (uint64_t{1} << (i & 63))) == 0;
  }
  // Number of null cells, kept by every builder (Arrow's null count): zero
  // lets a kernel skip the bitmap.
  size_t null_count() const { return null_count_; }
  // The cell's dynamic type (kNull for null cells, per-cell in mixed mode).
  DataType CellType(size_t i) const;

  // Typed readers; valid when !mixed() and type() matches. Null positions
  // hold defaults.
  const std::vector<uint8_t>& bools() const { return bools_; }
  const std::vector<int64_t>& ints() const { return ints_; }
  const std::vector<double>& doubles() const { return doubles_; }
  std::string_view StringAt(size_t i) const {
    return std::string_view(bytes_.data() + offsets_[i],
                            offsets_[i + 1] - offsets_[i]);
  }

  // Cell readers that work in every storage mode. Preconditions mirror the
  // Value accessors: the cell must be non-null and of the matching type.
  bool CellBool(size_t i) const;
  int64_t CellInt64(size_t i) const;
  double CellDouble(size_t i) const;
  // A view into the column's storage, valid until the column is appended to.
  std::string_view CellString(size_t i) const {
    return mixed_ ? std::string_view(cells_[i].AsString()) : StringAt(i);
  }
  // Mirrors Value::NumericValue (0.0 for strings, bool as 0/1, null 0.0).
  double CellNumeric(size_t i) const;

  // Parity helpers — exact replicas of the Value methods of the same name.
  size_t CellByteSize(size_t i) const;
  void HashCellInto(size_t i, Hasher* hasher) const;
  // Column-at-a-time HashCellInto: feeds cell begin + k into hashers[k] for
  // k in [0, n), the same bytes a per-cell call would feed.
  void HashCellsInto(size_t begin, size_t n, Hasher* hashers) const;
  // The byte size every cell has when all share one, else 0: 1 for an
  // untyped or bool column (a null or a pad is 1 byte too), 8 for an int64
  // or double column without nulls.
  size_t UniformCellByteSize() const;
  // Adds CellByteSize of the cell at rows[k] to out[k] (1 for kPadIndex: a
  // pad is a null), without copying the cells.
  void AddCellByteSizes(const std::vector<uint32_t>& rows,
                        uint32_t* out) const;
  // The same over the contiguous rows [begin, begin + n).
  void AddCellByteSizes(size_t begin, size_t n, uint32_t* out) const;
  // Folds cell k's key word into hashes[k] for k in [0, n) (MixKeyWord):
  // the 64-bit hash of join and aggregate keys. Cells equal under
  // CompareCells get equal words (NaN aside): an int64 hashes as its
  // double, -0.0 as 0.0, a string as HashBytes64, a null as the null word
  // HashCellInto feeds.
  void MixKeyHashes(size_t n, uint64_t* hashes) const;
  std::string CellToString(size_t i) const;
  Value GetValue(size_t i) const;

  // Builders. Reserve makes room for n cells; an untyped column reserves
  // typed storage for `expected`, the type it will adopt.
  void Reserve(size_t n, DataType expected = DataType::kNull);
  void AppendNull();
  void AppendBool(bool v);
  void AppendInt64(int64_t v);
  void AppendDouble(double v);
  // Throws std::length_error when the byte buffer would pass the offset
  // range (CheckedOffset).
  void AppendString(std::string_view v);
  void AppendValue(const Value& v);
  void AppendCellFrom(const ColumnVector& src, size_t i);

  // Bulk builders — behaviorally identical to the per-cell Append loops they
  // replace, but copy typed storage ranges and bitmap words wholesale. These
  // are the engine's throughput path; per-cell appends remain the fallback
  // for mixed-mode and type-mismatch cases.
  void AppendRangeFrom(const ColumnVector& src, size_t begin, size_t end);
  // Appends src's cell at each index in order, or a null for kPadIndex,
  // which `indices` may hold only when `pads` is set. Without pads, typed
  // values copy in one indexed loop, and from a source without nulls the
  // validity bits are set a word at a time.
  void AppendGatherFrom(const ColumnVector& src,
                        const std::vector<uint32_t>& indices, bool pads);

  // Kernel-result factories: install fully formed typed storage. `valid` is
  // a packed bitmap of at least ceil(n/64) words; tail bits past n and cell
  // slots at null positions are normalized to zero so the result is
  // indistinguishable from an append-built column.
  static std::shared_ptr<ColumnVector> DenseBool(std::vector<uint8_t> cells,
                                                 std::vector<uint64_t> valid,
                                                 size_t n);
  static std::shared_ptr<ColumnVector> DenseInt64(std::vector<int64_t> cells,
                                                  std::vector<uint64_t> valid,
                                                  size_t n);
  static std::shared_ptr<ColumnVector> DenseDouble(std::vector<double> cells,
                                                   std::vector<uint64_t> valid,
                                                   size_t n);

  // The packed validity words backing IsNull (bit i set = non-null).
  const std::vector<uint64_t>& valid_words() const { return valid_; }
  // An all-ones bitmap for n cells, tail bits zeroed.
  static std::vector<uint64_t> AllValid(size_t n);

  // Sum of CellByteSize over cells [begin, end) (the row engine's bytes
  // accounting), without copying the range out: for a fixed-width or string
  // column, 1 per null plus per present cell 8 (int64, double), 1 (bool) or
  // 4 (string) and, for strings, the offset difference.
  // The whole column's ByteSize reads the null count: O(1) unless mixed.
  size_t ByteSize(size_t begin, size_t end) const;
  size_t TotalByteSize() const { return ByteSize(0, size_); }

  // True when the null bitmap is sized consistently with size(), and when
  // null_count() is size() minus the bitmap's set bits — the invariants the
  // PhysicalVerifier's batch check enforces.
  bool BitmapConsistent() const { return valid_.size() == (size_ + 63) / 64; }
  bool NullCountConsistent() const {
    return null_count_ == size_ - CountValid(0, size_);
  }

  // `bytes` as the offset that ends a string buffer of that size. Throws
  // std::length_error past UINT32_MAX: a string column's appends fail
  // loudly instead of wrapping an offset.
  static uint32_t CheckedOffset(size_t bytes);

 private:
  // Tests build columns that break an invariant the verifier checks.
  friend class ColumnVectorPeer;

  void SetValid(size_t i) { valid_[i >> 6] |= uint64_t{1} << (i & 63); }
  // Sets the bits [begin, end) of the (already sized) bitmap.
  void SetValidRange(size_t begin, size_t end);
  // Number of non-null cells in [begin, end).
  size_t CountValid(size_t begin, size_t end) const;
  // Calls add(k, CellByteSize(row_at(k))) for k in [0, n), counting 1 for
  // a kPadIndex row: the one per-cell byte loop behind ByteSize and
  // AddCellByteSizes.
  template <typename RowAt, typename Add>
  void ForEachCellByteSize(size_t n, RowAt row_at, Add add) const;
  void GrowBitmap(bool valid);
  // Makes an untyped column typed `type`, with defaults for the size_ nulls
  // it holds.
  void AdoptType(DataType type);
  // Readies typed storage of `type` for a non-null append: an untyped column
  // adopts it, a column of another type demotes. False when the cell goes
  // to mixed storage.
  bool PrepareTyped(DataType type);
  // Appends `count` bits of `words` starting at bit `begin` to the bitmap,
  // advancing size_ and null_count_ (typed storage must be grown by the
  // caller).
  void AppendBits(const std::vector<uint64_t>& words, size_t begin,
                  size_t count);
  // Zeroes cell slots at null positions and tail bitmap bits, and counts
  // the nulls — the normalization that makes Dense* results match
  // append-built columns.
  void NormalizeDense();
  // Switches to mixed storage, converting existing cells to Values.
  void Demote();
  // Makes the column untyped, freeing its typed storage.
  void DropTyped();
  // Appends the default slot (an empty range for strings) to the active
  // typed storage for a null cell.
  void AppendTypedDefault();

  size_t size_ = 0;
  size_t null_count_ = 0;
  DataType type_ = DataType::kNull;
  bool mixed_ = false;
  std::vector<uint64_t> valid_;
  std::vector<uint8_t> bools_;
  std::vector<int64_t> ints_;
  std::vector<double> doubles_;
  // String storage: size_ + 1 offsets into one byte buffer.
  std::vector<uint32_t> offsets_;
  std::string bytes_;
  std::vector<Value> cells_;  // mixed-mode storage
};

using ColumnPtr = std::shared_ptr<const ColumnVector>;

// A batch of rows in columnar layout. Columns all have length num_rows. In
// the columnar engine a column no consumer reads may stay null; its bytes
// (CellByteSize per cell) then travel with the batch, so the batch's byte
// size is still that of the full logical row. Row i's unread bytes are
// uniform_unread_bytes plus, when present, unread_bytes[i]: the uniform
// count covers the null columns whose cells all had one byte size
// (ColumnVector::UniformCellByteSize), the per-row vector the others.
struct ColumnBatch {
  std::vector<ColumnPtr> columns;
  size_t num_rows = 0;
  // Per-row bytes of the null columns; empty when none needs them.
  std::vector<uint32_t> unread_bytes;
  // Bytes every row carries for null columns of one cell size.
  size_t uniform_unread_bytes = 0;

  size_t num_columns() const { return columns.size(); }
  void Clear() {
    columns.clear();
    num_rows = 0;
    unread_bytes.clear();
    uniform_unread_bytes = 0;
  }
};

// Total order over cells, exactly Value::Compare: nulls first, cross-type
// numeric comparison, different non-numeric types by type tag.
int CompareCells(const ColumnVector& a, size_t i, const ColumnVector& b,
                 size_t j);

// Key equality between the cells of two columns, exactly
// CompareCells(a, i, b, j) == 0, with the type dispatch resolved once for
// the pair. Two nulls are equal (nulls group together). Typed int64,
// double, string and bool pairs compare their storage; an int64/double pair
// goes through double, and doubles are equal unless one orders before the
// other, so NaN equals every number as under CompareCells. A mixed column
// or a pair of different non-numeric types calls CompareCells.
class KeyEquality {
 public:
  KeyEquality(const ColumnVector& a, const ColumnVector& b);

  bool operator()(size_t i, size_t j) const {
    const bool a_null = a_->IsNull(i);
    const bool b_null = b_->IsNull(j);
    // An untyped column is all nulls, so it never reaches the switch.
    if (a_null || b_null) return a_null && b_null;
    switch (kind_) {
      case Kind::kInt64:
        return a_->ints()[i] == b_->ints()[j];
      case Kind::kDouble:
        return NumbersEqual(a_->doubles()[i], b_->doubles()[j]);
      case Kind::kIntDouble:
        return NumbersEqual(static_cast<double>(a_->ints()[i]),
                            b_->doubles()[j]);
      case Kind::kDoubleInt:
        return NumbersEqual(a_->doubles()[i],
                            static_cast<double>(b_->ints()[j]));
      case Kind::kString:
        return a_->StringAt(i) == b_->StringAt(j);
      case Kind::kBool:
        return a_->bools()[i] == b_->bools()[j];
      case Kind::kCompare:
        break;
    }
    return CompareCells(*a_, i, *b_, j) == 0;
  }

 private:
  enum class Kind {
    kInt64,
    kDouble,
    kIntDouble,
    kDoubleInt,
    kString,
    kBool,
    kCompare,
  };

  static bool NumbersEqual(double x, double y) { return !(x < y || y < x); }

  const ColumnVector* a_;
  const ColumnVector* b_;
  Kind kind_ = Kind::kCompare;
};

// Builds a column holding rows [begin, end) of `src` (a typed copy).
ColumnPtr SliceColumn(const ColumnVector& src, size_t begin, size_t end);

// Builds a column of src's cells at `indices`, in order (kPadIndex = null,
// only when `pads`; see AppendGatherFrom).
ColumnPtr GatherColumn(const ColumnVector& src,
                       const std::vector<uint32_t>& indices, bool pads);

// Concatenates per-batch columns for column `col` of `batches`.
ColumnPtr ConcatColumn(const std::vector<ColumnBatch>& batches, size_t col);

// A column of `n` copies of `v`.
ColumnPtr BroadcastValue(const Value& v, size_t n);

}  // namespace cloudviews

#endif  // CLOUDVIEWS_STORAGE_COLUMN_H_
