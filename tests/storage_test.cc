#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "storage/catalog.h"
#include "storage/column.h"
#include "storage/schema.h"
#include "storage/table.h"
#include "storage/value.h"
#include "storage/view_store.h"
#include "tests/test_util.h"
#include "workload/generator.h"
#include "workload/profiles.h"

namespace cloudviews {
namespace {

// --- Value ------------------------------------------------------------------

TEST(ValueTest, NullByDefault) {
  Value v;
  EXPECT_TRUE(v.is_null());
  EXPECT_EQ(v.type(), DataType::kNull);
}

TEST(ValueTest, TypedAccessors) {
  EXPECT_EQ(Value(int64_t{7}).AsInt64(), 7);
  EXPECT_DOUBLE_EQ(Value(2.5).AsDouble(), 2.5);
  EXPECT_EQ(Value("hi").AsString(), "hi");
  EXPECT_TRUE(Value(true).AsBool());
}

TEST(ValueTest, NumericCrossTypeComparison) {
  EXPECT_EQ(Value(int64_t{5}).Compare(Value(5.0)), 0);
  EXPECT_LT(Value(int64_t{4}).Compare(Value(4.5)), 0);
  EXPECT_GT(Value(5.5).Compare(Value(int64_t{5})), 0);
}

TEST(ValueTest, NullsSortFirst) {
  EXPECT_LT(Value::Null().Compare(Value(int64_t{0})), 0);
  EXPECT_EQ(Value::Null().Compare(Value::Null()), 0);
  EXPECT_GT(Value("a").Compare(Value::Null()), 0);
}

TEST(ValueTest, StringOrdering) {
  EXPECT_LT(Value("apple").Compare(Value("banana")), 0);
  EXPECT_EQ(Value("x").Compare(Value("x")), 0);
}

TEST(ValueTest, HashEqualForCrossTypeEqualNumbers) {
  Hasher h1, h2;
  Value(int64_t{9}).HashInto(&h1);
  Value(9.0).HashInto(&h2);
  EXPECT_EQ(h1.Finish(), h2.Finish());
}

TEST(ValueTest, ByteSizeAccounting) {
  EXPECT_EQ(Value(int64_t{1}).ByteSize(), 8u);
  EXPECT_EQ(Value(1.0).ByteSize(), 8u);
  EXPECT_EQ(Value("abcd").ByteSize(), 8u);  // 4 chars + 4 overhead
  EXPECT_EQ(Value::Null().ByteSize(), 1u);
}

TEST(ValueTest, ToStringForms) {
  EXPECT_EQ(Value::Null().ToString(), "NULL");
  EXPECT_EQ(Value(true).ToString(), "true");
  EXPECT_EQ(Value(int64_t{-3}).ToString(), "-3");
  EXPECT_EQ(Value("s").ToString(), "s");
}

TEST(ValueTest, HashRowKeySelectsColumns) {
  Row r1 = {Value(int64_t{1}), Value("a"), Value(2.0)};
  Row r2 = {Value(int64_t{1}), Value("b"), Value(2.0)};
  std::vector<int> keys = {0, 2};
  EXPECT_EQ(HashRowKey(r1, keys), HashRowKey(r2, keys));
  std::vector<int> all = {0, 1, 2};
  EXPECT_NE(HashRowKey(r1, all), HashRowKey(r2, all));
}

// --- Schema ------------------------------------------------------------------

TEST(SchemaTest, FindColumn) {
  Schema s({{"a", DataType::kInt64}, {"b", DataType::kString}});
  EXPECT_EQ(s.FindColumn("a"), 0);
  EXPECT_EQ(s.FindColumn("b"), 1);
  EXPECT_FALSE(s.FindColumn("c").has_value());
}

TEST(SchemaTest, HashChangesWithNameAndType) {
  Schema a({{"x", DataType::kInt64}});
  Schema b({{"y", DataType::kInt64}});
  Schema c({{"x", DataType::kDouble}});
  Hasher ha, hb, hc;
  a.HashInto(&ha);
  b.HashInto(&hb);
  c.HashInto(&hc);
  EXPECT_NE(ha.Finish(), hb.Finish());
  EXPECT_NE(ha.Finish(), hc.Finish());
}

TEST(SchemaTest, ToStringReadable) {
  Schema s({{"a", DataType::kInt64}});
  EXPECT_EQ(s.ToString(), "(a:INT64)");
}

// --- ColumnVector ------------------------------------------------------------

// 200 cells built by `make_cell(i)`, null at 64-bit word boundaries (and
// every 7th cell), so ranges straddle bitmap words with nulls on both sides.
template <typename MakeCell>
ColumnVector MakeColumnWithNulls(MakeCell make_cell) {
  ColumnVector col;
  for (size_t i = 0; i < 200; ++i) {
    const size_t r = i % 64;
    if (r == 0 || r == 63 || i % 7 == 0) {
      col.AppendNull();
    } else {
      col.AppendValue(make_cell(i));
    }
  }
  return col;
}

// One column of each storage mode: typed scalars, string, mixed, kNull, and
// a second string column whose cells run from 0 to 22 bytes.
std::vector<ColumnVector> StorageModeColumns() {
  std::vector<ColumnVector> cols;
  cols.push_back(MakeColumnWithNulls(
      [](size_t i) { return Value(static_cast<int64_t>(i)); }));
  cols.push_back(MakeColumnWithNulls(
      [](size_t i) { return Value(0.5 * static_cast<double>(i)); }));
  cols.push_back(
      MakeColumnWithNulls([](size_t i) { return Value(i % 3 == 0); }));
  cols.push_back(MakeColumnWithNulls(
      [](size_t i) { return Value(std::string(i % 11, 'x')); }));
  cols.push_back(MakeColumnWithNulls([](size_t i) {
    return i % 2 == 0 ? Value(static_cast<int64_t>(i)) : Value("s");
  }));
  ColumnVector all_null;
  for (size_t i = 0; i < 200; ++i) all_null.AppendNull();
  cols.push_back(std::move(all_null));
  cols.push_back(MakeColumnWithNulls([](size_t i) {
    return Value(std::string(i % 23, static_cast<char>('a' + i % 5)));
  }));
  return cols;
}

// Every cell's type and rendering: equal strings = equal cells.
std::vector<std::string> RenderCells(const ColumnVector& col) {
  std::vector<std::string> out;
  for (size_t i = 0; i < col.size(); ++i) {
    out.push_back(std::to_string(static_cast<int>(col.CellType(i))) + ":" +
                  col.CellToString(i));
  }
  return out;
}

TEST(ColumnVectorTest, RangeByteSizeEqualsCellByteSizeSum) {
  const size_t bounds[] = {0,   1,   62,  63,  64,  65,  100, 127,
                           128, 129, 190, 191, 192, 199, 200};
  std::vector<ColumnVector> cols = StorageModeColumns();
  ASSERT_TRUE(cols[4].mixed());
  ASSERT_EQ(cols[5].type(), DataType::kNull);
  for (size_t c = 0; c < cols.size(); ++c) {
    const ColumnVector& col = cols[c];
    for (size_t begin : bounds) {
      for (size_t end : bounds) {
        if (end < begin) continue;
        size_t want = 0;
        for (size_t i = begin; i < end; ++i) want += col.CellByteSize(i);
        EXPECT_EQ(col.ByteSize(begin, end), want)
            << "column " << c << " [" << begin << ", " << end << ")";
      }
    }
    EXPECT_EQ(col.TotalByteSize(), col.ByteSize(0, col.size()));
  }
}

TEST(ColumnVectorTest, PadAwareGatherMatchesPerCellAppends) {
  constexpr uint32_t kPad = ColumnVector::kPadIndex;
  const std::vector<std::vector<uint32_t>> index_lists = {
      {kPad, kPad, kPad},                       // all pads
      {5, 0, 63, 64, 199, 64, 1},               // no pads
      {kPad, 3, kPad, 64, 63, kPad, 128, kPad}  // mixed
  };
  std::vector<ColumnVector> sources = StorageModeColumns();
  // Destinations: empty, holding a leading null, and holding an int64.
  std::vector<ColumnVector> starts(3);
  starts[1].AppendNull();
  starts[2].AppendInt64(7);
  for (size_t c = 0; c < sources.size(); ++c) {
    for (size_t l = 0; l < index_lists.size(); ++l) {
      for (size_t d = 0; d < starts.size(); ++d) {
        ColumnVector got = starts[d];
        got.AppendGatherFrom(sources[c], index_lists[l]);
        ColumnVector want = starts[d];
        for (uint32_t idx : index_lists[l]) {
          if (idx == kPad) {
            want.AppendNull();
          } else {
            want.AppendCellFrom(sources[c], idx);
          }
        }
        const std::string label = "source " + std::to_string(c) +
                                  " list " + std::to_string(l) +
                                  " start " + std::to_string(d);
        EXPECT_TRUE(got.BitmapConsistent()) << label;
        EXPECT_EQ(RenderCells(got), RenderCells(want)) << label;
        EXPECT_EQ(got.TotalByteSize(), want.TotalByteSize()) << label;
      }
    }
  }
}

TEST(ColumnVectorTest, RangeAppendMatchesPerCellAppends) {
  // Ranges that straddle bitmap words, appended after a leading null (an
  // untyped column adopting the source type) and after a first range (a
  // string column shifting its offsets).
  const size_t bounds[][2] = {{0, 200}, {1, 64}, {63, 130}, {199, 200}};
  std::vector<ColumnVector> sources = StorageModeColumns();
  for (size_t c = 0; c < sources.size(); ++c) {
    ColumnVector got;
    ColumnVector want;
    got.AppendNull();
    want.AppendNull();
    for (const auto& range : bounds) {
      got.AppendRangeFrom(sources[c], range[0], range[1]);
      for (size_t i = range[0]; i < range[1]; ++i) {
        want.AppendCellFrom(sources[c], i);
      }
    }
    EXPECT_TRUE(got.BitmapConsistent()) << "source " << c;
    EXPECT_EQ(RenderCells(got), RenderCells(want)) << "source " << c;
    EXPECT_EQ(got.TotalByteSize(), want.TotalByteSize()) << "source " << c;
  }
}

TEST(ColumnVectorTest, StringOffsetsFailLoudlyPastTheirRange) {
  EXPECT_EQ(ColumnVector::CheckedOffset(0), 0u);
  EXPECT_EQ(ColumnVector::CheckedOffset(std::numeric_limits<uint32_t>::max()),
            std::numeric_limits<uint32_t>::max());
  EXPECT_THROW(ColumnVector::CheckedOffset(size_t{1} << 32),
               std::length_error);
}

// The storage-mode columns plus cells where equality is subtle: NaN, -0.0
// against 0.0, int64 against double (2^53 + 1 reads as 2^53 through double),
// and strings around the 8-byte word: empty, 7, 8, 9, 16 and 17 bytes, and
// strings that share their first 8 bytes.
std::vector<ColumnVector> KeyColumns() {
  std::vector<ColumnVector> cols = StorageModeColumns();
  const double nan = std::nan("");
  const int64_t big = (int64_t{1} << 53) + 1;
  ColumnVector doubles;
  ColumnVector ints;
  ColumnVector strings;
  ColumnVector mixed;
  for (double v : {nan, -0.0, 0.0, 5.0, 2.5, -7.0, 9007199254740992.0}) {
    doubles.AppendDouble(v);
    mixed.AppendDouble(v);
  }
  doubles.AppendNull();
  for (int64_t v : {int64_t{0}, int64_t{5}, int64_t{-7}, big, int64_t{2}}) {
    ints.AppendInt64(v);
    mixed.AppendInt64(v);
  }
  ints.AppendNull();
  const std::string alphabet = "abcdefghijklmnopq";
  std::vector<std::string> texts;
  for (size_t len : {0, 7, 8, 9, 16, 17}) {
    texts.push_back(alphabet.substr(0, len));
  }
  for (const char* v : {"abcdefghX", "abcdefghY", "abcdefghijklmnoq"}) {
    texts.push_back(v);
  }
  texts.push_back("abcdefgh12345678");
  for (const std::string& v : texts) {
    strings.AppendString(v);
    mixed.AppendString(v);
  }
  strings.AppendNull();
  mixed.AppendNull();
  mixed.AppendBool(true);
  cols.push_back(std::move(doubles));
  cols.push_back(std::move(ints));
  cols.push_back(std::move(strings));
  cols.push_back(std::move(mixed));
  return cols;
}

bool IsNan(const ColumnVector& col, size_t i) {
  return col.CellType(i) == DataType::kDouble && std::isnan(col.CellDouble(i));
}

TEST(ColumnVectorTest, KeyEqualityAndKeyHashFollowCompareCells) {
  // Over every pair of cells of every pair of columns: the typed equality
  // is exactly CompareCells == 0, and equal non-NaN cells hash equally.
  std::vector<ColumnVector> cols = KeyColumns();
  std::vector<std::vector<uint64_t>> hashes;
  for (const ColumnVector& col : cols) {
    hashes.emplace_back(col.size(), 0);
    col.MixKeyHashes(col.size(), hashes.back().data());
  }
  size_t pairs = 0;
  size_t equal_pairs = 0;
  for (size_t a = 0; a < cols.size(); ++a) {
    for (size_t b = 0; b < cols.size(); ++b) {
      const KeyEquality equal(cols[a], cols[b]);
      for (size_t i = 0; i < cols[a].size(); ++i) {
        for (size_t j = 0; j < cols[b].size(); ++j) {
          const bool want = CompareCells(cols[a], i, cols[b], j) == 0;
          ++pairs;
          if (equal(i, j) != want) {
            ADD_FAILURE() << "columns " << a << "/" << b << " cells " << i
                          << "/" << j << ": " << cols[a].CellToString(i)
                          << " vs " << cols[b].CellToString(j);
            return;
          }
          if (!want || IsNan(cols[a], i) || IsNan(cols[b], j)) continue;
          ++equal_pairs;
          if (hashes[a][i] != hashes[b][j]) {
            ADD_FAILURE() << "equal cells hash apart: columns " << a << "/"
                          << b << " cells " << i << "/" << j << ": "
                          << cols[a].CellToString(i);
            return;
          }
        }
      }
    }
  }
  EXPECT_GT(pairs, 1000000u);
  EXPECT_GT(equal_pairs, 10000u);
}

TEST(ColumnVectorTest, KeyHashSeparatesTheSubtleStrings) {
  // Distinct strings of the fixture, each around an 8-byte boundary, get
  // distinct key hashes, as do -0.0/0.0 (equal) against 5.0 and NaN.
  std::vector<ColumnVector> cols = KeyColumns();
  const ColumnVector& strings = cols[cols.size() - 2];
  std::vector<uint64_t> hashes(strings.size(), 0);
  strings.MixKeyHashes(strings.size(), hashes.data());
  for (size_t i = 0; i < hashes.size(); ++i) {
    for (size_t j = i + 1; j < hashes.size(); ++j) {
      EXPECT_NE(hashes[i], hashes[j])
          << strings.CellToString(i) << " vs " << strings.CellToString(j);
    }
  }
  const ColumnVector& doubles = cols[cols.size() - 4];
  std::vector<uint64_t> dh(doubles.size(), 0);
  doubles.MixKeyHashes(doubles.size(), dh.data());
  EXPECT_EQ(dh[1], dh[2]);  // -0.0 and 0.0
  EXPECT_NE(dh[2], dh[3]);  // 0.0 and 5.0
  EXPECT_NE(dh[0], dh[3]);  // NaN and 5.0
}

TEST(ColumnVectorTest, ColumnAtATimeHashEqualsPerCellHash) {
  // Two columns fed in turn, as a key of two columns would be: each row's
  // Hasher must end in the state per-cell HashCellInto calls leave.
  const size_t begins[] = {0, 1, 63, 64, 65, 130, 199, 200};
  std::vector<ColumnVector> cols = StorageModeColumns();
  for (size_t a = 0; a < cols.size(); ++a) {
    const ColumnVector& second = cols[(a + 3) % cols.size()];
    for (size_t begin : begins) {
      const size_t n = cols[a].size() - begin;
      std::vector<Hasher> got(n, Hasher(begin));
      cols[a].HashCellsInto(begin, n, got.data());
      second.HashCellsInto(begin, n, got.data());
      for (size_t k = 0; k < n; ++k) {
        Hasher want(begin);
        cols[a].HashCellInto(begin + k, &want);
        second.HashCellInto(begin + k, &want);
        EXPECT_EQ(got[k].Finish(), want.Finish())
            << "column " << a << " begin " << begin << " row " << k;
      }
    }
  }
}

TEST(ColumnVectorTest, PerRowByteSizesEqualCellByteSize) {
  constexpr uint32_t kPad = ColumnVector::kPadIndex;
  const std::vector<uint32_t> rows = {kPad, 3,  kPad, 64, 63,  0,
                                      199,  kPad, 128, 127, 65, kPad};
  std::vector<ColumnVector> cols = StorageModeColumns();
  for (size_t c = 0; c < cols.size(); ++c) {
    const ColumnVector& col = cols[c];
    // The counts are added to what the slots already hold.
    std::vector<uint32_t> got(rows.size());
    for (size_t k = 0; k < got.size(); ++k) got[k] = static_cast<uint32_t>(k);
    col.AddCellByteSizes(rows, got.data());
    for (size_t k = 0; k < rows.size(); ++k) {
      const size_t want =
          k + (rows[k] == kPad ? 1 : col.CellByteSize(rows[k]));
      EXPECT_EQ(got[k], want) << "column " << c << " slot " << k;
    }
    for (size_t begin : {size_t{0}, size_t{1}, size_t{63}, size_t{130}}) {
      std::vector<uint32_t> range(col.size() - begin, 5);
      col.AddCellByteSizes(begin, range.size(), range.data());
      for (size_t k = 0; k < range.size(); ++k) {
        EXPECT_EQ(range[k], 5 + col.CellByteSize(begin + k))
            << "column " << c << " begin " << begin << " row " << k;
      }
    }
  }
}

// --- Table -------------------------------------------------------------------

TEST(TableTest, AppendAndRead) {
  Schema schema({{"id", DataType::kInt64}});
  Table t("t", schema);
  ASSERT_TRUE(t.Append({Value(int64_t{1})}).ok());
  ASSERT_TRUE(t.Append({Value(int64_t{2})}).ok());
  EXPECT_EQ(t.num_rows(), 2u);
  EXPECT_EQ(t.row(1)[0].AsInt64(), 2);
  EXPECT_EQ(t.byte_size(), 16u);
}

TEST(TableTest, ArityMismatchRejected) {
  Schema schema({{"id", DataType::kInt64}});
  Table t("t", schema);
  Status s = t.Append({Value(int64_t{1}), Value(int64_t{2})});
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(t.num_rows(), 0u);
}

// A batch of one int64 column holding `cells` cells and claiming `num_rows`.
ColumnBatch IntBatch(size_t cells, size_t num_rows) {
  auto col = std::make_shared<ColumnVector>();
  for (size_t i = 0; i < cells; ++i) col->AppendInt64(static_cast<int64_t>(i));
  ColumnBatch batch;
  batch.columns.push_back(std::move(col));
  batch.num_rows = num_rows;
  return batch;
}

TEST(TableTest, AppendBatchRejectsMissingColumn) {
  Table t("t", Schema({{"id", DataType::kInt64}}));
  ColumnBatch batch = IntBatch(3, 3);
  batch.columns[0] = nullptr;
  EXPECT_EQ(t.AppendBatch(batch).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(t.num_rows(), 0u);
}

TEST(TableTest, AppendBatchRejectsColumnOfWrongLength) {
  Table t("t", Schema({{"id", DataType::kInt64}}));
  EXPECT_EQ(t.AppendBatch(IntBatch(2, 3)).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(t.AppendBatch(IntBatch(4, 3)).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(t.num_rows(), 0u);
  EXPECT_EQ(t.byte_size(), 0u);
  ASSERT_TRUE(t.AppendBatch(IntBatch(3, 3)).ok());
  EXPECT_EQ(t.num_rows(), 3u);
  EXPECT_EQ(t.byte_size(), 24u);
}

TEST(TableTest, AppendBatchRejectsUnreadBytes) {
  Table t("t", Schema({{"id", DataType::kInt64}}));
  ColumnBatch batch = IntBatch(3, 3);
  batch.unread_bytes.assign(3, 8);
  EXPECT_EQ(t.AppendBatch(batch).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(t.num_rows(), 0u);
}

// Rows over every storage mode: int64, double, string and bool columns with
// nulls at bits 63, 64 and 65, an all-null column, and a column that holds
// ints and then doubles, so it demotes to mixed.
std::vector<Row> LayoutRows() {
  std::vector<Row> rows;
  for (int64_t i = 0; i < 130; ++i) {
    const bool null = i == 63 || i == 64 || i == 65;
    auto cell = [&](Value v) { return null ? Value::Null() : v; };
    Value demoting = i < 100 ? Value(i) : Value(static_cast<double>(i) + 0.5);
    rows.push_back({cell(Value(i)), cell(Value(0.25 * static_cast<double>(i))),
                    cell(Value("s" + std::to_string(i % 5))),
                    cell(Value(i % 3 == 0)), Value::Null(), cell(demoting)});
  }
  return rows;
}

Schema LayoutSchema() {
  return Schema({{"i", DataType::kInt64},
                 {"d", DataType::kDouble},
                 {"s", DataType::kString},
                 {"b", DataType::kBool},
                 {"n", DataType::kInt64},
                 {"m", DataType::kDouble}});
}

// Rows [begin, end) as columns built cell by cell.
std::vector<ColumnVector> LayoutColumns(const std::vector<Row>& rows,
                                        size_t begin, size_t end) {
  std::vector<ColumnVector> columns(rows[0].size());
  for (size_t r = begin; r < end; ++r) {
    for (size_t c = 0; c < columns.size(); ++c) {
      columns[c].AppendValue(rows[r][c]);
    }
  }
  return columns;
}

TEST(TableTest, EveryBuilderKeepsTheRowLayoutsBytes) {
  const std::vector<Row> rows = LayoutRows();

  Table by_cell("t", LayoutSchema());
  for (const Row& row : rows) ASSERT_TRUE(by_cell.Append(row).ok());

  // Two batches, split inside the null run and before the demotion.
  Table by_batch("t", LayoutSchema());
  for (auto [begin, end] : {std::pair<size_t, size_t>{0, 64}, {64, 130}}) {
    ColumnBatch batch;
    batch.num_rows = end - begin;
    for (ColumnVector& col : LayoutColumns(rows, begin, end)) {
      batch.columns.push_back(std::make_shared<ColumnVector>(std::move(col)));
    }
    ASSERT_TRUE(by_batch.AppendBatch(batch).ok());
  }

  Table by_columns("t", LayoutSchema());
  ASSERT_TRUE(
      by_columns.AdoptColumns(LayoutColumns(rows, 0, rows.size())).ok());

  // What the row layout's checksum hashed: the row count, then per row the
  // arity and each Value.
  Hasher reference;
  reference.Update(static_cast<uint64_t>(rows.size()));
  size_t reference_bytes = 0;
  for (const Row& row : rows) {
    reference.Update(static_cast<uint64_t>(row.size()));
    for (const Value& v : row) {
      v.HashInto(&reference);
      reference_bytes += v.ByteSize();
    }
  }

  ASSERT_TRUE(by_cell.column(5)->mixed());
  ASSERT_EQ(by_cell.column(4)->type(), DataType::kNull);
  for (const Table* t : {&by_cell, &by_batch, &by_columns}) {
    EXPECT_EQ(t->num_rows(), rows.size());
    EXPECT_EQ(t->byte_size(), reference_bytes);
    EXPECT_EQ(ComputeTableChecksum(*t), reference.Finish());
    for (size_t c = 0; c < rows[0].size(); ++c) {
      EXPECT_EQ(t->column(c)->type(), by_cell.column(c)->type()) << c;
      EXPECT_EQ(t->column(c)->mixed(), by_cell.column(c)->mixed()) << c;
    }
    for (size_t r = 0; r < rows.size(); ++r) {
      const Row got = t->row(r);
      ASSERT_EQ(got.size(), rows[r].size());
      for (size_t c = 0; c < got.size(); ++c) {
        EXPECT_EQ(got[c].type(), rows[r][c].type()) << r << "," << c;
        EXPECT_EQ(got[c].Compare(rows[r][c]), 0) << r << "," << c;
      }
    }
  }
}

TEST(TableTest, AdoptColumnsRejectsBadShapes) {
  Table t("t", Schema({{"a", DataType::kInt64}, {"b", DataType::kInt64}}));
  std::vector<ColumnVector> uneven(2);
  uneven[0].AppendInt64(1);
  EXPECT_EQ(t.AdoptColumns(std::move(uneven)).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(t.AdoptColumns(std::vector<ColumnVector>(3)).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(t.num_rows(), 0u);
  // Only an empty table adopts columns.
  ASSERT_TRUE(t.Append({Value(int64_t{1}), Value(int64_t{2})}).ok());
  std::vector<ColumnVector> more(2);
  for (ColumnVector& col : more) col.AppendInt64(3);
  EXPECT_EQ(t.AdoptColumns(std::move(more)).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(t.num_rows(), 1u);
  EXPECT_EQ(t.byte_size(), 16u);
}

// --- Generated datasets -----------------------------------------------------

// The e2e benchmark's table1 and fleet_history dataset shapes.
WorkloadProfile Table1Profile() {
  WorkloadProfile p = ProductionDeploymentProfile(0.5);
  p.seed = 20200201;
  p.min_rows = 1000;
  p.max_rows = 1500;
  return p;
}

WorkloadProfile FleetHistoryProfile() {
  WorkloadProfile p = Table1Profile();
  p.num_templates = 336;
  p.min_rows = 80;
  p.max_rows = 120;
  p.generalized_fraction = 0.4;
  return p;
}

TEST(GeneratedDatasetTest, ChecksumsAndSizesMatchTheRowLayouts) {
  // Recorded when datasets were generated row by row.
  struct Golden {
    const char* profile;
    int index;
    int day;
    const char* checksum;
    size_t byte_size;
  };
  const Golden goldens[] = {
      {"table1", 0, 0, "8c793f6bbeb40b945e0b91fb1771101f", 60480},
      {"table1", 7, 3, "297a7051e9793bb84290469eed5b5995", 70176},
      {"fleet_history", 3, 0, "30d23608d7854e55aaa645e85fe941a8", 3984},
      {"fleet_history", 11, 5, "5ac6ddcfd4d59988af7b9f10060f01ea", 4512},
  };
  WorkloadGenerator table1(Table1Profile());
  WorkloadGenerator fleet_history(FleetHistoryProfile());
  for (const Golden& g : goldens) {
    WorkloadGenerator& generator =
        std::string(g.profile) == "table1" ? table1 : fleet_history;
    TablePtr table = generator.GenerateDataset(g.index, g.day);
    const std::string label = std::string(g.profile) + " dataset " +
                              std::to_string(g.index) + " day " +
                              std::to_string(g.day);
    EXPECT_EQ(ComputeTableChecksum(*table).ToHex(), g.checksum) << label;
    EXPECT_EQ(table->byte_size(), g.byte_size) << label;
    for (size_t c = 0; c < table->num_columns(); ++c) {
      EXPECT_FALSE(table->column(c)->mixed()) << label << " column " << c;
      EXPECT_EQ(table->column(c)->type(), table->schema().column(c).type)
          << label << " column " << c;
    }
  }
}

// --- DatasetCatalog ------------------------------------------------------------

TEST(CatalogTest, RegisterAndLookup) {
  DatasetCatalog catalog;
  testing_util::RegisterFigure4Tables(&catalog);
  EXPECT_EQ(catalog.size(), 3u);
  auto ds = catalog.Lookup("Sales");
  ASSERT_TRUE(ds.ok());
  EXPECT_EQ(ds->guid, "guid-sales-v1");
  EXPECT_EQ(ds->version, 1);
}

TEST(CatalogTest, DuplicateRegisterRejected) {
  DatasetCatalog catalog;
  testing_util::RegisterFigure4Tables(&catalog);
  Status s = catalog.Register("Sales", testing_util::MakeSalesTable(), "g2");
  EXPECT_EQ(s.code(), StatusCode::kAlreadyExists);
}

TEST(CatalogTest, BulkUpdateRotatesGuidAndBumpsVersion) {
  DatasetCatalog catalog;
  testing_util::RegisterFigure4Tables(&catalog);
  ASSERT_TRUE(catalog
                  .BulkUpdate("Sales", testing_util::MakeSalesTable(100),
                              "guid-sales-v2", 42.0)
                  .ok());
  auto ds = catalog.Lookup("Sales");
  ASSERT_TRUE(ds.ok());
  EXPECT_EQ(ds->guid, "guid-sales-v2");
  EXPECT_EQ(ds->version, 2);
  EXPECT_EQ(ds->updated_at, 42.0);
  EXPECT_EQ(ds->table->num_rows(), 100u);
}

TEST(CatalogTest, BulkUpdateRequiresFreshGuid) {
  DatasetCatalog catalog;
  testing_util::RegisterFigure4Tables(&catalog);
  Status s = catalog.BulkUpdate("Sales", testing_util::MakeSalesTable(),
                                "guid-sales-v1");
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
}

TEST(CatalogTest, GdprForgetIsBulkUpdate) {
  DatasetCatalog catalog;
  testing_util::RegisterFigure4Tables(&catalog);
  ASSERT_TRUE(catalog
                  .GdprForget("Customer", testing_util::MakeCustomerTable(90),
                              "guid-customer-v2")
                  .ok());
  auto ds = catalog.Lookup("Customer");
  ASSERT_TRUE(ds.ok());
  EXPECT_EQ(ds->table->num_rows(), 90u);
  EXPECT_EQ(ds->guid, "guid-customer-v2");
}

TEST(CatalogTest, LookupMissingFails) {
  DatasetCatalog catalog;
  EXPECT_EQ(catalog.Lookup("nope").status().code(), StatusCode::kNotFound);
}

// --- ViewStore ------------------------------------------------------------------

class ViewStoreTest : public ::testing::Test {
 protected:
  Hash128 sig_ = HashString("sig-a");
  Hash128 rec_ = HashString("rec-a");

  TablePtr MakeContents() {
    Schema schema({{"x", DataType::kInt64}});
    auto t = std::make_shared<Table>("v", schema);
    t->Append({Value(int64_t{1})}).ok();
    return t;
  }
};

TEST_F(ViewStoreTest, MaterializeThenSealThenFind) {
  ViewStore store(100.0);
  ASSERT_TRUE(store.BeginMaterialize(sig_, rec_, "vc0", 1, 0.0).ok());
  EXPECT_EQ(store.Find(sig_, 0.0), nullptr);  // not yet sealed
  ASSERT_TRUE(store.Seal(sig_, MakeContents(), 1, 12, 5.0).ok());
  const MaterializedView* view = store.Find(sig_, 6.0);
  ASSERT_NE(view, nullptr);
  EXPECT_EQ(view->state, ViewState::kSealed);
  EXPECT_EQ(view->observed_rows, 1u);
  EXPECT_EQ(view->sealed_at, 5.0);
  EXPECT_EQ(store.total_views_created(), 1);
}

TEST_F(ViewStoreTest, OutputPathEncodesSignature) {
  ViewStore store;
  ASSERT_TRUE(store.BeginMaterialize(sig_, rec_, "vc7", 1, 0.0).ok());
  const MaterializedView* view = store.FindAny(sig_);
  ASSERT_NE(view, nullptr);
  EXPECT_NE(view->output_path.find(sig_.ToHex()), std::string::npos);
  EXPECT_NE(view->output_path.find("vc7"), std::string::npos);
}

TEST_F(ViewStoreTest, DoubleMaterializeRejected) {
  ViewStore store;
  ASSERT_TRUE(store.BeginMaterialize(sig_, rec_, "vc0", 1, 0.0).ok());
  Status s = store.BeginMaterialize(sig_, rec_, "vc0", 2, 0.0);
  EXPECT_EQ(s.code(), StatusCode::kAlreadyExists);
}

TEST_F(ViewStoreTest, ExpiryHidesAndPurges) {
  ViewStore store(10.0);  // 10-second TTL
  ASSERT_TRUE(store.BeginMaterialize(sig_, rec_, "vc0", 1, 0.0).ok());
  ASSERT_TRUE(store.Seal(sig_, MakeContents(), 1, 12, 1.0).ok());
  EXPECT_NE(store.Find(sig_, 9.0), nullptr);
  EXPECT_EQ(store.Find(sig_, 10.0), nullptr);  // past TTL
  EXPECT_EQ(store.PurgeExpired(11.0), 1u);
  EXPECT_EQ(store.NumLive(), 0u);
}

TEST_F(ViewStoreTest, ReuseCounting) {
  ViewStore store;
  ASSERT_TRUE(store.BeginMaterialize(sig_, rec_, "vc0", 1, 0.0).ok());
  ASSERT_TRUE(store.Seal(sig_, MakeContents(), 1, 12, 0.0).ok());
  ASSERT_TRUE(store.RecordReuse(sig_).ok());
  ASSERT_TRUE(store.RecordReuse(sig_).ok());
  EXPECT_EQ(store.total_views_reused(), 2);
  EXPECT_EQ(store.FindAny(sig_)->reuse_count, 2);
}

TEST_F(ViewStoreTest, InvalidateRemoves) {
  ViewStore store;
  ASSERT_TRUE(store.BeginMaterialize(sig_, rec_, "vc0", 1, 0.0).ok());
  ASSERT_TRUE(store.Seal(sig_, MakeContents(), 1, 12, 0.0).ok());
  ASSERT_TRUE(store.Invalidate(sig_).ok());
  EXPECT_EQ(store.FindAny(sig_), nullptr);
  EXPECT_EQ(store.Invalidate(sig_).code(), StatusCode::kNotFound);
}

TEST_F(ViewStoreTest, TotalBytesTracksSealedViews) {
  ViewStore store;
  ASSERT_TRUE(store.BeginMaterialize(sig_, rec_, "vc0", 1, 0.0).ok());
  EXPECT_EQ(store.TotalBytes(), 0u);
  ASSERT_TRUE(store.Seal(sig_, MakeContents(), 1, 12, 0.0).ok());
  EXPECT_GT(store.TotalBytes(), 0u);
  store.InvalidateAll();
  EXPECT_EQ(store.TotalBytes(), 0u);
}

TEST_F(ViewStoreTest, SealWithoutBeginFails) {
  ViewStore store;
  EXPECT_EQ(store.Seal(sig_, MakeContents(), 1, 12, 0.0).code(),
            StatusCode::kNotFound);
}

}  // namespace
}  // namespace cloudviews
