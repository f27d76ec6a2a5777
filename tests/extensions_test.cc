#include <gtest/gtest.h>

#include "extensions/bitvector_filter.h"
#include "extensions/checkpointing.h"
#include "extensions/sampled_views.h"
#include "plan/builder.h"
#include "plan/containment.h"
#include "tests/test_util.h"

namespace cloudviews {
namespace {

// --- Containment --------------------------------------------------------------

ExprPtr ColGt(int col, int64_t v) {
  return Expr::MakeBinary(sql::BinaryOp::kGt, Expr::MakeColumn(col, "c"),
                          Expr::MakeLiteral(Value(v)));
}
ExprPtr ColLt(int col, int64_t v) {
  return Expr::MakeBinary(sql::BinaryOp::kLt, Expr::MakeColumn(col, "c"),
                          Expr::MakeLiteral(Value(v)));
}
ExprPtr ColEq(int col, int64_t v) {
  return Expr::MakeBinary(sql::BinaryOp::kEq, Expr::MakeColumn(col, "c"),
                          Expr::MakeLiteral(Value(v)));
}
ExprPtr And(ExprPtr a, ExprPtr b) {
  return Expr::MakeBinary(sql::BinaryOp::kAnd, std::move(a), std::move(b));
}

TEST(ContainmentTest, RangeImplication) {
  // The paper's example: CustomerId > 6 is contained in CustomerId > 5.
  EXPECT_TRUE(Implies(ColGt(0, 6), ColGt(0, 5)));
  EXPECT_FALSE(Implies(ColGt(0, 5), ColGt(0, 6)));
  EXPECT_TRUE(Implies(ColGt(0, 5), ColGt(0, 5)));  // reflexive
}

TEST(ContainmentTest, EqualityWithinRange) {
  EXPECT_TRUE(Implies(ColEq(0, 7), ColGt(0, 5)));
  EXPECT_FALSE(Implies(ColEq(0, 3), ColGt(0, 5)));
  EXPECT_TRUE(Implies(ColEq(0, 7), And(ColGt(0, 5), ColLt(0, 10))));
}

TEST(ContainmentTest, ConjunctionsAndMultipleColumns) {
  // p = (c0 > 6 AND c1 < 3) implies v = (c0 > 5): extra constraints only
  // narrow.
  EXPECT_TRUE(Implies(And(ColGt(0, 6), ColLt(1, 3)), ColGt(0, 5)));
  // v constrains a column p does not: no containment.
  EXPECT_FALSE(Implies(ColGt(0, 6), And(ColGt(0, 5), ColLt(1, 3))));
  // Tighter both-sided range inside looser one.
  EXPECT_TRUE(Implies(And(ColGt(0, 10), ColLt(0, 20)),
                      And(ColGt(0, 5), ColLt(0, 25))));
  EXPECT_FALSE(Implies(And(ColGt(0, 10), ColLt(0, 30)),
                       And(ColGt(0, 5), ColLt(0, 25))));
}

TEST(ContainmentTest, InclusivityMatters) {
  auto ge = Expr::MakeBinary(sql::BinaryOp::kGe, Expr::MakeColumn(0, "c"),
                             Expr::MakeLiteral(Value(int64_t{5})));
  auto gt = ColGt(0, 5);
  EXPECT_TRUE(Implies(gt, ge));   // x > 5 implies x >= 5
  EXPECT_FALSE(Implies(ge, gt));  // x >= 5 does not imply x > 5
}

TEST(ContainmentTest, ReversedOperands) {
  // 5 < c0 is c0 > 5.
  auto reversed = Expr::MakeBinary(sql::BinaryOp::kLt,
                                   Expr::MakeLiteral(Value(int64_t{5})),
                                   Expr::MakeColumn(0, "c"));
  EXPECT_TRUE(Implies(ColGt(0, 6), reversed));
}

TEST(ContainmentTest, UnsupportedShapesAreSoundlyRejected) {
  // OR is outside the fragment: must return false, never true.
  auto orexpr = Expr::MakeBinary(sql::BinaryOp::kOr, ColGt(0, 5), ColLt(0, 2));
  EXPECT_FALSE(Implies(orexpr, ColGt(0, 5)));
  // Cross-column comparison.
  auto cross = Expr::MakeBinary(sql::BinaryOp::kGt, Expr::MakeColumn(0, "a"),
                                Expr::MakeColumn(1, "b"));
  EXPECT_FALSE(Implies(cross, ColGt(0, 5)));
  // The paper's undecidable example: 2*c > 10 vs c > 5 — we soundly bail.
  auto arith = Expr::MakeBinary(
      sql::BinaryOp::kGt,
      Expr::MakeBinary(sql::BinaryOp::kMultiply,
                       Expr::MakeLiteral(Value(int64_t{2})),
                       Expr::MakeColumn(0, "c")),
      Expr::MakeLiteral(Value(int64_t{10})));
  EXPECT_FALSE(Implies(arith, ColGt(0, 5)));
}

TEST(ContainmentTest, NullPredicates) {
  EXPECT_TRUE(Implies(ColGt(0, 5), nullptr));   // view kept everything
  EXPECT_FALSE(Implies(nullptr, ColGt(0, 5)));  // query keeps everything
}

TEST(ContainmentTest, UnsatisfiableQueryContainedInAnything) {
  auto empty = And(ColGt(0, 10), ColLt(0, 5));
  EXPECT_TRUE(Implies(empty, ColGt(0, 100)));
}

// --- Checkpointing ---------------------------------------------------------------

class CheckpointTest : public ::testing::Test {
 protected:
  void SetUp() override { testing_util::RegisterFigure4Tables(&catalog_); }

  LogicalOpPtr Build(const std::string& sql) {
    PlanBuilder builder(&catalog_);
    auto plan = builder.BuildFromSql(sql);
    EXPECT_TRUE(plan.ok());
    return plan.ok() ? *plan : nullptr;
  }

  DatasetCatalog catalog_;
};

TEST_F(CheckpointTest, PlacesCheckpointsOverExpensiveSubtrees) {
  LogicalOpPtr plan = Build(
      "SELECT Name, COUNT(*) FROM Sales JOIN Customer "
      "ON Sales.CustomerId = Customer.CustomerId GROUP BY Name");
  CheckpointManager manager(&catalog_);
  LogicalOpPtr with_cp = manager.PlanWithCheckpoints(plan);
  // At least one spool was inserted.
  EXPECT_GT(with_cp->TreeSize(), plan->TreeSize());
}

TEST_F(CheckpointTest, RestartReusesSealedCheckpoint) {
  LogicalOpPtr plan = Build(
      "SELECT Name, COUNT(*) FROM Sales JOIN Customer "
      "ON Sales.CustomerId = Customer.CustomerId GROUP BY Name");
  CheckpointManager manager(&catalog_);
  LogicalOpPtr with_cp = manager.PlanWithCheckpoints(plan);

  // Attempt 1 fails right after the first checkpoint seals.
  auto attempt1 = manager.Execute(with_cp, /*fail_after_checkpoints=*/1);
  ASSERT_TRUE(attempt1.ok());
  EXPECT_TRUE(attempt1->failed);
  EXPECT_EQ(attempt1->checkpoints_written, 1);
  EXPECT_EQ(attempt1->output, nullptr);

  // Attempt 2 restores the checkpoint and completes.
  auto attempt2 = manager.Execute(with_cp);
  ASSERT_TRUE(attempt2.ok());
  EXPECT_FALSE(attempt2->failed);
  EXPECT_EQ(attempt2->checkpoints_restored, 1);
  ASSERT_NE(attempt2->output, nullptr);

  // Resubmission reads less base input than a cold run would.
  auto cold = manager.Execute(plan);
  ASSERT_TRUE(cold.ok());
  EXPECT_LT(attempt2->stats.input_rows, cold->stats.input_rows);
  EXPECT_EQ(attempt2->output->num_rows(), cold->output->num_rows());
}

TEST_F(CheckpointTest, NoFailureMeansNoRestore) {
  LogicalOpPtr plan = Build("SELECT Name FROM Customer WHERE MktSegment = 'Asia'");
  CheckpointManager manager(&catalog_);
  LogicalOpPtr with_cp = manager.PlanWithCheckpoints(plan);
  auto run = manager.Execute(with_cp);
  ASSERT_TRUE(run.ok());
  EXPECT_FALSE(run->failed);
  EXPECT_EQ(run->checkpoints_restored, 0);
  ASSERT_NE(run->output, nullptr);
  EXPECT_EQ(run->output->num_rows(), 34u);
}

// --- Bit-vector filters --------------------------------------------------------------

TEST(BloomFilterTest, NoFalseNegatives) {
  BloomFilter filter(1000);
  for (int64_t i = 0; i < 1000; ++i) filter.Add(Value(i));
  for (int64_t i = 0; i < 1000; ++i) {
    EXPECT_TRUE(filter.MayContain(Value(i)));
  }
}

TEST(BloomFilterTest, LowFalsePositiveRate) {
  BloomFilter filter(1000);
  for (int64_t i = 0; i < 1000; ++i) filter.Add(Value(i));
  int false_positives = 0;
  for (int64_t i = 10000; i < 20000; ++i) {
    if (filter.MayContain(Value(i))) false_positives += 1;
  }
  EXPECT_LT(false_positives, 300);  // << 3% on a ~1%-target filter
}

TEST(BitVectorStoreTest, RegisterFindInvalidate) {
  Schema schema({{"k", DataType::kInt64}});
  Table build("b", schema);
  for (int64_t i = 0; i < 50; ++i) build.Append({Value(i)}).ok();
  BitVectorFilterStore store;
  Hash128 sig = HashString("build-side");
  ASSERT_TRUE(store.Register(sig, build, {0}).ok());
  ASSERT_NE(store.Find(sig), nullptr);
  EXPECT_EQ(store.Find(sig)->items_added(), 50);
  EXPECT_GT(store.TotalBytes(), 0u);
  store.Invalidate(sig);
  EXPECT_EQ(store.Find(sig), nullptr);
}

TEST(BitVectorStoreTest, BadKeyColumnRejected) {
  Schema schema({{"k", DataType::kInt64}});
  Table build("b", schema);
  BitVectorFilterStore store;
  EXPECT_FALSE(store.Register(HashString("s"), build, {5}).ok());
}

TEST(BitVectorStoreTest, SemiJoinReduceEliminatesNonMatching) {
  Schema schema({{"k", DataType::kInt64}, {"v", DataType::kString}});
  Table build("b", schema);
  for (int64_t i = 0; i < 20; ++i) build.Append({Value(i), Value("x")}).ok();
  BloomFilter filter(20);
  for (int64_t i = 0; i < 20; ++i) filter.Add(Value(i));

  Table probe("p", schema);
  for (int64_t i = 0; i < 200; ++i) probe.Append({Value(i), Value("y")}).ok();
  TablePtr reduced;
  auto eliminated = SemiJoinReduce(filter, probe, {0}, &reduced);
  ASSERT_TRUE(eliminated.ok());
  // 180 probe rows (k in [20,200)) do not match; nearly all eliminated.
  EXPECT_GT(*eliminated, 160);
  EXPECT_EQ(probe.num_rows() - static_cast<size_t>(*eliminated),
            reduced->num_rows());
  // Every true match survived.
  int matches = 0;
  for (const Row& row : reduced->rows()) {
    if (row[0].AsInt64() < 20) matches += 1;
  }
  EXPECT_EQ(matches, 20);
}

// A row's key hash the way a per-row reader computes it: its key Values in
// key-column order.
uint64_t RowKeyHash(const Row& row, const std::vector<int>& key_columns) {
  Hasher hasher;
  for (int col : key_columns) row[static_cast<size_t>(col)].HashInto(&hasher);
  return hasher.Finish().lo;
}

TEST(BitVectorStoreTest, ColumnHashingKeepsThePerRowKeys) {
  // Register and SemiJoinReduce hash a column at a time; each row's key
  // must hash to what its Values hash to, in key-column order.
  Schema schema({{"k", DataType::kInt64}, {"s", DataType::kString}});
  Table build("b", schema);
  for (int64_t i = 0; i < 40; ++i) {
    build.Append({Value(i), Value("x" + std::to_string(i % 3))}).ok();
  }
  Table probe("p", schema);
  for (int64_t i = 0; i < 300; ++i) {
    probe
        .Append({i % 11 == 0 ? Value::Null() : Value(i % 60),
                 Value("x" + std::to_string(i % 4))})
        .ok();
  }
  const std::vector<int> keys = {1, 0};
  BitVectorFilterStore store;
  const Hash128 sig = HashString("two-column-key");
  ASSERT_TRUE(store.Register(sig, build, keys).ok());
  const BloomFilter* filter = store.Find(sig);
  ASSERT_NE(filter, nullptr);
  for (const Row& row : build.rows()) {
    EXPECT_TRUE(filter->MayContainHash(RowKeyHash(row, keys)));
  }

  TablePtr reduced;
  auto eliminated = SemiJoinReduce(*filter, probe, keys, &reduced);
  ASSERT_TRUE(eliminated.ok());
  std::vector<Row> want;
  for (const Row& row : probe.rows()) {
    if (filter->MayContainHash(RowKeyHash(row, keys))) want.push_back(row);
  }
  const std::vector<Row> got = reduced->rows();
  ASSERT_EQ(got.size(), want.size());
  EXPECT_EQ(static_cast<size_t>(*eliminated), probe.num_rows() - want.size());
  for (size_t r = 0; r < got.size(); ++r) {
    for (size_t c = 0; c < got[r].size(); ++c) {
      EXPECT_EQ(got[r][c].type(), want[r][c].type()) << r << "," << c;
      EXPECT_EQ(got[r][c].Compare(want[r][c]), 0) << r << "," << c;
    }
  }
}

// --- Sampled views ---------------------------------------------------------------------

TEST(SampledViewsTest, RateRespectedAndDeterministic) {
  Schema schema({{"x", DataType::kInt64}});
  Table view("v", schema);
  for (int64_t i = 0; i < 10000; ++i) view.Append({Value(i)}).ok();
  auto s1 = SampleView(view, 0.1);
  auto s2 = SampleView(view, 0.1);
  ASSERT_TRUE(s1.ok());
  ASSERT_TRUE(s2.ok());
  EXPECT_EQ((*s1)->num_rows(), (*s2)->num_rows());  // deterministic
  EXPECT_NEAR(static_cast<double>((*s1)->num_rows()), 1000.0, 120.0);
}

TEST(SampledViewsTest, KeepsTheRowsAPerRowHashKeeps) {
  // The sampler hashes a column at a time; each row's coin must still come
  // from its Values hashed in column order.
  Schema schema({{"id", DataType::kInt64},
                 {"s", DataType::kString},
                 {"d", DataType::kDouble}});
  Table view("v", schema);
  for (int64_t i = 0; i < 500; ++i) {
    view.Append({Value(i),
                 i % 7 == 0 ? Value::Null() : Value("k" + std::to_string(i)),
                 Value(0.5 * static_cast<double>(i))})
        .ok();
  }
  constexpr uint64_t kSeed = 99;
  auto sample = SampleView(view, 0.3, kSeed);
  ASSERT_TRUE(sample.ok());
  std::vector<Row> want;
  for (const Row& row : view.rows()) {
    Hasher hasher(kSeed);
    for (const Value& v : row) v.HashInto(&hasher);
    const double u = static_cast<double>(hasher.Finish().lo >> 11) *
                     (1.0 / 9007199254740992.0);
    if (u < 0.3) want.push_back(row);
  }
  const std::vector<Row> got = (*sample)->rows();
  ASSERT_EQ(got.size(), want.size());
  for (size_t r = 0; r < got.size(); ++r) {
    for (size_t c = 0; c < got[r].size(); ++c) {
      EXPECT_EQ(got[r][c].type(), want[r][c].type()) << r << "," << c;
      EXPECT_EQ(got[r][c].Compare(want[r][c]), 0) << r << "," << c;
    }
  }
}

TEST(SampledViewsTest, InvalidRateRejected) {
  Schema schema({{"x", DataType::kInt64}});
  Table view("v", schema);
  EXPECT_FALSE(SampleView(view, 0.0).ok());
  EXPECT_FALSE(SampleView(view, 1.5).ok());
}

TEST(SampledViewsTest, EstimatorsScaleCorrectly) {
  // Rows carry a unique id: the sampler is content-keyed, so duplicate rows
  // sample together (all-or-nothing) — fine for views with keys, but the
  // estimator test wants independent coin flips.
  Schema schema({{"id", DataType::kInt64}, {"x", DataType::kInt64}});
  Table view("v", schema);
  double true_sum = 0;
  for (int64_t i = 0; i < 20000; ++i) {
    view.Append({Value(i), Value(i % 100)}).ok();
    true_sum += static_cast<double>(i % 100);
  }
  auto sample = SampleView(view, 0.2);
  ASSERT_TRUE(sample.ok());
  double sample_sum = 0;
  for (const Row& row : (*sample)->rows()) {
    sample_sum += row[1].NumericValue();
  }
  ApproximateAggregate approx{0.2};
  EXPECT_NEAR(approx.EstimateCount((*sample)->num_rows()), 20000.0, 800.0);
  EXPECT_NEAR(approx.EstimateSum(sample_sum), true_sum, true_sum * 0.06);
  EXPECT_NEAR(approx.EstimateAvg(sample_sum, (*sample)->num_rows()), 49.5,
              2.5);
}

}  // namespace
}  // namespace cloudviews
