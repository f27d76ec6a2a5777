// Edge cases and failure injection for the execution engine: empty inputs,
// null join keys, empty groups, limits, and deep plans.

#include <cstdint>
#include <limits>

#include <gtest/gtest.h>

#include "exec/executor.h"
#include "plan/builder.h"
#include "tests/test_util.h"
#include "verify/plan_verifier.h"

namespace cloudviews {
namespace {

class ExecEdgeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Empty table.
    Schema schema({{"k", DataType::kInt64}, {"v", DataType::kString}});
    catalog_.Register("Empty", std::make_shared<Table>("Empty", schema),
                      "guid-empty")
        .ok();
    // Table with nulls in the key column.
    auto nullish = std::make_shared<Table>("Nullish", schema);
    nullish->Append({Value(int64_t{1}), Value("a")}).ok();
    nullish->Append({Value::Null(), Value("b")}).ok();
    nullish->Append({Value(int64_t{3}), Value("c")}).ok();
    nullish->Append({Value::Null(), Value("d")}).ok();
    catalog_.Register("Nullish", nullish, "guid-nullish").ok();
    // Small reference table.
    auto ref = std::make_shared<Table>("Ref", schema);
    ref->Append({Value(int64_t{1}), Value("one")}).ok();
    ref->Append({Value(int64_t{3}), Value("three")}).ok();
    catalog_.Register("Ref", ref, "guid-ref").ok();
    testing_util::RegisterFigure4Tables(&catalog_);
  }

  Result<ExecResult> Run(const std::string& sql,
                         JoinAlgorithm algorithm = JoinAlgorithm::kHash,
                         ExecEngine engine = ExecEngine::kColumnar) {
    PlanBuilder builder(&catalog_);
    auto plan = builder.BuildFromSql(sql);
    if (!plan.ok()) return plan.status();
    SetJoin(plan->get(), algorithm);
    // Every edge-case plan is verified before execution, so malformed-plan
    // failures point at the builder, not at whatever operator trips first.
    verify::PlanVerifyOptions options;
    options.catalog = &catalog_;
    CLOUDVIEWS_RETURN_NOT_OK(verify::PlanVerifier(options).Verify(**plan));
    ExecContext context;
    context.catalog = &catalog_;
    context.engine = engine;
    Executor executor(context);
    return executor.Execute(*plan);
  }

  static void SetJoin(LogicalOp* node, JoinAlgorithm algorithm) {
    if (node->kind == LogicalOpKind::kJoin && !node->equi_keys.empty()) {
      node->join_algorithm = algorithm;
    }
    for (const LogicalOpPtr& child : node->children) {
      SetJoin(child.get(), algorithm);
    }
  }

  DatasetCatalog catalog_;
};

TEST_F(ExecEdgeTest, EmptyScan) {
  auto r = Run("SELECT k FROM Empty");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->output->num_rows(), 0u);
}

TEST_F(ExecEdgeTest, EmptyAggregateNoGroups) {
  // Aggregates over empty input with no GROUP BY produce one row.
  auto r = Run("SELECT COUNT(*), SUM(k), MIN(k) FROM Empty");
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->output->num_rows(), 1u);
  EXPECT_EQ(r->output->row(0)[0].AsInt64(), 0);
  EXPECT_TRUE(r->output->row(0)[1].is_null());  // SUM of nothing is NULL
  EXPECT_TRUE(r->output->row(0)[2].is_null());
}

TEST_F(ExecEdgeTest, EmptyAggregateWithGroups) {
  auto r = Run("SELECT v, COUNT(*) FROM Empty GROUP BY v");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->output->num_rows(), 0u);
}

TEST_F(ExecEdgeTest, JoinWithEmptySide) {
  for (JoinAlgorithm alg :
       {JoinAlgorithm::kHash, JoinAlgorithm::kMerge, JoinAlgorithm::kLoop}) {
    auto inner = Run("SELECT Ref.v FROM Empty JOIN Ref ON Empty.k = Ref.k", alg);
    ASSERT_TRUE(inner.ok());
    EXPECT_EQ(inner->output->num_rows(), 0u) << JoinAlgorithmName(alg);
    auto flipped =
        Run("SELECT Ref.v FROM Ref JOIN Empty ON Ref.k = Empty.k", alg);
    ASSERT_TRUE(flipped.ok());
    EXPECT_EQ(flipped->output->num_rows(), 0u) << JoinAlgorithmName(alg);
  }
}

TEST_F(ExecEdgeTest, NullKeysNeverMatch) {
  for (JoinAlgorithm alg :
       {JoinAlgorithm::kHash, JoinAlgorithm::kMerge, JoinAlgorithm::kLoop}) {
    auto r = Run(
        "SELECT Nullish.v, Ref.v FROM Nullish JOIN Ref "
        "ON Nullish.k = Ref.k", alg);
    ASSERT_TRUE(r.ok());
    // Only k=1 and k=3 match; NULL keys match nothing (SQL semantics).
    EXPECT_EQ(r->output->num_rows(), 2u) << JoinAlgorithmName(alg);
  }
}

TEST_F(ExecEdgeTest, LeftJoinNullKeysPreserved) {
  for (JoinAlgorithm alg :
       {JoinAlgorithm::kHash, JoinAlgorithm::kMerge, JoinAlgorithm::kLoop}) {
    auto r = Run(
        "SELECT Nullish.v, Ref.v FROM Nullish LEFT JOIN Ref "
        "ON Nullish.k = Ref.k", alg);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->output->num_rows(), 4u) << JoinAlgorithmName(alg);
    int null_padded = 0;
    for (const Row& row : r->output->rows()) {
      if (row[1].is_null()) null_padded += 1;
    }
    EXPECT_EQ(null_padded, 2) << JoinAlgorithmName(alg);
  }
}

TEST_F(ExecEdgeTest, LimitZeroAndOversized) {
  auto zero = Run("SELECT k FROM Ref LIMIT 0");
  ASSERT_TRUE(zero.ok());
  EXPECT_EQ(zero->output->num_rows(), 0u);
  auto big = Run("SELECT k FROM Ref LIMIT 100000");
  ASSERT_TRUE(big.ok());
  EXPECT_EQ(big->output->num_rows(), 2u);
}

TEST_F(ExecEdgeTest, FilterNullPredicateRowsDropped) {
  // k > 0 is NULL for NULL k: those rows are dropped, not kept.
  auto r = Run("SELECT v FROM Nullish WHERE k > 0");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->output->num_rows(), 2u);
  // IS NULL finds them.
  auto nulls = Run("SELECT v FROM Nullish WHERE k IS NULL");
  ASSERT_TRUE(nulls.ok());
  EXPECT_EQ(nulls->output->num_rows(), 2u);
}

TEST_F(ExecEdgeTest, SortWithNullsFirst) {
  auto r = Run("SELECT k FROM Nullish ORDER BY k");
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->output->num_rows(), 4u);
  EXPECT_TRUE(r->output->row(0)[0].is_null());
  EXPECT_TRUE(r->output->row(1)[0].is_null());
  EXPECT_EQ(r->output->row(2)[0].AsInt64(), 1);
  EXPECT_EQ(r->output->row(3)[0].AsInt64(), 3);
}

TEST_F(ExecEdgeTest, AggregatesSkipNulls) {
  auto r = Run("SELECT COUNT(k), COUNT(*), AVG(k) FROM Nullish");
  ASSERT_TRUE(r.ok());
  const Row& row = r->output->row(0);
  EXPECT_EQ(row[0].AsInt64(), 2);  // COUNT(k) skips nulls
  EXPECT_EQ(row[1].AsInt64(), 4);  // COUNT(*) does not
  EXPECT_DOUBLE_EQ(row[2].AsDouble(), 2.0);
}

TEST_F(ExecEdgeTest, RuntimeErrorSurfacesAsStatus) {
  // Division by zero during execution: the job fails cleanly.
  auto r = Run("SELECT 1 / (k - 1) FROM Ref");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

// int64 operands at the ends of the range: INT64_MIN, INT64_MAX and -1,
// then a row whose `maybe` is NULL where `lo` is INT64_MIN.
void RegisterExtremes(DatasetCatalog* catalog) {
  Schema schema({{"lo", DataType::kInt64},
                 {"hi", DataType::kInt64},
                 {"neg", DataType::kInt64},
                 {"maybe", DataType::kInt64}});
  auto table = std::make_shared<Table>("Extremes", schema);
  const int64_t lo = std::numeric_limits<int64_t>::min();
  const int64_t hi = std::numeric_limits<int64_t>::max();
  table->Append({Value(lo), Value(hi), Value(int64_t{-1}), Value::Null()}).ok();
  Row second;
  for (int64_t v : {1, 2, -1, 5}) second.push_back(Value(v));
  table->Append(second).ok();
  catalog->Register("Extremes", table, "guid-extremes").ok();
}

TEST_F(ExecEdgeTest, IntegerOverflowIsAnErrorInBothEngines) {
  // A +, -, * or / result outside int64 is InvalidArgument in both engines,
  // with literal and with column operands: never a wrapped value, and
  // INT64_MIN / -1 never traps.
  RegisterExtremes(&catalog_);
  for (ExecEngine engine : {ExecEngine::kRow, ExecEngine::kColumnar}) {
    for (const char* sql :
         {"SELECT (0 - 9223372036854775807 - 1) / (0 - 1) FROM Customer",
          "SELECT lo / neg FROM Extremes", "SELECT hi + 1 FROM Extremes",
          "SELECT lo - 1 FROM Extremes", "SELECT hi * 2 FROM Extremes",
          "SELECT lo * neg FROM Extremes", "SELECT 0 - lo FROM Extremes",
          "SELECT hi - neg FROM Extremes"}) {
      auto r = Run(sql, JoinAlgorithm::kHash, engine);
      ASSERT_FALSE(r.ok()) << sql;
      EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument) << sql;
      EXPECT_EQ(r.status().message(), "integer overflow") << sql;
    }
  }
}

TEST_F(ExecEdgeTest, NegatingOrAbsOfInt64MinIsAnErrorInBothEngines) {
  // -v and ABS(v) are 0 - v for a negative int64, so INT64_MIN overflows,
  // from a column and from a literal; INT64_MAX and a NULL lane do not.
  RegisterExtremes(&catalog_);
  for (ExecEngine engine : {ExecEngine::kRow, ExecEngine::kColumnar}) {
    for (const char* sql :
         {"SELECT -lo FROM Extremes", "SELECT ABS(lo) FROM Extremes",
          "SELECT -(0 - 9223372036854775807 - 1) FROM Customer",
          "SELECT ABS(0 - 9223372036854775807 - 1) FROM Customer"}) {
      auto r = Run(sql, JoinAlgorithm::kHash, engine);
      ASSERT_FALSE(r.ok()) << sql;
      EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument) << sql;
      EXPECT_EQ(r.status().message(), "integer overflow") << sql;
    }
    auto r = Run("SELECT -hi, ABS(0 - hi), ABS(neg), -maybe, ABS(maybe) "
                 "FROM Extremes",
                 JoinAlgorithm::kHash, engine);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ASSERT_EQ(r->output->num_rows(), 2u);
    const int64_t hi = std::numeric_limits<int64_t>::max();
    const Row first = r->output->row(0);
    EXPECT_EQ(first[0].AsInt64(), -hi);
    EXPECT_EQ(first[1].AsInt64(), hi);
    EXPECT_EQ(first[2].AsInt64(), 1);
    EXPECT_TRUE(first[3].is_null());
    EXPECT_TRUE(first[4].is_null());
    const Row second = r->output->row(1);
    EXPECT_EQ(second[0].AsInt64(), -2);
    EXPECT_EQ(second[1].AsInt64(), 2);
    EXPECT_EQ(second[3].AsInt64(), -5);
    EXPECT_EQ(second[4].AsInt64(), 5);
  }
}

TEST_F(ExecEdgeTest, IntegerArithmeticAtTheRangeEnds) {
  // INT64_MIN % -1 is 0 (computing it traps), and a NULL lane beside
  // INT64_MIN stays NULL: the dense kernel's 0 - INT64_MIN there is no
  // error.
  RegisterExtremes(&catalog_);
  const char* sql =
      "SELECT lo % neg, (0 - 9223372036854775807 - 1) % (0 - 1), "
      "maybe - lo, hi + lo FROM Extremes";
  for (ExecEngine engine : {ExecEngine::kRow, ExecEngine::kColumnar}) {
    auto r = Run(sql, JoinAlgorithm::kHash, engine);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ASSERT_EQ(r->output->num_rows(), 2u);
    const Row first = r->output->row(0);
    EXPECT_EQ(first[0].AsInt64(), 0);
    EXPECT_EQ(first[1].AsInt64(), 0);
    EXPECT_TRUE(first[2].is_null());
    EXPECT_EQ(first[3].AsInt64(), -1);
    const Row second = r->output->row(1);
    EXPECT_EQ(second[0].AsInt64(), 0);
    EXPECT_EQ(second[2].AsInt64(), 4);
    EXPECT_EQ(second[3].AsInt64(), 3);
  }
}

TEST_F(ExecEdgeTest, IntegerSumIsExactOrAnError) {
  // SUM over int64 is the exact total: a total outside int64 is
  // InvalidArgument in both engines, and a total inside it is returned
  // even when a running sum in input order would pass the range.
  RegisterExtremes(&catalog_);
  Schema schema({{"g", DataType::kInt64}, {"v", DataType::kInt64}});
  auto table = std::make_shared<Table>("Partial", schema);
  const int64_t hi = std::numeric_limits<int64_t>::max();
  for (int64_t v : {hi, int64_t{1}, int64_t{-2}}) {
    table->Append({Value(int64_t{7}), Value(v)}).ok();
  }
  catalog_.Register("Partial", table, "guid-partial").ok();
  for (ExecEngine engine : {ExecEngine::kRow, ExecEngine::kColumnar}) {
    for (const char* sql : {"SELECT SUM(hi) FROM Extremes",
                            "SELECT neg, SUM(hi) FROM Extremes GROUP BY neg",
                            "SELECT SUM(v) FROM Partial WHERE v > 0"}) {
      auto r = Run(sql, JoinAlgorithm::kHash, engine);
      ASSERT_FALSE(r.ok()) << sql;
      EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument) << sql;
      EXPECT_EQ(r.status().message(), "integer overflow") << sql;
    }
    auto r = Run("SELECT SUM(lo), SUM(neg), AVG(hi) FROM Extremes",
                 JoinAlgorithm::kHash, engine);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    Row row = r->output->row(0);
    EXPECT_EQ(row[0].AsInt64(), std::numeric_limits<int64_t>::min() + 1);
    EXPECT_EQ(row[1].AsInt64(), -2);
    EXPECT_DOUBLE_EQ(row[2].AsDouble(), (static_cast<double>(hi) + 2) / 2);
    r = Run("SELECT g, SUM(v) FROM Partial GROUP BY g", JoinAlgorithm::kHash,
            engine);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r->output->row(0)[1].AsInt64(), hi - 1);
  }
}

TEST_F(ExecEdgeTest, DeepFilterChainExecutes) {
  // 200 stacked filters exercise recursion depth in build + execute.
  PlanBuilder builder(&catalog_);
  auto base = builder.BuildFromSql("SELECT SaleId FROM Sales");
  ASSERT_TRUE(base.ok());
  LogicalOpPtr plan = *base;
  for (int i = 0; i < 200; ++i) {
    plan = LogicalOp::Filter(
        plan, Expr::MakeBinary(sql::BinaryOp::kGe,
                               Expr::MakeColumn(0, "SaleId"),
                               Expr::MakeLiteral(Value(int64_t{0}))));
  }
  ExecContext context;
  context.catalog = &catalog_;
  Executor executor(context);
  auto r = executor.Execute(plan);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->output->num_rows(), 500u);
}

TEST_F(ExecEdgeTest, CrossTypeNumericJoinKeys) {
  // int64 keys on one side, doubles on the other: hash and compare agree.
  Schema schema({{"k", DataType::kDouble}});
  auto doubles = std::make_shared<Table>("Doubles", schema);
  doubles->Append({Value(1.0)}).ok();
  doubles->Append({Value(2.5)}).ok();
  doubles->Append({Value(3.0)}).ok();
  catalog_.Register("Doubles", doubles, "guid-doubles").ok();
  for (JoinAlgorithm alg :
       {JoinAlgorithm::kHash, JoinAlgorithm::kMerge, JoinAlgorithm::kLoop}) {
    auto r = Run(
        "SELECT Ref.v FROM Doubles JOIN Ref ON Doubles.k = Ref.k", alg);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->output->num_rows(), 2u) << JoinAlgorithmName(alg);
  }
}

TEST_F(ExecEdgeTest, UnionAllWithEmptyBranch) {
  auto r = Run("SELECT k FROM Ref UNION ALL SELECT k FROM Empty "
               "UNION ALL SELECT k FROM Ref");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->output->num_rows(), 4u);
}

// --- Columnar batch-boundary edges ------------------------------------------
//
// The columnar engine slices inputs into batch_rows-row batches; these tests
// pin the boundary behaviors — empty tables, row counts that do not divide
// the batch size, all-null columns, single-row batches, and Limits that trip
// mid-batch — always against the row engine's output. PhysicalVerifier runs
// inside Execute() (default build), so every batch also passes the
// structural invariants (arity, column lengths, bitmap consistency).

class BatchBoundaryTest : public ExecEdgeTest {
 protected:
  void SetUp() override {
    ExecEdgeTest::SetUp();
    // A column that is entirely NULL, plus a non-divisible row count (101
    // rows never aligns with batch sizes 2, 3, or 1024).
    Schema schema({{"id", DataType::kInt64}, {"hole", DataType::kNull}});
    auto table = std::make_shared<Table>("Holes", schema);
    for (int i = 0; i < 101; ++i) {
      table->Append({Value(static_cast<int64_t>(i)), Value::Null()}).ok();
    }
    catalog_.Register("Holes", table, "guid-holes").ok();
  }

  Result<ExecResult> RunAt(const std::string& sql, ExecEngine engine,
                           size_t batch_rows) {
    PlanBuilder builder(&catalog_);
    auto plan = builder.BuildFromSql(sql);
    if (!plan.ok()) return plan.status();
    ExecContext context;
    context.catalog = &catalog_;
    context.engine = engine;
    context.batch_rows = batch_rows;
    Executor executor(context);
    return executor.Execute(*plan);
  }

  static std::string Render(const TablePtr& table) {
    std::string out;
    for (const Row& row : table->rows()) {
      for (const Value& v : row) {
        out += v.is_null() ? "<null>" : v.ToString();
        out += "|";
      }
      out += "\n";
    }
    return out;
  }

  // Columnar output must match the row engine at every batch_rows,
  // including batch sizes that do not divide the input.
  void ExpectBoundaryInvariant(const std::string& sql) {
    auto reference = RunAt(sql, ExecEngine::kRow, 1);
    ASSERT_TRUE(reference.ok()) << reference.status().ToString();
    const std::string expected = Render(reference->output);
    for (size_t batch_rows : {size_t{1}, size_t{2}, size_t{3}, size_t{1024}}) {
      auto r = RunAt(sql, ExecEngine::kColumnar, batch_rows);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      EXPECT_EQ(Render(r->output), expected)
          << sql << " batch_rows=" << batch_rows;
    }
  }
};

TEST_F(BatchBoundaryTest, EmptyTableEveryBatchSize) {
  ExpectBoundaryInvariant("SELECT k, v FROM Empty");
  ExpectBoundaryInvariant("SELECT COUNT(*), SUM(k) FROM Empty");
  ExpectBoundaryInvariant(
      "SELECT Ref.v FROM Empty JOIN Ref ON Empty.k = Ref.k");
}

TEST_F(BatchBoundaryTest, NonDivisibleRowCount) {
  // 101 rows: the tail batch is shorter than batch_rows for every size > 1.
  ExpectBoundaryInvariant("SELECT id FROM Holes WHERE id % 2 = 0");
  ExpectBoundaryInvariant("SELECT id * 2 + 1 FROM Holes");
}

TEST_F(BatchBoundaryTest, AllNullColumn) {
  ExpectBoundaryInvariant("SELECT hole, id FROM Holes WHERE hole IS NULL");
  ExpectBoundaryInvariant("SELECT hole, COUNT(*), COUNT(hole) FROM Holes "
                          "GROUP BY hole");
  ExpectBoundaryInvariant("SELECT id, hole FROM Holes ORDER BY hole, id");
}

TEST_F(BatchBoundaryTest, SingleRowBatchesThroughJoinAndAggregate) {
  ExpectBoundaryInvariant(
      "SELECT MktSegment, COUNT(*), AVG(Price) FROM Sales JOIN Customer "
      "ON Sales.CustomerId = Customer.CustomerId GROUP BY MktSegment");
}

TEST_F(BatchBoundaryTest, LimitTripsMidBatch) {
  // Limit 5 with batch sizes 2 and 3: the final batch must be truncated,
  // never overrun, at every batch size (PhysicalVerifier re-checks the
  // bound post-run).
  ExpectBoundaryInvariant("SELECT id FROM Holes LIMIT 5");
  ExpectBoundaryInvariant("SELECT id FROM Holes WHERE id >= 10 LIMIT 1");
  ExpectBoundaryInvariant("SELECT id FROM Holes LIMIT 0");
  // Limit above a materializing sort: output slicing, not input streaming.
  ExpectBoundaryInvariant("SELECT id FROM Holes ORDER BY id DESC LIMIT 7");
}

}  // namespace
}  // namespace cloudviews
