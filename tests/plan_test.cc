#include <gtest/gtest.h>

#include "plan/builder.h"
#include "plan/expr.h"
#include "plan/logical_plan.h"
#include "plan/signature.h"
#include "tests/test_util.h"

namespace cloudviews {
namespace {

class PlanTest : public ::testing::Test {
 protected:
  void SetUp() override { testing_util::RegisterFigure4Tables(&catalog_); }

  LogicalOpPtr Build(const std::string& sql) {
    PlanBuilder builder(&catalog_);
    auto plan = builder.BuildFromSql(sql);
    EXPECT_TRUE(plan.ok()) << plan.status().ToString() << " for: " << sql;
    return plan.ok() ? *plan : nullptr;
  }

  DatasetCatalog catalog_;
};

// --- Expression evaluation -------------------------------------------------

TEST(ExprTest, ArithmeticIntAndDouble) {
  Row row;
  auto five = Expr::MakeLiteral(Value(int64_t{5}));
  auto two = Expr::MakeLiteral(Value(int64_t{2}));
  auto half = Expr::MakeLiteral(Value(0.5));

  auto add = Expr::MakeBinary(sql::BinaryOp::kAdd, five, two)->Evaluate(row);
  ASSERT_TRUE(add.ok());
  EXPECT_EQ(add->AsInt64(), 7);

  auto div = Expr::MakeBinary(sql::BinaryOp::kDivide, five, two)->Evaluate(row);
  ASSERT_TRUE(div.ok());
  EXPECT_EQ(div->AsInt64(), 2);  // integer division

  auto mixed =
      Expr::MakeBinary(sql::BinaryOp::kMultiply, five, half)->Evaluate(row);
  ASSERT_TRUE(mixed.ok());
  EXPECT_DOUBLE_EQ(mixed->AsDouble(), 2.5);

  auto mod = Expr::MakeBinary(sql::BinaryOp::kModulo, five, two)->Evaluate(row);
  ASSERT_TRUE(mod.ok());
  EXPECT_EQ(mod->AsInt64(), 1);
}

TEST(ExprTest, DivisionByZeroFails) {
  Row row;
  auto five = Expr::MakeLiteral(Value(int64_t{5}));
  auto zero = Expr::MakeLiteral(Value(int64_t{0}));
  EXPECT_FALSE(
      Expr::MakeBinary(sql::BinaryOp::kDivide, five, zero)->Evaluate(row).ok());
  EXPECT_FALSE(
      Expr::MakeBinary(sql::BinaryOp::kModulo, five, zero)->Evaluate(row).ok());
}

TEST(ExprTest, StringConcatViaPlus) {
  Row row;
  auto a = Expr::MakeLiteral(Value("foo"));
  auto b = Expr::MakeLiteral(Value("bar"));
  auto cat = Expr::MakeBinary(sql::BinaryOp::kAdd, a, b)->Evaluate(row);
  ASSERT_TRUE(cat.ok());
  EXPECT_EQ(cat->AsString(), "foobar");
}

TEST(ExprTest, ThreeValuedLogic) {
  Row row;
  auto null = Expr::MakeLiteral(Value::Null());
  auto t = Expr::MakeLiteral(Value(true));
  auto f = Expr::MakeLiteral(Value(false));

  // FALSE AND NULL = FALSE; TRUE AND NULL = NULL.
  auto v1 = Expr::MakeBinary(sql::BinaryOp::kAnd, f, null)->Evaluate(row);
  ASSERT_TRUE(v1.ok());
  EXPECT_FALSE(v1->AsBool());
  auto v2 = Expr::MakeBinary(sql::BinaryOp::kAnd, t, null)->Evaluate(row);
  ASSERT_TRUE(v2.ok());
  EXPECT_TRUE(v2->is_null());
  // TRUE OR NULL = TRUE; FALSE OR NULL = NULL.
  auto v3 = Expr::MakeBinary(sql::BinaryOp::kOr, t, null)->Evaluate(row);
  ASSERT_TRUE(v3.ok());
  EXPECT_TRUE(v3->AsBool());
  auto v4 = Expr::MakeBinary(sql::BinaryOp::kOr, f, null)->Evaluate(row);
  ASSERT_TRUE(v4.ok());
  EXPECT_TRUE(v4->is_null());
  // Comparison with NULL is NULL.
  auto v5 = Expr::MakeBinary(sql::BinaryOp::kEq, null,
                             Expr::MakeLiteral(Value(int64_t{1})))
                ->Evaluate(row);
  ASSERT_TRUE(v5.ok());
  EXPECT_TRUE(v5->is_null());
}

TEST(ExprTest, ScalarFunctions) {
  Row row;
  auto s = Expr::MakeLiteral(Value("Hello"));
  auto upper = Expr::MakeCall("UPPER", {s})->Evaluate(row);
  ASSERT_TRUE(upper.ok());
  EXPECT_EQ(upper->AsString(), "HELLO");
  auto lower = Expr::MakeCall("LOWER", {s})->Evaluate(row);
  ASSERT_TRUE(lower.ok());
  EXPECT_EQ(lower->AsString(), "hello");
  auto len = Expr::MakeCall("LENGTH", {s})->Evaluate(row);
  ASSERT_TRUE(len.ok());
  EXPECT_EQ(len->AsInt64(), 5);
  auto abs = Expr::MakeCall("ABS", {Expr::MakeLiteral(Value(int64_t{-4}))})
                 ->Evaluate(row);
  ASSERT_TRUE(abs.ok());
  EXPECT_EQ(abs->AsInt64(), 4);
  auto sub = Expr::MakeCall("SUBSTR",
                            {s, Expr::MakeLiteral(Value(int64_t{2})),
                             Expr::MakeLiteral(Value(int64_t{3}))})
                 ->Evaluate(row);
  ASSERT_TRUE(sub.ok());
  EXPECT_EQ(sub->AsString(), "ell");
}

TEST(ExprTest, LikeMatching) {
  EXPECT_TRUE(LikeMatch("hello", "hello"));
  EXPECT_TRUE(LikeMatch("hello", "h%"));
  EXPECT_TRUE(LikeMatch("hello", "%llo"));
  EXPECT_TRUE(LikeMatch("hello", "h_llo"));
  EXPECT_TRUE(LikeMatch("hello", "%"));
  EXPECT_TRUE(LikeMatch("", "%"));
  EXPECT_FALSE(LikeMatch("hello", "h_llox"));
  EXPECT_FALSE(LikeMatch("hello", "H%"));
  EXPECT_TRUE(LikeMatch("abcabc", "%abc"));
  EXPECT_FALSE(LikeMatch("abc", "_"));
}

TEST(ExprTest, RemapColumns) {
  auto col = Expr::MakeColumn(2, "c");
  auto expr = Expr::MakeBinary(sql::BinaryOp::kAdd, col,
                               Expr::MakeLiteral(Value(int64_t{1})));
  std::vector<int> mapping = {-1, -1, 5};
  ExprPtr remapped = expr->RemapColumns(mapping);
  ASSERT_NE(remapped, nullptr);
  EXPECT_EQ(remapped->children[0]->column_index, 5);
  // Unmapped column -> nullptr.
  std::vector<int> bad = {-1, -1, -1};
  EXPECT_EQ(expr->RemapColumns(bad), nullptr);
}

TEST(ExprTest, CollectColumnsSortedDeduped) {
  auto e = Expr::MakeBinary(
      sql::BinaryOp::kAdd,
      Expr::MakeBinary(sql::BinaryOp::kMultiply, Expr::MakeColumn(3, "c"),
                       Expr::MakeColumn(1, "a")),
      Expr::MakeColumn(3, "c"));
  std::vector<int> cols;
  e->CollectColumns(&cols);
  EXPECT_EQ(cols, (std::vector<int>{1, 3}));
}

TEST(ExprTest, StructuralEquality) {
  auto a = Expr::MakeBinary(sql::BinaryOp::kGt, Expr::MakeColumn(0, "x"),
                            Expr::MakeLiteral(Value(int64_t{5})));
  auto b = Expr::MakeBinary(sql::BinaryOp::kGt, Expr::MakeColumn(0, "x"),
                            Expr::MakeLiteral(Value(int64_t{5})));
  auto c = Expr::MakeBinary(sql::BinaryOp::kGt, Expr::MakeColumn(0, "x"),
                            Expr::MakeLiteral(Value(int64_t{6})));
  EXPECT_TRUE(a->Equals(*b));
  EXPECT_FALSE(a->Equals(*c));
}

// --- Plan building -----------------------------------------------------------

TEST_F(PlanTest, SimpleScanProject) {
  LogicalOpPtr plan = Build("SELECT CustomerId, Name FROM Customer");
  ASSERT_NE(plan, nullptr);
  EXPECT_EQ(plan->kind, LogicalOpKind::kProject);
  EXPECT_EQ(plan->children[0]->kind, LogicalOpKind::kScan);
  EXPECT_EQ(plan->output_schema.num_columns(), 2u);
  EXPECT_EQ(plan->output_schema.column(0).name, "CustomerId");
}

TEST_F(PlanTest, ScanBindsCurrentGuid) {
  LogicalOpPtr plan = Build("SELECT CustomerId FROM Customer");
  const LogicalOp* scan = plan->children[0].get();
  EXPECT_EQ(scan->dataset_guid, "guid-customer-v1");
}

TEST_F(PlanTest, FilterOnJoin) {
  LogicalOpPtr plan = Build(
      "SELECT Name FROM Sales JOIN Customer "
      "ON Sales.CustomerId = Customer.CustomerId WHERE MktSegment = 'Asia'");
  ASSERT_NE(plan, nullptr);
  // Project <- Filter <- Join.
  EXPECT_EQ(plan->kind, LogicalOpKind::kProject);
  EXPECT_EQ(plan->children[0]->kind, LogicalOpKind::kFilter);
  const LogicalOp* join = plan->children[0]->children[0].get();
  EXPECT_EQ(join->kind, LogicalOpKind::kJoin);
  ASSERT_EQ(join->equi_keys.size(), 1u);
  EXPECT_EQ(join->equi_keys[0].first, 1);   // Sales.CustomerId
  EXPECT_EQ(join->equi_keys[0].second, 0);  // Customer.CustomerId
  EXPECT_EQ(join->predicate, nullptr);      // fully consumed as equi key
}

TEST_F(PlanTest, AmbiguousColumnRejected) {
  PlanBuilder builder(&catalog_);
  auto plan = builder.BuildFromSql(
      "SELECT CustomerId FROM Sales JOIN Customer "
      "ON Sales.CustomerId = Customer.CustomerId");
  EXPECT_FALSE(plan.ok());
}

TEST_F(PlanTest, UnknownColumnAndTableRejected) {
  PlanBuilder builder(&catalog_);
  EXPECT_FALSE(builder.BuildFromSql("SELECT nope FROM Customer").ok());
  EXPECT_FALSE(builder.BuildFromSql("SELECT a FROM NoSuchTable").ok());
}

TEST_F(PlanTest, AggregatePlanShape) {
  LogicalOpPtr plan = Build(
      "SELECT MktSegment, COUNT(*), AVG(CustomerId) FROM Customer "
      "GROUP BY MktSegment");
  ASSERT_NE(plan, nullptr);
  EXPECT_EQ(plan->kind, LogicalOpKind::kProject);
  const LogicalOp* agg = plan->children[0].get();
  EXPECT_EQ(agg->kind, LogicalOpKind::kAggregate);
  EXPECT_EQ(agg->group_by.size(), 1u);
  EXPECT_EQ(agg->aggregates.size(), 2u);
  EXPECT_EQ(agg->aggregates[0].func, AggFunc::kCountStar);
  EXPECT_EQ(agg->aggregates[1].func, AggFunc::kAvg);
}

TEST_F(PlanTest, OnlyCountTakesAStar) {
  // Every other aggregate needs an argument: the builder rejects these in
  // every build, not only where the plan verifier runs.
  PlanBuilder builder(&catalog_);
  for (const char* sql :
       {"SELECT SUM(*) FROM Sales", "SELECT AVG(*) FROM Sales",
        "SELECT MIN(*) FROM Sales", "SELECT MAX(*) FROM Sales",
        "SELECT SUM() FROM Sales"}) {
    auto plan = builder.BuildFromSql(sql);
    ASSERT_FALSE(plan.ok()) << sql;
    EXPECT_EQ(plan.status().code(), StatusCode::kInvalidArgument) << sql;
    EXPECT_NE(plan.status().message().find("only COUNT takes *"),
              std::string::npos)
        << plan.status().ToString();
  }
  for (const char* sql : {"SELECT COUNT(*) FROM Sales",
                          "SELECT COUNT(DISTINCT *) FROM Sales"}) {
    LogicalOpPtr plan = Build(sql);
    ASSERT_NE(plan, nullptr) << sql;
    const LogicalOp* agg = plan->children[0].get();
    ASSERT_EQ(agg->kind, LogicalOpKind::kAggregate) << sql;
    ASSERT_EQ(agg->aggregates.size(), 1u) << sql;
    EXPECT_EQ(agg->aggregates[0].func, AggFunc::kCountStar) << sql;
    EXPECT_EQ(agg->aggregates[0].arg, nullptr) << sql;
  }
}

TEST_F(PlanTest, HavingBecomesFilterOverAggregate) {
  LogicalOpPtr plan = Build(
      "SELECT MktSegment FROM Customer GROUP BY MktSegment "
      "HAVING COUNT(*) > 30");
  ASSERT_NE(plan, nullptr);
  // Project <- Filter(HAVING) <- Aggregate.
  EXPECT_EQ(plan->children[0]->kind, LogicalOpKind::kFilter);
  EXPECT_EQ(plan->children[0]->children[0]->kind, LogicalOpKind::kAggregate);
}

TEST_F(PlanTest, DuplicateAggregatesDeduplicated) {
  LogicalOpPtr plan = Build(
      "SELECT SUM(Quantity), SUM(Quantity) + 1 FROM Sales GROUP BY PartId");
  ASSERT_NE(plan, nullptr);
  const LogicalOp* agg = plan->children[0].get();
  EXPECT_EQ(agg->aggregates.size(), 1u);
}

TEST_F(PlanTest, NonGroupedColumnRejected) {
  PlanBuilder builder(&catalog_);
  auto plan = builder.BuildFromSql(
      "SELECT Name, COUNT(*) FROM Customer GROUP BY MktSegment");
  EXPECT_FALSE(plan.ok());
}

TEST_F(PlanTest, StarExpansion) {
  LogicalOpPtr plan = Build("SELECT * FROM Parts");
  ASSERT_NE(plan, nullptr);
  EXPECT_EQ(plan->output_schema.num_columns(), 3u);
}

TEST_F(PlanTest, OrderByAliasAndLimit) {
  LogicalOpPtr plan = Build(
      "SELECT CustomerId AS cid FROM Customer ORDER BY cid DESC LIMIT 5");
  ASSERT_NE(plan, nullptr);
  EXPECT_EQ(plan->kind, LogicalOpKind::kLimit);
  EXPECT_EQ(plan->limit, 5);
  EXPECT_EQ(plan->children[0]->kind, LogicalOpKind::kSort);
  EXPECT_FALSE(plan->children[0]->sort_keys[0].ascending);
}

TEST_F(PlanTest, DistinctBecomesAggregate) {
  LogicalOpPtr plan = Build("SELECT DISTINCT MktSegment FROM Customer");
  ASSERT_NE(plan, nullptr);
  EXPECT_EQ(plan->kind, LogicalOpKind::kAggregate);
  EXPECT_TRUE(plan->aggregates.empty());
}

TEST_F(PlanTest, UnionAllArityChecked) {
  LogicalOpPtr plan = Build(
      "SELECT CustomerId FROM Customer UNION ALL SELECT SaleId FROM Sales");
  ASSERT_NE(plan, nullptr);
  EXPECT_EQ(plan->kind, LogicalOpKind::kUnionAll);
  PlanBuilder builder(&catalog_);
  EXPECT_FALSE(builder
                   .BuildFromSql("SELECT CustomerId FROM Customer UNION ALL "
                                 "SELECT SaleId, PartId FROM Sales")
                   .ok());
}

TEST_F(PlanTest, CloneIsDeep) {
  LogicalOpPtr plan =
      Build("SELECT Name FROM Customer WHERE MktSegment = 'Asia'");
  LogicalOpPtr copy = plan->Clone();
  EXPECT_NE(plan.get(), copy.get());
  EXPECT_NE(plan->children[0].get(), copy->children[0].get());
  EXPECT_EQ(plan->TreeSize(), copy->TreeSize());
}

TEST_F(PlanTest, InputDatasetsCollected) {
  LogicalOpPtr plan = Build(
      "SELECT Name FROM Sales JOIN Customer "
      "ON Sales.CustomerId = Customer.CustomerId");
  std::vector<std::string> inputs = plan->InputDatasets();
  EXPECT_EQ(inputs, (std::vector<std::string>{"Customer", "Sales"}));
}

// --- Signatures --------------------------------------------------------------

class SignatureTest : public PlanTest {};

TEST_F(SignatureTest, IdenticalPlansSameStrictSignature) {
  LogicalOpPtr a = Build("SELECT Name FROM Customer WHERE MktSegment = 'Asia'");
  LogicalOpPtr b = Build("SELECT Name FROM Customer WHERE MktSegment = 'Asia'");
  SignatureComputer computer;
  EXPECT_EQ(computer.Compute(*a).strict, computer.Compute(*b).strict);
  EXPECT_EQ(computer.Compute(*a).recurring, computer.Compute(*b).recurring);
}

TEST_F(SignatureTest, DifferentLiteralsDifferStrictNotRecurring) {
  LogicalOpPtr a = Build("SELECT Name FROM Customer WHERE MktSegment = 'Asia'");
  LogicalOpPtr b =
      Build("SELECT Name FROM Customer WHERE MktSegment = 'Europe'");
  SignatureComputer computer;
  EXPECT_NE(computer.Compute(*a).strict, computer.Compute(*b).strict);
  // Recurring signatures discard parameter values: same template.
  EXPECT_EQ(computer.Compute(*a).recurring, computer.Compute(*b).recurring);
}

TEST_F(SignatureTest, GuidRotationChangesStrictNotRecurring) {
  LogicalOpPtr a = Build("SELECT Name FROM Customer WHERE MktSegment = 'Asia'");
  ASSERT_TRUE(catalog_
                  .BulkUpdate("Customer", testing_util::MakeCustomerTable(),
                              "guid-customer-v2")
                  .ok());
  LogicalOpPtr b = Build("SELECT Name FROM Customer WHERE MktSegment = 'Asia'");
  SignatureComputer computer;
  EXPECT_NE(computer.Compute(*a).strict, computer.Compute(*b).strict);
  EXPECT_EQ(computer.Compute(*a).recurring, computer.Compute(*b).recurring);
}

TEST_F(SignatureTest, RuntimeVersionChangesEverything) {
  LogicalOpPtr a = Build("SELECT Name FROM Customer");
  SignatureComputer v1(SignatureOptions{.runtime_version = 1});
  SignatureComputer v2(SignatureOptions{.runtime_version = 2});
  EXPECT_NE(v1.Compute(*a).strict, v2.Compute(*a).strict);
  EXPECT_NE(v1.Compute(*a).recurring, v2.Compute(*a).recurring);
}

TEST_F(SignatureTest, DifferentShapesDiffer) {
  LogicalOpPtr a = Build("SELECT Name FROM Customer WHERE MktSegment = 'Asia'");
  LogicalOpPtr b = Build("SELECT Name FROM Customer");
  SignatureComputer computer;
  EXPECT_NE(computer.Compute(*a).strict, computer.Compute(*b).strict);
  EXPECT_NE(computer.Compute(*a).recurring, computer.Compute(*b).recurring);
}

TEST_F(SignatureTest, NonDeterministicUdoIneligible) {
  LogicalOpPtr scan = Build("SELECT Name FROM Customer");
  LogicalOpPtr udo = LogicalOp::Udo(scan, "Guid.NewGuid", /*deterministic=*/false,
                                    /*dependency_depth=*/1);
  SignatureComputer computer;
  NodeSignature sig = computer.Compute(*udo);
  EXPECT_FALSE(sig.eligible);
  EXPECT_NE(sig.ineligible_reason.find("non-deterministic"), std::string::npos);
  // Ineligibility propagates to ancestors.
  LogicalOpPtr parent = LogicalOp::Filter(
      udo, Expr::MakeIsNull(Expr::MakeColumn(0, "Name"), true));
  EXPECT_FALSE(computer.Compute(*parent).eligible);
}

TEST_F(SignatureTest, DeepDependencyChainIneligible) {
  LogicalOpPtr scan = Build("SELECT Name FROM Customer");
  LogicalOpPtr udo =
      LogicalOp::Udo(scan, "DeepLib", /*deterministic=*/true,
                     /*dependency_depth=*/99);
  SignatureComputer computer;  // default max depth 16
  NodeSignature sig = computer.Compute(*udo);
  EXPECT_FALSE(sig.eligible);
  EXPECT_NE(sig.ineligible_reason.find("too deep"), std::string::npos);
  // A shallow chain stays eligible.
  LogicalOpPtr shallow =
      LogicalOp::Udo(scan, "ShallowLib", true, /*dependency_depth=*/3);
  EXPECT_TRUE(computer.Compute(*shallow).eligible);
}

TEST_F(SignatureTest, PostOrderCoversAllNodes) {
  LogicalOpPtr plan = Build(
      "SELECT Name FROM Sales JOIN Customer "
      "ON Sales.CustomerId = Customer.CustomerId WHERE MktSegment = 'Asia'");
  SignatureComputer computer;
  std::vector<NodeSignature> sigs = computer.ComputeAll(*plan);
  EXPECT_EQ(sigs.size(), plan->TreeSize());
  // Last entry is the root.
  EXPECT_EQ(sigs.back().node, plan.get());
  EXPECT_EQ(sigs.back().subtree_size, plan->TreeSize());
}

TEST_F(SignatureTest, SharedSubexpressionAcrossFigure4Queries) {
  // The orange box in Figure 4: Filter(Asia) over Customer joined with
  // Sales is common across all three user queries.
  LogicalOpPtr q1 = Build(
      "SELECT Customer.CustomerId, AVG(Price * Quantity) FROM Sales "
      "JOIN Customer ON Sales.CustomerId = Customer.CustomerId "
      "WHERE MktSegment = 'Asia' GROUP BY Customer.CustomerId");
  LogicalOpPtr q2 = Build(
      "SELECT Brand, AVG(Discount) FROM Sales "
      "JOIN Customer ON Sales.CustomerId = Customer.CustomerId "
      "JOIN Parts ON Sales.PartId = Parts.PartId "
      "WHERE MktSegment = 'Asia' GROUP BY Brand");
  SignatureComputer computer;
  std::vector<NodeSignature> s1 = computer.ComputeAll(*q1);
  std::vector<NodeSignature> s2 = computer.ComputeAll(*q2);
  // Some non-leaf strict signature must be shared between the two queries.
  int shared = 0;
  for (const NodeSignature& a : s1) {
    if (a.subtree_size < 2) continue;
    for (const NodeSignature& b : s2) {
      if (a.strict == b.strict) shared += 1;
    }
  }
  EXPECT_GT(shared, 0);
}

}  // namespace
}  // namespace cloudviews
