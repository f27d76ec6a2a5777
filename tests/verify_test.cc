// Negative tests for the src/verify invariant checkers: deliberately
// corrupted plans — dangling column references, cyclic DAGs,
// schema-breaking rewrites, forged spool signatures — must each be rejected
// with a diagnostic that names the offending operator.

#include <gtest/gtest.h>

#include "core/workload_repository.h"
#include "exec/physical_op.h"
#include "exec/physical_verifier.h"
#include "plan/builder.h"
#include "plan/normalizer.h"
#include "plan/signature.h"
#include "tests/test_util.h"
#include "verify/plan_verifier.h"
#include "verify/signature_auditor.h"

namespace cloudviews {
namespace {

using verify::PlanVerifier;
using verify::PlanVerifyOptions;

class VerifyTest : public ::testing::Test {
 protected:
  void SetUp() override { testing_util::RegisterFigure4Tables(&catalog_); }

  LogicalOpPtr Build(const std::string& sql) {
    PlanBuilder builder(&catalog_);
    auto plan = builder.BuildFromSql(sql);
    EXPECT_TRUE(plan.ok()) << plan.status().ToString();
    return plan.ok() ? *plan : nullptr;
  }

  PlanVerifier CatalogVerifier() const {
    PlanVerifyOptions options;
    options.catalog = &catalog_;
    return PlanVerifier(options);
  }

  LogicalOpPtr CustomerScan() const {
    return LogicalOp::Scan("Customer", "guid-customer-v1",
                           testing_util::MakeCustomerTable(1)->schema());
  }

  DatasetCatalog catalog_;
};

TEST_F(VerifyTest, BuilderPlansPassVerification) {
  for (const char* sql :
       {"SELECT Name FROM Customer WHERE MktSegment = 'Asia'",
        "SELECT Customer.Name, SUM(Price) FROM Sales JOIN Customer ON "
        "Sales.CustomerId = Customer.CustomerId GROUP BY Customer.Name",
        "SELECT SaleId FROM Sales ORDER BY SaleId LIMIT 5"}) {
    LogicalOpPtr plan = Build(sql);
    ASSERT_NE(plan, nullptr);
    Status status = CatalogVerifier().Verify(*plan);
    EXPECT_TRUE(status.ok()) << sql << ": " << status.ToString();
    // Normalized plans also satisfy the canonical-order invariants.
    LogicalOpPtr normalized = PlanNormalizer::Normalize(plan);
    PlanVerifyOptions options;
    options.catalog = &catalog_;
    options.expect_normalized = true;
    status = PlanVerifier(options).Verify(*normalized);
    EXPECT_TRUE(status.ok()) << sql << ": " << status.ToString();
  }
}

TEST_F(VerifyTest, DanglingColumnReferenceRejected) {
  LogicalOpPtr plan = Build("SELECT Name FROM Customer");
  ASSERT_NE(plan, nullptr);
  ASSERT_EQ(plan->kind, LogicalOpKind::kProject);
  // A rewrite gone wrong: the projection now references ordinal 99 of a
  // 3-column child.
  plan->projections[0] = Expr::MakeColumn(99, "Bogus");
  Status status = CatalogVerifier().Verify(*plan);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("Project"), std::string::npos)
      << status.ToString();
  EXPECT_NE(status.message().find("dangling column reference $99"),
            std::string::npos)
      << status.ToString();
}

TEST_F(VerifyTest, CyclicDagRejected) {
  LogicalOpPtr scan = CustomerScan();
  ExprPtr truthy = Expr::MakeBinary(
      sql::BinaryOp::kEq, Expr::MakeColumn(0, "CustomerId"),
      Expr::MakeColumn(0, "CustomerId"));
  LogicalOpPtr inner = LogicalOp::Filter(scan, truthy);
  LogicalOpPtr outer = LogicalOp::Filter(inner, truthy);
  // Corrupt: the inner filter's child becomes its own parent.
  inner->children[0] = outer;
  Status status = CatalogVerifier().Verify(*outer);
  // Break the shared_ptr cycle before asserting, so a failure doesn't leak.
  inner->children[0] = scan;
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("cycle"), std::string::npos)
      << status.ToString();
  EXPECT_NE(status.message().find("Filter"), std::string::npos)
      << status.ToString();
}

TEST_F(VerifyTest, SchemaBreakingRewriteRejected) {
  LogicalOpPtr scan = CustomerScan();
  ExprPtr asia = Expr::MakeBinary(sql::BinaryOp::kEq,
                                  Expr::MakeColumn(2, "MktSegment"),
                                  Expr::MakeLiteral(Value("Asia")));
  LogicalOpPtr filter = LogicalOp::Filter(scan, asia);
  // A bad view-match rewrite: the subexpression is replaced by a view scan
  // whose schema dropped a column.
  Schema narrow({{"CustomerId", DataType::kInt64}});
  filter->children[0] =
      LogicalOp::ViewScan(Hash128{1, 2}, "/views/bad", narrow);
  Status status = CatalogVerifier().Verify(*filter);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("Filter"), std::string::npos)
      << status.ToString();
  // The diagnostic names the rule when run through VerifyAfterRule.
  Status with_rule =
      CatalogVerifier().VerifyAfterRule("view_match", *filter);
  ASSERT_FALSE(with_rule.ok());
  EXPECT_NE(with_rule.message().find("after optimizer rule 'view_match'"),
            std::string::npos)
      << with_rule.ToString();
}

TEST_F(VerifyTest, ForgedSpoolSignatureRejected) {
  LogicalOpPtr spool = LogicalOp::Spool(CustomerScan());
  spool->view_signature = Hash128{0xDEAD, 0xBEEF};  // not the child's hash
  SignatureComputer computer;
  PlanVerifyOptions options;
  options.catalog = &catalog_;
  options.signatures = &computer;
  Status status = PlanVerifier(options).Verify(*spool);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("Spool"), std::string::npos)
      << status.ToString();
  EXPECT_NE(status.message().find("forged or stale"), std::string::npos)
      << status.ToString();
  // With the genuine signature the same plan passes.
  spool->view_signature = computer.Compute(*spool->children[0]).strict;
  EXPECT_TRUE(PlanVerifier(options).Verify(*spool).ok());
}

TEST_F(VerifyTest, ChildSwappedAfterSealingRejected) {
  LogicalOpPtr plan = PlanNormalizer::Normalize(
      Build("SELECT Name FROM Customer WHERE MktSegment = 'Asia'"));
  SignatureComputer computer;
  computer.SealTree(plan.get());
  PlanVerifyOptions options;
  options.catalog = &catalog_;
  options.signatures = &computer;
  options.require_reuse_signatures = true;
  ASSERT_TRUE(PlanVerifier(options).Verify(*plan).ok());

  // Swap the filter's input after sealing for a sealed scan of another
  // version of the same dataset: every node is still well formed, but the
  // filter's stored signature describes the plan it used to be.
  std::vector<LogicalOpPtr> spine = {plan};
  std::string path;
  while (spine.back()->kind != LogicalOpKind::kFilter) {
    ASSERT_FALSE(spine.back()->children.empty());
    spine.push_back(spine.back()->children[0]);
    path += path.empty() ? "0" : ".0";
  }
  LogicalOpPtr filter = spine.back();
  const LogicalOp& scan = *filter->children[0];
  ASSERT_EQ(scan.kind, LogicalOpKind::kScan);
  LogicalOpPtr other_version =
      LogicalOp::Scan(scan.dataset_name, "guid-customer-v2",
                      scan.output_schema);
  computer.Seal(other_version.get());
  filter->children[0] = other_version;
  Status status = PlanVerifier(options).Verify(*plan);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("Filter at plan path " + path + ":"),
            std::string::npos)
      << status.ToString();
  EXPECT_NE(status.message().find("does not match its recomputation"),
            std::string::npos)
      << status.ToString();
  // Re-sealing the changed node and its ancestors makes it consistent.
  for (auto it = spine.rbegin(); it != spine.rend(); ++it) {
    computer.Seal(it->get());
  }
  EXPECT_TRUE(PlanVerifier(options).Verify(*plan).ok());

  // An unsealed node is rejected outright.
  plan->subtree_size = 0;
  status = PlanVerifier(options).Verify(*plan);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("not sealed"), std::string::npos)
      << status.ToString();
}

TEST_F(VerifyTest, ZeroSignatureSpoolsRejectedForOptimizerOutput) {
  LogicalOpPtr spool = LogicalOp::Spool(CustomerScan());
  // Bare spools are fine by default (tests and benches hand-build them)...
  EXPECT_TRUE(CatalogVerifier().Verify(*spool).ok());
  // ...but optimizer output must always stamp signatures.
  PlanVerifyOptions options;
  options.catalog = &catalog_;
  options.require_reuse_signatures = true;
  Status status = PlanVerifier(options).Verify(*spool);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("zero view signature"), std::string::npos)
      << status.ToString();
}

TEST_F(VerifyTest, FilterCascadeRejectedWhenNormalizedExpected) {
  LogicalOpPtr scan = CustomerScan();
  ExprPtr p1 = Expr::MakeBinary(sql::BinaryOp::kEq,
                                Expr::MakeColumn(2, "MktSegment"),
                                Expr::MakeLiteral(Value("Asia")));
  ExprPtr p2 = Expr::MakeBinary(sql::BinaryOp::kEq,
                                Expr::MakeColumn(1, "Name"),
                                Expr::MakeLiteral(Value("cust1")));
  LogicalOpPtr cascade = LogicalOp::Filter(LogicalOp::Filter(scan, p1), p2);
  PlanVerifyOptions options;
  options.catalog = &catalog_;
  options.expect_normalized = true;
  Status status = PlanVerifier(options).Verify(*cascade);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("filter cascade"), std::string::npos)
      << status.ToString();
  // The normalizer merges the cascade; the result passes.
  LogicalOpPtr normalized = PlanNormalizer::Normalize(cascade);
  Status ok = PlanVerifier(options).Verify(*normalized);
  EXPECT_TRUE(ok.ok()) << ok.ToString();
}

TEST_F(VerifyTest, UnknownDatasetRejected) {
  LogicalOpPtr scan = LogicalOp::Scan(
      "NoSuchTable", "guid-nope",
      Schema({{"x", DataType::kInt64}}));
  Status status = CatalogVerifier().Verify(*scan);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("unknown dataset 'NoSuchTable'"),
            std::string::npos)
      << status.ToString();
}

TEST_F(VerifyTest, UnionBranchArityMismatchRejected) {
  LogicalOpPtr a = CustomerScan();
  LogicalOpPtr b = LogicalOp::Scan("Sales", "guid-sales-v1",
                                   testing_util::MakeSalesTable(1)->schema());
  LogicalOpPtr u = LogicalOp::UnionAll({a, b});
  Status status = CatalogVerifier().Verify(*u);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("UnionAll"), std::string::npos)
      << status.ToString();
  EXPECT_NE(status.message().find("arity"), std::string::npos)
      << status.ToString();
}

// --- PhysicalVerifier -------------------------------------------------------

TEST_F(VerifyTest, WiringRejectsUncoveredPlanNodes) {
  LogicalOpPtr scan = CustomerScan();
  std::vector<PhysicalOp*> empty;
  Status status = verify::PhysicalVerifier::VerifyWiring(*scan, empty);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("has no physical operator"),
            std::string::npos)
      << status.ToString();
}

TEST_F(VerifyTest, PostRunRejectsUnsealedSpool) {
  LogicalOpPtr spool = LogicalOp::Spool(CustomerScan());
  const LogicalOp* scan_node = spool->children[0].get();
  auto scan_op = std::make_unique<TableScanOp>(
      scan_node, testing_util::MakeCustomerTable(3), /*is_view_scan=*/false);
  TableScanOp* scan_raw = scan_op.get();
  SpoolOp spool_op(spool.get(), std::move(scan_op),
                   /*on_complete=*/nullptr);
  std::vector<PhysicalOp*> registry{scan_raw, &spool_op};

  ASSERT_TRUE(spool_op.Open().ok());
  // The spool is closed without ever draining to end of stream: the view
  // silently never seals — exactly the bug the post-run check exists for.
  spool_op.Close();
  Status status = verify::PhysicalVerifier::VerifyPostRun(*spool, registry);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("Spool"), std::string::npos)
      << status.ToString();
  EXPECT_NE(status.message().find("fired 0 times"), std::string::npos)
      << status.ToString();
}

TEST_F(VerifyTest, PostRunAcceptsDrainedSpool) {
  LogicalOpPtr spool = LogicalOp::Spool(CustomerScan());
  const LogicalOp* scan_node = spool->children[0].get();
  auto scan_op = std::make_unique<TableScanOp>(
      scan_node, testing_util::MakeCustomerTable(3), /*is_view_scan=*/false);
  TableScanOp* scan_raw = scan_op.get();
  int completions = 0;
  SpoolOp spool_op(spool.get(), std::move(scan_op),
                   [&](const LogicalOp&, TablePtr, const OperatorStats&) {
                     completions += 1;
                   });
  std::vector<PhysicalOp*> registry{scan_raw, &spool_op};

  ASSERT_TRUE(spool_op.Open().ok());
  while (true) {
    Row row;
    bool done = false;
    ASSERT_TRUE(spool_op.Next(&row, &done).ok());
    if (done) break;
  }
  spool_op.Close();
  EXPECT_EQ(completions, 1);
  EXPECT_EQ(spool_op.completion_fires(), 1u);
  Status status = verify::PhysicalVerifier::VerifyPostRun(*spool, registry);
  EXPECT_TRUE(status.ok()) << status.ToString();
}

TEST_F(VerifyTest, PostRunRejectsSealedRowMismatch) {
  // A spool whose seal records a different row count than it streamed —
  // the truncated-view bug the sealed-rows invariant exists to catch.
  class ForgedSealSpoolOp : public SpoolOp {
   public:
    using SpoolOp::SpoolOp;
    uint64_t sealed_rows() const override {
      return SpoolOp::sealed_rows() + 1;
    }
  };

  LogicalOpPtr spool = LogicalOp::Spool(CustomerScan());
  const LogicalOp* scan_node = spool->children[0].get();
  auto scan_op = std::make_unique<TableScanOp>(
      scan_node, testing_util::MakeCustomerTable(3), /*is_view_scan=*/false);
  TableScanOp* scan_raw = scan_op.get();
  ForgedSealSpoolOp spool_op(spool.get(), std::move(scan_op),
                             [](const LogicalOp&, TablePtr,
                                const OperatorStats&) {});
  std::vector<PhysicalOp*> registry{scan_raw, &spool_op};

  ASSERT_TRUE(spool_op.Open().ok());
  while (true) {
    Row row;
    bool done = false;
    ASSERT_TRUE(spool_op.Next(&row, &done).ok());
    if (done) break;
  }
  spool_op.Close();
  ASSERT_EQ(spool_op.completion_fires(), 1u);
  Status status = verify::PhysicalVerifier::VerifyPostRun(*spool, registry);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("sealed"), std::string::npos)
      << status.ToString();
  EXPECT_NE(status.message().find("rows but streamed"), std::string::npos)
      << status.ToString();
}

// --- PhysicalVerifier batch invariants --------------------------------------

TEST_F(VerifyTest, BatchArityMismatchRejected) {
  LogicalOpPtr scan = CustomerScan();  // 3-column output schema
  auto col = std::make_shared<ColumnVector>();
  col->AppendInt64(1);
  ColumnBatch batch;
  batch.columns = {col};
  batch.num_rows = 1;
  Status status = verify::PhysicalVerifier::VerifyBatch(*scan, batch);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("batch invariant"), std::string::npos)
      << status.ToString();
  EXPECT_NE(status.message().find("plan output has 3"), std::string::npos)
      << status.ToString();
}

TEST_F(VerifyTest, BatchNullColumnRejected) {
  LogicalOpPtr scan = CustomerScan();
  auto col = std::make_shared<ColumnVector>();
  col->AppendInt64(1);
  ColumnBatch batch;
  batch.columns = {col, nullptr, col};
  batch.num_rows = 1;
  Status status = verify::PhysicalVerifier::VerifyBatch(*scan, batch);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("column 1 is null"), std::string::npos)
      << status.ToString();
}

TEST_F(VerifyTest, BatchWithUnreadColumnsRejected) {
  // A pruned batch (a column left null, its bytes carried per row) is fine
  // between operators but never at the root.
  LogicalOpPtr scan = CustomerScan();
  auto col = std::make_shared<ColumnVector>();
  col->AppendInt64(1);
  ColumnBatch batch;
  batch.columns = {col, nullptr, col};
  batch.num_rows = 1;
  batch.unread_bytes = {9};
  Status status = verify::PhysicalVerifier::VerifyBatch(*scan, batch);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("unread columns"), std::string::npos)
      << status.ToString();
}

TEST_F(VerifyTest, BatchColumnLengthMismatchRejected) {
  LogicalOpPtr scan = CustomerScan();
  auto two = std::make_shared<ColumnVector>();
  two->AppendInt64(1);
  two->AppendNull();
  auto one = std::make_shared<ColumnVector>();
  one->AppendString("x");
  ColumnBatch batch;
  batch.columns = {two, one, two};
  batch.num_rows = 2;
  Status status = verify::PhysicalVerifier::VerifyBatch(*scan, batch);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("column 1 holds 1 cells"),
            std::string::npos)
      << status.ToString();
  EXPECT_NE(status.message().find("batch claims 2 rows"), std::string::npos)
      << status.ToString();

  // The same batch with every column at full length passes, nulls and all.
  batch.columns = {two, two, two};
  Status ok = verify::PhysicalVerifier::VerifyBatch(*scan, batch);
  EXPECT_TRUE(ok.ok()) << ok.ToString();
  EXPECT_TRUE(two->BitmapConsistent());
}

// --- SignatureAuditor -------------------------------------------------------

TEST_F(VerifyTest, AuditorAcceptsRepeatedCompilations) {
  verify::SignatureAuditor auditor;
  LogicalOpPtr plan = Build(
      "SELECT Name FROM Customer WHERE MktSegment = 'Asia'");
  ASSERT_NE(plan, nullptr);
  EXPECT_TRUE(auditor.AuditPlan(*plan).ok());
  // The same plan again: identical hashes and canonical forms.
  EXPECT_TRUE(auditor.AuditPlan(*plan).ok());
  // A different plan: different hashes, no collisions.
  LogicalOpPtr other = Build("SELECT SaleId FROM Sales WHERE Quantity > 2");
  ASSERT_NE(other, nullptr);
  EXPECT_TRUE(auditor.AuditPlan(*other).ok());
  EXPECT_TRUE(auditor.report().ok());
  EXPECT_GT(auditor.report().nodes_audited, 0u);
}

TEST_F(VerifyTest, CanonicalFormsDifferAcrossPlans) {
  LogicalOpPtr a = CustomerScan();
  LogicalOpPtr b = LogicalOp::Scan("Sales", "guid-sales-v1",
                                   testing_util::MakeSalesTable(1)->schema());
  EXPECT_NE(verify::CanonicalForm(*a), verify::CanonicalForm(*b));
  // Literal values participate (strict semantics): x = 1 vs x = 2 differ.
  ExprPtr one = Expr::MakeBinary(sql::BinaryOp::kEq,
                                 Expr::MakeColumn(0, "CustomerId"),
                                 Expr::MakeLiteral(Value(int64_t{1})));
  ExprPtr two = Expr::MakeBinary(sql::BinaryOp::kEq,
                                 Expr::MakeColumn(0, "CustomerId"),
                                 Expr::MakeLiteral(Value(int64_t{2})));
  EXPECT_NE(verify::CanonicalForm(*LogicalOp::Filter(a, one)),
            verify::CanonicalForm(*LogicalOp::Filter(a, two)));
}

TEST_F(VerifyTest, RepositoryCrossCheckCatchesRecurringMismatch) {
  verify::SignatureAuditor auditor;
  LogicalOpPtr plan = Build(
      "SELECT Name FROM Customer WHERE MktSegment = 'Asia'");
  ASSERT_NE(plan, nullptr);
  ASSERT_TRUE(auditor.AuditPlan(*plan).ok());

  SignatureComputer computer;
  NodeSignature root_sig = computer.Compute(*plan);

  // A repository whose aggregate for this signature carries a *different*
  // recurring signature — the kind of corruption a bad ingest or snapshot
  // restore would introduce.
  WorkloadRepository repository;
  SubexpressionInstance instance;
  instance.strict_signature = root_sig.strict;
  instance.recurring_signature = Hash128{0xBAD, 0xC0DE};
  instance.job_id = 1;
  instance.virtual_cluster = "vc0";
  instance.subtree_size = root_sig.subtree_size;
  repository.Ingest(instance);

  Status status = auditor.CrossCheckGroups(repository.AuditGroups());
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("recurring signature disagrees"),
            std::string::npos)
      << status.ToString();
  EXPECT_FALSE(auditor.report().ok());
}

TEST_F(VerifyTest, RepositoryCrossCheckAcceptsConsistentRepository) {
  verify::SignatureAuditor auditor;
  LogicalOpPtr plan = Build(
      "SELECT Name FROM Customer WHERE MktSegment = 'Asia'");
  ASSERT_NE(plan, nullptr);
  ASSERT_TRUE(auditor.AuditPlan(*plan).ok());

  SignatureComputer computer;
  WorkloadRepository repository;
  for (const NodeSignature& sig : computer.ComputeAll(*plan)) {
    SubexpressionInstance instance;
    instance.strict_signature = sig.strict;
    instance.recurring_signature = sig.recurring;
    instance.job_id = 1;
    instance.virtual_cluster = "vc0";
    instance.subtree_size = sig.subtree_size;
    instance.eligible = sig.eligible;
    repository.Ingest(instance);
  }
  Status status = auditor.CrossCheckGroups(repository.AuditGroups());
  EXPECT_TRUE(status.ok()) << status.ToString();
}

}  // namespace
}  // namespace cloudviews
