#include <gtest/gtest.h>

#include "exec/executor.h"
#include "optimizer/cardinality.h"
#include "optimizer/cost_model.h"
#include "optimizer/optimizer.h"
#include "plan/builder.h"
#include "sharing/sharing_rewrite.h"
#include "tests/test_util.h"
#include "verify/plan_verifier.h"

namespace cloudviews {
namespace {

class OptimizerTest : public ::testing::Test {
 protected:
  void SetUp() override { testing_util::RegisterFigure4Tables(&catalog_); }

  // Every plan built by the suite is verified for free: a builder or test
  // regression producing a malformed plan fails here with a diagnostic
  // instead of a downstream mystery. Plans come back sealed, as the
  // optimizer takes them.
  LogicalOpPtr Build(const std::string& sql) {
    PlanBuilder builder(&catalog_);
    auto plan = builder.BuildFromSql(sql);
    EXPECT_TRUE(plan.ok()) << plan.status().ToString();
    if (!plan.ok()) return nullptr;
    verify::PlanVerifyOptions options;
    options.catalog = &catalog_;
    Status verified = verify::PlanVerifier(options).Verify(**plan);
    EXPECT_TRUE(verified.ok()) << verified.ToString();
    SignatureComputer().SealTree(plan->get());
    return *plan;
  }

  // Runs `plan` with a spool over the subtree whose strict signature is
  // `sig`, sealing into `store`.
  void MaterializeSubtree(const LogicalOpPtr& subtree, ViewStore* store,
                          const Hash128& strict, const Hash128& recurring) {
    ASSERT_TRUE(store->BeginMaterialize(strict, recurring, "vc0", 1, 0.0).ok());
    ExecContext context;
    context.catalog = &catalog_;
    Executor executor(context);
    auto run = executor.Execute(subtree);
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    uint64_t bytes = 0;
    for (const Row& row : run->output->rows()) {
      for (const Value& v : row) bytes += v.ByteSize();
    }
    ASSERT_TRUE(store
                    ->Seal(strict, run->output, run->output->num_rows(), bytes,
                           0.0)
                    .ok());
  }

  DatasetCatalog catalog_;
};

const char* kAsiaJoinSql =
    "SELECT Name, Price FROM Sales JOIN Customer "
    "ON Sales.CustomerId = Customer.CustomerId WHERE MktSegment = 'Asia'";

TEST_F(OptimizerTest, CardinalityAnnotatesWholePlan) {
  LogicalOpPtr plan = Build(kAsiaJoinSql);
  CardinalityEstimator estimator(&catalog_);
  estimator.Annotate(plan.get());
  // Scan estimates equal actual table sizes.
  const LogicalOp* join = plan->children[0]->children[0].get();
  EXPECT_DOUBLE_EQ(join->children[0]->estimated_rows, 500.0);  // Sales
  EXPECT_DOUBLE_EQ(join->children[1]->estimated_rows, 100.0);  // Customer
  EXPECT_GT(join->estimated_rows, 0.0);
  EXPECT_GT(plan->estimated_rows, 0.0);
}

TEST_F(OptimizerTest, OverestimationBiasApplied) {
  LogicalOpPtr plan = Build(kAsiaJoinSql);
  CardinalityOptions no_bias;
  no_bias.overestimation_factor = 1.0;
  CardinalityOptions biased;
  biased.overestimation_factor = 2.0;
  CardinalityEstimator a(&catalog_, no_bias);
  CardinalityEstimator b(&catalog_, biased);
  LogicalOpPtr p1 = plan->Clone();
  LogicalOpPtr p2 = plan->Clone();
  a.Annotate(p1.get());
  b.Annotate(p2.get());
  const LogicalOp* j1 = p1->children[0]->children[0].get();
  const LogicalOp* j2 = p2->children[0]->children[0].get();
  EXPECT_DOUBLE_EQ(j2->estimated_rows, 2.0 * j1->estimated_rows);
}

TEST_F(OptimizerTest, ViewStatsTrustedOverEstimates) {
  LogicalOpPtr scan = LogicalOp::ViewScan(HashString("v"), "/p", Schema());
  scan->estimated_rows = 77.0;
  scan->estimated_bytes = 1000.0;
  scan->stats_from_view = true;
  CardinalityEstimator estimator(&catalog_);
  EXPECT_DOUBLE_EQ(estimator.Annotate(scan.get()), 77.0);
}

TEST_F(OptimizerTest, JoinAlgorithmChoice) {
  LogicalOpPtr plan = Build(kAsiaJoinSql);
  CardinalityEstimator estimator(&catalog_);
  estimator.Annotate(plan.get());
  CostModel model;
  LogicalOp* join = plan->children[0]->children[0].get();
  model.ChooseJoinAlgorithm(join);
  EXPECT_EQ(join->join_algorithm, JoinAlgorithm::kHash);

  // Genuinely tiny sides -> loop join beats building a hash table.
  join->children[0]->estimated_rows = 20.0;
  join->children[1]->estimated_rows = 3.0;
  model.ChooseJoinAlgorithm(join);
  EXPECT_EQ(join->join_algorithm, JoinAlgorithm::kLoop);

  // Huge build side blows the hash memory budget -> merge join.
  join->children[0]->estimated_rows = 500.0;
  join->children[1]->estimated_rows = 100.0;
  CostModelOptions small_hash;
  small_hash.loop_join_threshold = 1.0;
  small_hash.hash_build_limit = 10.0;
  CostModel mergey(small_hash);
  mergey.ChooseJoinAlgorithm(join);
  EXPECT_EQ(join->join_algorithm, JoinAlgorithm::kMerge);
}

TEST_F(OptimizerTest, CostModelPrefersSmallerPlans) {
  LogicalOpPtr big = Build("SELECT Name, Price FROM Sales JOIN Customer "
                           "ON Sales.CustomerId = Customer.CustomerId");
  LogicalOpPtr small = Build("SELECT Name FROM Customer");
  CardinalityEstimator estimator(&catalog_);
  estimator.Annotate(big.get());
  estimator.Annotate(small.get());
  CostModel model;
  EXPECT_GT(model.SubtreeCost(*big), model.SubtreeCost(*small));
}

TEST_F(OptimizerTest, MatchReplacesSubtreeWithViewScan) {
  LogicalOpPtr plan = Build(kAsiaJoinSql);
  // Materialize the filter subtree (Filter over Join).
  LogicalOpPtr subtree = plan->children[0];
  SignatureComputer computer;
  NodeSignature sig = computer.Compute(*subtree);
  ViewStore store;
  MaterializeSubtree(subtree, &store, sig.strict, sig.recurring);

  Optimizer optimizer(&catalog_);
  QueryAnnotations annotations;
  auto outcome = optimizer.Optimize(plan, annotations, &store, nullptr, 0.0);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_EQ(outcome->views_matched, 1);
  EXPECT_EQ(outcome->plan->children[0]->kind, LogicalOpKind::kViewScan);
  EXPECT_TRUE(outcome->plan->children[0]->stats_from_view);
  EXPECT_LT(outcome->estimated_cost, outcome->estimated_cost_without_reuse);

  // The rewritten plan must produce the same result as the original.
  ExecContext context;
  context.catalog = &catalog_;
  context.view_store = &store;
  Executor executor(context);
  auto original = executor.Execute(plan);
  auto rewritten = executor.Execute(outcome->plan);
  ASSERT_TRUE(original.ok());
  ASSERT_TRUE(rewritten.ok());
  EXPECT_EQ(original->output->num_rows(), rewritten->output->num_rows());
  // And the rewritten plan reads no base inputs for that subtree.
  EXPECT_LT(rewritten->stats.input_rows, original->stats.input_rows);
  EXPECT_GT(rewritten->stats.view_rows, 0u);
}

TEST_F(OptimizerTest, TopDownPrefersLargestMatch) {
  LogicalOpPtr plan = Build(kAsiaJoinSql);
  SignatureComputer computer;
  // Materialize BOTH the join subtree and the larger filter subtree.
  LogicalOpPtr filter_subtree = plan->children[0];
  LogicalOpPtr join_subtree = filter_subtree->children[0];
  NodeSignature filter_sig = computer.Compute(*filter_subtree);
  NodeSignature join_sig = computer.Compute(*join_subtree);
  ViewStore store;
  MaterializeSubtree(join_subtree, &store, join_sig.strict,
                     join_sig.recurring);
  MaterializeSubtree(filter_subtree, &store, filter_sig.strict,
                     filter_sig.recurring);

  Optimizer optimizer(&catalog_);
  QueryAnnotations annotations;
  auto outcome = optimizer.Optimize(plan, annotations, &store, nullptr, 0.0);
  ASSERT_TRUE(outcome.ok());
  ASSERT_EQ(outcome->views_matched, 1);
  // The larger (filter) subexpression wins.
  EXPECT_EQ(outcome->matched_signatures[0], filter_sig.strict);
}

TEST_F(OptimizerTest, BuildAddsSpoolForCandidates) {
  LogicalOpPtr plan = Build(kAsiaJoinSql);
  SignatureComputer computer;
  NodeSignature sig = computer.Compute(*plan->children[0]);

  Optimizer optimizer(&catalog_);
  QueryAnnotations annotations;
  annotations.materialize_candidates.insert(sig.recurring);
  ViewStore store;
  int locks = 0;
  auto try_lock = [&locks](const Hash128&) {
    locks += 1;
    return true;
  };
  auto outcome = optimizer.Optimize(plan, annotations, &store, try_lock, 0.0);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome->spools_added, 1);
  EXPECT_EQ(locks, 1);
  EXPECT_EQ(outcome->plan->children[0]->kind, LogicalOpKind::kSpool);
}

TEST_F(OptimizerTest, LockDeniedMeansNoSpool) {
  LogicalOpPtr plan = Build(kAsiaJoinSql);
  SignatureComputer computer;
  NodeSignature sig = computer.Compute(*plan->children[0]);
  Optimizer optimizer(&catalog_);
  QueryAnnotations annotations;
  annotations.materialize_candidates.insert(sig.recurring);
  ViewStore store;
  auto deny = [](const Hash128&) { return false; };
  auto outcome = optimizer.Optimize(plan, annotations, &store, deny, 0.0);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome->spools_added, 0);
}

TEST_F(OptimizerTest, MaxViewsPerJobCap) {
  LogicalOpPtr plan = Build(kAsiaJoinSql);
  SignatureComputer computer;
  // Make every eligible subexpression a candidate.
  QueryAnnotations annotations;
  annotations.max_views_per_job = 1;
  for (const NodeSignature& sig : computer.ComputeAll(*plan)) {
    if (sig.eligible && sig.subtree_size >= 2) {
      annotations.materialize_candidates.insert(sig.recurring);
    }
  }
  Optimizer optimizer(&catalog_);
  ViewStore store;
  auto always = [](const Hash128&) { return true; };
  auto outcome = optimizer.Optimize(plan, annotations, &store, always, 0.0);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome->spools_added, 1);
}

TEST_F(OptimizerTest, SpooledPlanStillExecutesAndSeals) {
  LogicalOpPtr plan = Build(kAsiaJoinSql);
  SignatureComputer computer;
  NodeSignature sig = computer.Compute(*plan->children[0]);
  Optimizer optimizer(&catalog_);
  QueryAnnotations annotations;
  annotations.materialize_candidates.insert(sig.recurring);
  ViewStore store;
  auto always = [](const Hash128&) { return true; };
  auto outcome = optimizer.Optimize(plan, annotations, &store, always, 0.0);
  ASSERT_TRUE(outcome.ok());
  ASSERT_EQ(outcome->spools_added, 1);

  ASSERT_TRUE(
      store.BeginMaterialize(sig.strict, sig.recurring, "vc0", 7, 0.0).ok());
  ExecContext context;
  context.catalog = &catalog_;
  context.view_store = &store;
  context.on_spool_complete = [&](const LogicalOp& spool, TablePtr contents,
                                  const OperatorStats& stats) {
    store.Seal(spool.view_signature, std::move(contents), stats.rows_out,
               stats.bytes_out, 0.0)
        .ok();
  };
  Executor executor(context);
  auto run = executor.Execute(outcome->plan);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_NE(store.Find(sig.strict, 0.0), nullptr);

  // A second identical job now matches the view.
  LogicalOpPtr plan2 = Build(kAsiaJoinSql);
  auto outcome2 =
      optimizer.Optimize(plan2, annotations, &store, nullptr, 0.0);
  ASSERT_TRUE(outcome2.ok());
  EXPECT_EQ(outcome2->views_matched, 1);
}

TEST_F(OptimizerTest, DisabledMatchingLeavesPlanAlone) {
  LogicalOpPtr plan = Build(kAsiaJoinSql);
  LogicalOpPtr subtree = plan->children[0];
  SignatureComputer computer;
  NodeSignature sig = computer.Compute(*subtree);
  ViewStore store;
  MaterializeSubtree(subtree, &store, sig.strict, sig.recurring);

  // The view exists, but a compile given no view store never matches.
  Optimizer optimizer(&catalog_);
  QueryAnnotations annotations;
  auto outcome = optimizer.Optimize(plan, annotations, nullptr, nullptr, 0.0);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome->views_matched, 0);
  EXPECT_EQ(outcome->plan, plan);
  EXPECT_EQ(outcome->plan_without_reuse, nullptr);
}

TEST_F(OptimizerTest, UnsealedPlanRejected) {
  PlanBuilder builder(&catalog_);
  auto plan = builder.BuildFromSql(kAsiaJoinSql);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  ViewStore store;
  auto outcome = Optimizer(&catalog_).Optimize(*plan, QueryAnnotations(),
                                               &store, nullptr, 0.0);
  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.status().code(), StatusCode::kInvalidArgument);
}

std::vector<std::pair<Hash128, Hash128>> Signatures(const LogicalOp& plan) {
  std::vector<std::pair<Hash128, Hash128>> out;
  for (const NodeSignature& sig : SignatureComputer().ComputeAll(plan)) {
    out.emplace_back(sig.strict, sig.recurring);
  }
  return out;
}

// View matching, spool injection and the sharing rewrite copy the path to
// the root and share everything else: the bound plan (which is also
// plan_without_reuse) prints and signs exactly as it did before them.
TEST_F(OptimizerTest, RewritesLeaveTheBoundPlanAlone) {
  auto union_plan = [&](std::vector<const char*> segments) {
    std::vector<LogicalOpPtr> branches;
    for (const char* segment : segments) {
      branches.push_back(
          Build(std::string("SELECT Name, Price FROM Sales JOIN Customer ON "
                            "Sales.CustomerId = Customer.CustomerId WHERE "
                            "MktSegment = '") +
                segment + "'"));
    }
    LogicalOpPtr plan = LogicalOp::UnionAll(std::move(branches));
    SignatureComputer().SealTree(plan.get());
    return plan;
  };
  // The Asia branch's filtered join has a view; selection picked the
  // branches' common projection template, so every branch gets a spool.
  ViewStore store;
  LogicalOpPtr asia = union_plan({"Asia"})->children[0];
  NodeSignature view_sig = SignatureComputer().Compute(*asia->children[0]);
  MaterializeSubtree(asia->children[0], &store, view_sig.strict,
                     view_sig.recurring);
  QueryAnnotations annotations;
  annotations.materialize_candidates.insert(asia->recurring_signature);
  auto always = [](const Hash128&) { return true; };
  Optimizer optimizer(&catalog_);

  // What the bound plan looks like annotated, before any rewrite.
  auto reference = optimizer.Optimize(union_plan({"Asia", "Europe"}),
                                      annotations, nullptr, nullptr, 0.0);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  const std::string printed = reference->plan->ToString();
  const auto signed_as = Signatures(*reference->plan);

  LogicalOpPtr bound = union_plan({"Asia", "Europe"});
  auto outcome = optimizer.Optimize(bound, annotations, &store, always, 0.0);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_EQ(outcome->views_matched, 1);
  EXPECT_EQ(outcome->spools_added, 2);
  EXPECT_EQ(outcome->plan_without_reuse, bound);
  EXPECT_EQ(bound->ToString(), printed);
  EXPECT_EQ(Signatures(*bound), signed_as);
  // The Europe branch was not rewritten: its spool sits over the bound node.
  const LogicalOp& europe_spool = *outcome->plan->children[1];
  ASSERT_EQ(europe_spool.kind, LogicalOpKind::kSpool);
  EXPECT_EQ(europe_spool.children[0], bound->children[1]);

  // A second job with one more branch shares both branches with the first.
  LogicalOpPtr bound2 = union_plan({"Asia", "Europe", "Japan"});
  auto outcome2 = optimizer.Optimize(bound2, annotations, &store, always, 0.0);
  ASSERT_TRUE(outcome2.ok()) << outcome2.status().ToString();
  const std::vector<LogicalOpPtr> optimized = {outcome->plan, outcome2->plan};
  const std::vector<std::string> optimized_printed = {
      optimized[0]->ToString(), optimized[1]->ToString()};
  const std::vector<std::vector<std::pair<Hash128, Hash128>>>
      optimized_signed = {Signatures(*optimized[0]),
                          Signatures(*optimized[1])};
  std::vector<LogicalOpPtr> plans = optimized;
  sharing::RewriteResult rewrite = sharing::RewriteForSharing(
      {&plans[0], &plans[1]}, optimizer.signatures(), sharing::SharingPolicy());
  EXPECT_FALSE(rewrite.streams.empty());
  for (size_t i = 0; i < plans.size(); ++i) {
    EXPECT_NE(plans[i], optimized[i]);
    EXPECT_EQ(optimized[i]->ToString(), optimized_printed[i]);
    EXPECT_EQ(Signatures(*optimized[i]), optimized_signed[i]);
  }
  EXPECT_EQ(bound->ToString(), printed);
  // The Japan branch is the second job's alone: untouched, so shared.
  EXPECT_EQ(plans[1]->children[2], optimized[1]->children[2]);
}

TEST_F(OptimizerTest, ExpiredViewNotMatched) {
  LogicalOpPtr plan = Build(kAsiaJoinSql);
  LogicalOpPtr subtree = plan->children[0];
  SignatureComputer computer;
  NodeSignature sig = computer.Compute(*subtree);
  ViewStore store(/*ttl_seconds=*/100.0);
  MaterializeSubtree(subtree, &store, sig.strict, sig.recurring);

  Optimizer optimizer(&catalog_);
  QueryAnnotations annotations;
  // At t=1000 (> TTL), the view is expired and must not match.
  auto outcome =
      optimizer.Optimize(plan, annotations, &store, nullptr, 1000.0);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome->views_matched, 0);
}

}  // namespace
}  // namespace cloudviews
