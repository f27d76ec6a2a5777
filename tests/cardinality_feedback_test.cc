#include <cmath>

#include <gtest/gtest.h>

#include "core/reuse_engine.h"
#include "optimizer/cardinality_feedback.h"
#include "optimizer/optimizer.h"
#include "plan/builder.h"
#include "plan/normalizer.h"
#include "tests/test_util.h"

namespace cloudviews {
namespace {

TEST(CardinalityFeedbackTest, EwmaConverges) {
  CardinalityFeedback feedback(0.5);
  Hash128 sig = HashString("subexpr");
  feedback.Record(sig, 100, 1000);
  auto m1 = feedback.Lookup(sig);
  ASSERT_TRUE(m1.has_value());
  EXPECT_DOUBLE_EQ(m1->rows, 100.0);
  feedback.Record(sig, 200, 2000);
  auto m2 = feedback.Lookup(sig);
  EXPECT_DOUBLE_EQ(m2->rows, 150.0);  // 0.5*200 + 0.5*100
  EXPECT_EQ(m2->observations, 2);
}

TEST(CardinalityFeedbackTest, MinObservationsGate) {
  CardinalityFeedback feedback;
  Hash128 sig = HashString("rare");
  feedback.Record(sig, 10, 100);
  EXPECT_FALSE(feedback.Lookup(sig, /*min_observations=*/2).has_value());
  feedback.Record(sig, 10, 100);
  EXPECT_TRUE(feedback.Lookup(sig, 2).has_value());
  EXPECT_FALSE(feedback.Lookup(HashString("never"), 1).has_value());
  EXPECT_GT(feedback.lookups(), feedback.hits());
}

class FeedbackOptimizerTest : public ::testing::Test {
 protected:
  void SetUp() override { testing_util::RegisterFigure4Tables(&catalog_); }

  LogicalOpPtr Build(const std::string& sql) {
    PlanBuilder builder(&catalog_);
    auto plan = builder.BuildFromSql(sql);
    EXPECT_TRUE(plan.ok());
    return plan.ok() ? PlanNormalizer::Normalize(*plan) : nullptr;
  }

  DatasetCatalog catalog_;
};

TEST_F(FeedbackOptimizerTest, MicroModelDisplacesStaticEstimate) {
  const char* sql =
      "SELECT Name, Price FROM Sales JOIN Customer "
      "ON Sales.CustomerId = Customer.CustomerId WHERE MktSegment = 'Asia'";
  LogicalOpPtr plan = Build(sql);
  SignatureComputer signatures;
  // The join subexpression: record its true observed cardinality.
  const LogicalOp* join = plan->children[0].get();
  ASSERT_EQ(join->kind, LogicalOpKind::kJoin);
  NodeSignature join_sig = signatures.Compute(*join);

  CardinalityFeedback feedback;
  feedback.Record(join_sig.recurring, 170, 5000);
  feedback.Record(join_sig.recurring, 170, 5000);

  OptimizerOptions with_feedback;
  with_feedback.cardinality_feedback = &feedback;
  Optimizer smart(&catalog_, with_feedback);
  Optimizer naive(&catalog_);
  QueryAnnotations annotations;
  ViewStore store;
  // Optimize annotates the sealed plan it is given, so each optimizer gets
  // its own sealed copy: one's estimates must not leak into the other's.
  const auto sealed_copy = [&] {
    LogicalOpPtr copy = plan->Clone();
    signatures.SealTree(copy.get());
    return copy;
  };
  auto smart_out =
      smart.Optimize(sealed_copy(), annotations, &store, nullptr, 0.0);
  auto naive_out =
      naive.Optimize(sealed_copy(), annotations, &store, nullptr, 0.0);
  ASSERT_TRUE(smart_out.ok());
  ASSERT_TRUE(naive_out.ok());

  const LogicalOp* smart_join = smart_out->plan->children[0].get();
  const LogicalOp* naive_join = naive_out->plan->children[0].get();
  EXPECT_DOUBLE_EQ(smart_join->estimated_rows, 170.0);
  EXPECT_TRUE(smart_join->stats_from_view);
  // The static estimator guesses (and keeps its over-partitioning bias);
  // only the micro-model lands on the observed cardinality.
  EXPECT_NE(naive_join->estimated_rows, 170.0);
  EXPECT_FALSE(naive_join->stats_from_view);
}

TEST_F(FeedbackOptimizerTest, EngineLearnsAcrossRuns) {
  ReuseEngineOptions options;
  options.enable_cardinality_feedback = true;
  options.cloudviews_enabled = false;  // isolate feedback from reuse
  ReuseEngine engine(&catalog_, options);

  const char* sql =
      "SELECT Name, Price FROM Sales JOIN Customer "
      "ON Sales.CustomerId = Customer.CustomerId WHERE MktSegment = 'Asia'";
  auto run = [&](int64_t id) {
    JobRequest request;
    request.job_id = id;
    request.virtual_cluster = "vc0";
    request.sql = sql;
    request.submit_time = static_cast<double>(id) * 1000.0;
    auto exec = engine.RunJob(request);
    EXPECT_TRUE(exec.ok());
    return std::move(exec).value();
  };

  JobExecution first = run(1);
  // Every execution records micro-models, but they only become servable to
  // the optimizer after two observations (min_observations=2).
  EXPECT_GT(engine.cardinality_feedback().size(), 0u);
  run(2);
  JobExecution third = run(3);
  // The third compile served observed statistics: the join's row estimate
  // now equals its actual output cardinality (the first compile's static
  // estimate did not).
  const LogicalOp* join = third.executed_plan->children[0].get();
  ASSERT_EQ(join->kind, LogicalOpKind::kJoin);
  EXPECT_TRUE(join->stats_from_view);
  auto it = third.stats.per_node.find(join);
  ASSERT_NE(it, third.stats.per_node.end());
  EXPECT_NEAR(join->estimated_rows,
              static_cast<double>(it->second.rows_out),
              1.0);
  const LogicalOp* first_join = first.executed_plan->children[0].get();
  EXPECT_FALSE(first_join->stats_from_view);
}

}  // namespace
}  // namespace cloudviews
