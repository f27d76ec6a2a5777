#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "cluster/simulator.h"
#include "cluster/telemetry.h"
#include "tests/test_util.h"

namespace cloudviews {
namespace {

class ClusterSimTest : public ::testing::Test {
 protected:
  void SetUp() override {
    testing_util::RegisterFigure4Tables(&catalog_);
    ReuseEngineOptions options;
    options.selection.schedule_aware = false;
    options.selection.per_virtual_cluster = false;
    options.selection.strategy = SelectionStrategy::kGreedyRatio;
    engine_ = std::make_unique<ReuseEngine>(&catalog_, options);
    engine_->insights().controls().enabled_vcs.insert("vc0");
    ClusterSimOptions sim_options;
    sim_options.vc_concurrent_jobs = 2;
    simulator_ = std::make_unique<ClusterSimulator>(engine_.get(), sim_options);
  }

  GeneratedJob MakeJob(int64_t id, double t, const std::string& vc = "vc0") {
    GeneratedJob job;
    job.job_id = id;
    job.virtual_cluster = vc;
    job.day = static_cast<int>(t / kSecondsPerDay);
    job.submit_time = t;
    PlanBuilder builder(&catalog_);
    auto plan = builder.BuildFromSql(
        "SELECT Name, Price FROM Sales JOIN Customer "
        "ON Sales.CustomerId = Customer.CustomerId "
        "WHERE MktSegment = 'Asia'");
    EXPECT_TRUE(plan.ok());
    job.plan = plan.ok() ? *plan : nullptr;
    return job;
  }

  DatasetCatalog catalog_;
  std::unique_ptr<ReuseEngine> engine_;
  std::unique_ptr<ClusterSimulator> simulator_;
};

TEST_F(ClusterSimTest, ProducesPositiveMetrics) {
  auto t = simulator_->SubmitJob(MakeJob(1, 100.0));
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  EXPECT_GT(t->latency_seconds, 0.0);
  EXPECT_GT(t->processing_seconds, 0.0);
  EXPECT_GT(t->containers, 0);
  EXPECT_GT(t->input_mb, 0.0);
  EXPECT_GE(t->data_read_mb, t->input_mb);
  EXPECT_EQ(t->queue_length_at_submit, 0);
  EXPECT_FALSE(t->failed);
}

TEST_F(ClusterSimTest, ReuseShrinksResourceMetrics) {
  ASSERT_TRUE(simulator_->SubmitJob(MakeJob(1, 0.0)).ok());
  ASSERT_TRUE(simulator_->SubmitJob(MakeJob(2, 2000.0)).ok());
  engine_->RunViewSelection();
  auto producer = simulator_->SubmitJob(MakeJob(3, 4000.0));
  ASSERT_TRUE(producer.ok());
  EXPECT_GT(producer->views_built, 0);
  auto consumer = simulator_->SubmitJob(MakeJob(4, 6000.0));
  ASSERT_TRUE(consumer.ok());
  EXPECT_GT(consumer->views_matched, 0);

  auto baseline = simulator_->telemetry().jobs()[0];
  EXPECT_LT(consumer->processing_seconds, baseline.processing_seconds);
  EXPECT_LT(consumer->containers, baseline.containers);
  EXPECT_LT(consumer->input_mb, baseline.input_mb);
  EXPECT_LT(consumer->data_read_mb, baseline.data_read_mb);
  EXPECT_LT(consumer->latency_seconds, baseline.latency_seconds);
}

TEST_F(ClusterSimTest, SpoolOffCriticalPathButCostsProcessing) {
  ASSERT_TRUE(simulator_->SubmitJob(MakeJob(1, 0.0)).ok());
  ASSERT_TRUE(simulator_->SubmitJob(MakeJob(2, 2000.0)).ok());
  engine_->RunViewSelection();
  auto producer = simulator_->SubmitJob(MakeJob(3, 4000.0));
  ASSERT_TRUE(producer.ok());
  ASSERT_GT(producer->views_built, 0);
  const JobTelemetry& baseline = simulator_->telemetry().jobs()[0];
  // The producing job pays extra processing (spool writes)...
  EXPECT_GT(producer->processing_seconds, baseline.processing_seconds);
  // ...but its latency stays close to baseline (parallel spool stage; only
  // the annotation fetch is charged on the critical path).
  EXPECT_LT(producer->latency_seconds, baseline.latency_seconds * 1.25);
}

TEST_F(ClusterSimTest, QueueingTracksBusySlots) {
  // Four jobs at the same instant into 2 slots: two run, two wait.
  std::vector<JobTelemetry> results;
  for (int64_t id = 1; id <= 4; ++id) {
    auto t = simulator_->SubmitJob(MakeJob(id, 100.0));
    ASSERT_TRUE(t.ok());
    results.push_back(*t);
  }
  EXPECT_EQ(results[0].queue_wait_seconds, 0.0);
  EXPECT_EQ(results[1].queue_wait_seconds, 0.0);
  EXPECT_GT(results[2].queue_wait_seconds, 0.0);
  EXPECT_GT(results[3].queue_wait_seconds, 0.0);
  // The fourth job observes a queue.
  EXPECT_GT(results[3].queue_length_at_submit, 0);
}

TEST_F(ClusterSimTest, SeparateVcsDoNotQueueOnEachOther) {
  for (int64_t id = 1; id <= 3; ++id) {
    ASSERT_TRUE(simulator_->SubmitJob(MakeJob(id, 100.0)).ok());
  }
  auto other_vc = simulator_->SubmitJob(MakeJob(9, 100.0, "vc1"));
  ASSERT_TRUE(other_vc.ok());
  EXPECT_EQ(other_vc->queue_wait_seconds, 0.0);
}

TEST_F(ClusterSimTest, JoinRecordsCollected) {
  ASSERT_TRUE(simulator_->SubmitJob(MakeJob(1, 100.0)).ok());
  ASSERT_TRUE(simulator_->SubmitJob(MakeJob(2, 150.0)).ok());
  ASSERT_EQ(simulator_->join_records().size(), 2u);
  const auto& records = simulator_->join_records();
  EXPECT_EQ(records[0].signature, records[1].signature);
  EXPECT_LT(records[0].start, records[0].end);
  simulator_->TrimJoinRecordsBefore(1);
  EXPECT_TRUE(simulator_->join_records().empty());
}

TEST(TelemetryTest, SeriesAggregatesByDay) {
  TelemetrySeries series;
  JobTelemetry a;
  a.job_id = 1;
  a.day = 0;
  a.latency_seconds = 10.0;
  a.containers = 5;
  JobTelemetry b;
  b.job_id = 2;
  b.day = 0;
  b.latency_seconds = 20.0;
  b.containers = 7;
  JobTelemetry c;
  c.job_id = 3;
  c.day = 2;
  c.latency_seconds = 1.0;
  series.Record(a);
  series.Record(b);
  series.Record(c);
  auto days = series.Days();
  ASSERT_EQ(days.size(), 2u);
  EXPECT_EQ(days[0].jobs, 2);
  EXPECT_DOUBLE_EQ(days[0].latency_seconds, 30.0);
  EXPECT_EQ(days[0].containers, 12);
  EXPECT_EQ(days[1].day, 2);
  EXPECT_DOUBLE_EQ(series.Totals().latency_seconds, 31.0);
}

TEST(TelemetryTest, ImprovementPercent) {
  EXPECT_DOUBLE_EQ(ImprovementPercent(100.0, 66.0), 34.0);
  EXPECT_DOUBLE_EQ(ImprovementPercent(0.0, 10.0), 0.0);
  EXPECT_LT(ImprovementPercent(100.0, 120.0), 0.0);
}

TEST(TelemetryTest, MedianPerJobImprovement) {
  TelemetrySeries base, with_cv;
  for (int i = 1; i <= 5; ++i) {
    JobTelemetry b;
    b.job_id = i;
    b.latency_seconds = 100.0;
    base.Record(b);
    JobTelemetry w;
    w.job_id = i;
    w.latency_seconds = 100.0 - i * 10.0;  // 10%..50% improvements
    with_cv.Record(w);
  }
  EXPECT_DOUBLE_EQ(MedianPerJobLatencyImprovement(base, with_cv), 30.0);
}

}  // namespace
}  // namespace cloudviews
