// Deterministic chaos suite for the fault-injection framework: every
// scenario arms a seeded FaultPlan, drives the standard build-then-reuse
// workload through it, and asserts that (a) query results are byte-identical
// to a fault-free run, (b) damaged views are withdrawn exactly once with no
// signature or lock leaked, and (c) the engine recovers (rebuilds or falls
// back to base scans) without operator intervention.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "cluster/simulator.h"
#include "core/repository_io.h"
#include "core/reuse_engine.h"
#include "core/view_selection.h"
#include "fault/fault.h"
#include "fault/fault_sites.h"
#include "obs/metrics.h"
#include "plan/builder.h"
#include "tests/test_util.h"

namespace cloudviews {
namespace {

const char* kSharedSql =
    "SELECT Name, Price FROM Sales JOIN Customer "
    "ON Sales.CustomerId = Customer.CustomerId WHERE MktSegment = 'Asia'";

class FaultTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Override any env-armed plan: each scenario arms its own so the suite
    // stays deterministic under the CI seed sweep.
    fault::FaultInjector::Global().Disarm();
    testing_util::RegisterFigure4Tables(&catalog_);
  }

  void TearDown() override { fault::FaultInjector::Global().Disarm(); }

  std::unique_ptr<ReuseEngine> MakeEngine() {
    ReuseEngineOptions options;
    options.selection.schedule_aware = false;
    options.selection.per_virtual_cluster = false;
    options.selection.strategy = SelectionStrategy::kGreedyRatio;
    // One view per job keeps the build/match counts below exact: the shared
    // subexpression yields exactly one spool in job 3 and one match in job 4.
    options.max_views_per_job = 1;
    auto engine = std::make_unique<ReuseEngine>(&catalog_, options);
    engine->insights().controls().enabled_vcs.insert("vc0");
    return engine;
  }

  static JobRequest MakeJob(int64_t id, double t) {
    JobRequest req;
    req.job_id = id;
    req.virtual_cluster = "vc0";
    req.sql = kSharedSql;
    req.submit_time = t;
    req.day = static_cast<int>(t / 86400.0);
    return req;
  }

  static std::vector<std::string> Render(const TablePtr& table) {
    std::vector<std::string> out;
    out.reserve(table->num_rows());
    for (const Row& row : table->rows()) {
      std::string s;
      for (const Value& v : row) {
        s += v.is_null() ? "<null>" : v.ToString();
        s += "|";
      }
      out.push_back(std::move(s));
    }
    return out;
  }

  void Arm(const std::string& spec, uint64_t seed = 42) {
    auto plan = fault::FaultPlan::Parse(spec);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    plan->seed = seed;
    fault::FaultInjector::Global().Arm(*plan);
  }

  // The standard reuse loop: two day-0 occurrences, offline selection, a
  // third run that materializes, a fourth that reuses. Returns the four
  // rendered outputs (all four must be identical to each other by query
  // semantics, and across engines by determinism).
  std::vector<std::vector<std::string>> RunLoop(ReuseEngine* engine,
                                                std::vector<JobExecution>*
                                                    execs = nullptr) {
    std::vector<std::vector<std::string>> outputs;
    auto run = [&](int64_t id, double t) {
      auto e = engine->RunJob(MakeJob(id, t));
      ASSERT_TRUE(e.ok()) << "job " << id << ": " << e.status().ToString();
      outputs.push_back(Render(e->output));
      if (execs != nullptr) execs->push_back(*e);
    };
    run(1, 0.0);
    run(2, 1000.0);
    if (::testing::Test::HasFatalFailure()) return outputs;
    engine->RunViewSelection();
    run(3, 2000.0);
    run(4, 3000.0);
    return outputs;
  }

  DatasetCatalog catalog_;
};

// --- Plan parsing / injector mechanics --------------------------------------

TEST_F(FaultTest, SpecParsesAndRoundTrips) {
  auto plan = fault::FaultPlan::Parse(
      "exec.spool.write=nth:2;storage.view.read=p:0.25:corruption");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  ASSERT_EQ(plan->rules.size(), 2u);
  EXPECT_EQ(plan->rules.at(fault::sites::kSpoolWrite).nth_hit, 2);
  EXPECT_DOUBLE_EQ(plan->rules.at(fault::sites::kViewRead).probability, 0.25);
  EXPECT_EQ(plan->rules.at(fault::sites::kViewRead).code,
            StatusCode::kCorruption);

  auto round = fault::FaultPlan::Parse(plan->ToString());
  ASSERT_TRUE(round.ok()) << round.status().ToString();
  EXPECT_EQ(round->rules.size(), plan->rules.size());

  // Unknown sites and malformed rules are rejected up front, not at the
  // first (possibly never reached) injection.
  EXPECT_FALSE(fault::FaultPlan::Parse("bogus.site=nth:1").ok());
  EXPECT_FALSE(fault::FaultPlan::Parse("exec.spool.write=always").ok());
  EXPECT_FALSE(fault::FaultPlan::Parse("exec.spool.write=p:1.5").ok());
}

TEST_F(FaultTest, DisarmedInjectIsNoop) {
  EXPECT_FALSE(fault::FaultInjector::Enabled());
  EXPECT_TRUE(fault::Inject(fault::sites::kSpoolWrite).ok());
  EXPECT_EQ(fault::FaultInjector::Global().total_fired(), 0u);
}

TEST_F(FaultTest, NthHitFiresExactlyOnce) {
  Arm("core.repository.read=nth:2:notfound");
  EXPECT_TRUE(fault::Inject(fault::sites::kRepoRead).ok());
  Status second = fault::Inject(fault::sites::kRepoRead);
  EXPECT_EQ(second.code(), StatusCode::kNotFound);
  EXPECT_TRUE(fault::Inject(fault::sites::kRepoRead).ok());
  fault::SiteStats stats =
      fault::FaultInjector::Global().stats(fault::sites::kRepoRead);
  EXPECT_EQ(stats.hits, 3u);
  EXPECT_EQ(stats.fired, 1u);
}

TEST_F(FaultTest, ProbabilityStreamIsDeterministic) {
  auto fire_pattern = [&]() {
    Arm("core.repository.read=p:0.5", /*seed=*/7);
    std::string pattern;
    for (int i = 0; i < 64; ++i) {
      pattern += fault::Inject(fault::sites::kRepoRead).ok() ? '.' : 'X';
    }
    return pattern;
  };
  std::string first = fire_pattern();
  std::string second = fire_pattern();
  EXPECT_EQ(first, second);
  EXPECT_NE(first.find('X'), std::string::npos);
  EXPECT_NE(first.find('.'), std::string::npos);
}

// --- Spool faults: materialization aborts, query unaffected ------------------

TEST_F(FaultTest, SpoolWriteFaultAbortsMaterializationCleanly) {
  auto reference_engine = MakeEngine();
  auto reference = RunLoop(reference_engine.get());
  if (HasFatalFailure()) return;

  auto engine = MakeEngine();
  Arm("exec.spool.write=nth:1");
  std::vector<JobExecution> execs;
  auto outputs = RunLoop(engine.get(), &execs);
  if (HasFatalFailure()) return;

  EXPECT_EQ(outputs, reference);
  // Job 3's spool aborted on its first written row: no view published, no
  // signature left behind in any state.
  EXPECT_EQ(execs[2].views_built, 0);
  fault::SiteStats stats =
      fault::FaultInjector::Global().stats(fault::sites::kSpoolWrite);
  EXPECT_EQ(stats.fired, 1u);
  // Job 4 found no view, re-acquired the (released) creation lock, and
  // rebuilt successfully — automatic recovery, not permanent loss.
  EXPECT_EQ(execs[3].views_matched, 0);
  EXPECT_EQ(execs[3].views_built, 1);
  EXPECT_EQ(engine->view_store().NumLive(), 1u);
}

TEST_F(FaultTest, SealFaultWithdrawsViewAndReleasesLock) {
  auto reference_engine = MakeEngine();
  auto reference = RunLoop(reference_engine.get());
  if (HasFatalFailure()) return;

  auto engine = MakeEngine();
  Arm("exec.spool.seal=nth:1:aborted");
  std::vector<JobExecution> execs;
  auto outputs = RunLoop(engine.get(), &execs);
  if (HasFatalFailure()) return;

  EXPECT_EQ(outputs, reference);
  EXPECT_EQ(execs[2].views_built, 0);
  EXPECT_EQ(execs[3].views_matched, 0);
  // The seal hit fired once; the retried materialization in job 4 sealed.
  EXPECT_EQ(
      fault::FaultInjector::Global().stats(fault::sites::kSpoolSeal).fired,
      1u);
  EXPECT_EQ(execs[3].views_built, 1);
  EXPECT_EQ(engine->view_store().NumLive(), 1u);
}

// --- View corruption: quarantine + graceful degradation ----------------------

TEST_F(FaultTest, TruncatedViewIsQuarantinedNotServed) {
  auto reference_engine = MakeEngine();
  auto reference = RunLoop(reference_engine.get());
  if (HasFatalFailure()) return;

  auto engine = MakeEngine();
  ASSERT_TRUE(engine->RunJob(MakeJob(1, 0.0)).ok());
  ASSERT_TRUE(engine->RunJob(MakeJob(2, 1000.0)).ok());
  engine->RunViewSelection();
  auto e3 = engine->RunJob(MakeJob(3, 2000.0));
  ASSERT_TRUE(e3.ok()) << e3.status().ToString();
  ASSERT_EQ(e3->views_built, 1);
  Hash128 sig = engine->view_store().LiveViews()[0]->strict_signature;

  // Truncate the stored view file to a single row (the row-count footer no
  // longer matches). Before footer validation existed this was silently
  // served and the query returned wrong results.
  ASSERT_TRUE(engine->view_store().CorruptForTest(sig, 1).ok());

  auto e4 = engine->RunJob(MakeJob(4, 3000.0));
  ASSERT_TRUE(e4.ok()) << e4.status().ToString();
  EXPECT_EQ(Render(e4->output), reference[3]);
  EXPECT_EQ(e4->views_matched, 0);  // quarantined at compile-time lookup
  EXPECT_EQ(engine->view_store().total_views_quarantined(), 1);
  EXPECT_EQ(engine->view_store().FindAny(sig)->state, ViewState::kExpired);
  // The quarantined entry is reclaimed by the next maintenance sweep.
  engine->Maintenance(3000.0);
  EXPECT_EQ(engine->view_store().FindAny(sig), nullptr);
}

TEST_F(FaultTest, ExecTimeViewLossFallsBackToBasePlan) {
  auto reference_engine = MakeEngine();
  auto reference = RunLoop(reference_engine.get());
  if (HasFatalFailure()) return;

  auto engine = MakeEngine();
  ASSERT_TRUE(engine->RunJob(MakeJob(1, 0.0)).ok());
  ASSERT_TRUE(engine->RunJob(MakeJob(2, 1000.0)).ok());
  engine->RunViewSelection();
  ASSERT_TRUE(engine->RunJob(MakeJob(3, 2000.0)).ok());
  ASSERT_EQ(engine->view_store().NumLive(), 1u);

  // Hit 1 is the compile-time lookup (view matches); hit 2 is the executor
  // re-reading the view, where the corruption fires. The engine must
  // invalidate the view and re-answer from the unrewritten base plan.
  Arm("storage.view.read=nth:2:corruption");
  uint64_t fallbacks_before =
      obs::MetricsRegistry::Global().counter("engine.fallbacks").Value();
  auto e4 = engine->RunJob(MakeJob(4, 3000.0));
  ASSERT_TRUE(e4.ok()) << e4.status().ToString();
  EXPECT_EQ(Render(e4->output), reference[3]);
  EXPECT_TRUE(e4->fell_back);
  EXPECT_EQ(e4->views_matched, 0);
  EXPECT_TRUE(e4->matched_signatures.empty());
  EXPECT_EQ(engine->view_store().total_views_quarantined(), 1);
  EXPECT_EQ(engine->view_store().NumLive(), 0u);
  EXPECT_EQ(
      obs::MetricsRegistry::Global().counter("engine.fallbacks").Value(),
      fallbacks_before + 1);
}

// --- Cluster node faults ------------------------------------------------------

TEST_F(FaultTest, NodeFailureRetriesWithBackoffThenRuns) {
  PlanBuilder builder(&catalog_);
  auto plan = builder.BuildFromSql(kSharedSql);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();

  GeneratedJob job;
  job.job_id = 1;
  job.virtual_cluster = "vc0";
  job.plan = *plan;

  auto engine1 = MakeEngine();
  ClusterSimulator sim1(engine1.get());
  auto clean = sim1.SubmitJob(job);
  ASSERT_TRUE(clean.ok()) << clean.status().ToString();
  EXPECT_EQ(clean->node_retries, 0);

  auto engine2 = MakeEngine();
  ClusterSimulator sim2(engine2.get());
  Arm("cluster.node.fail=nth:1");
  auto retried = sim2.SubmitJob(job);
  ASSERT_TRUE(retried.ok()) << retried.status().ToString();
  EXPECT_EQ(retried->node_retries, 1);
  EXPECT_FALSE(retried->failed);
  // One backoff interval (5s * 2^0) charged to latency; nothing else moved.
  EXPECT_NEAR(retried->latency_seconds - clean->latency_seconds, 5.0, 1e-9);
}

TEST_F(FaultTest, NodeFailureExhaustsRetriesAndFails) {
  PlanBuilder builder(&catalog_);
  auto plan = builder.BuildFromSql(kSharedSql);
  ASSERT_TRUE(plan.ok());
  GeneratedJob job;
  job.job_id = 1;
  job.virtual_cluster = "vc0";
  job.plan = *plan;

  auto engine = MakeEngine();
  ClusterSimulator sim(engine.get());
  Arm("cluster.node.fail=p:1.0");
  auto dead = sim.SubmitJob(job);
  EXPECT_FALSE(dead.ok());
  ASSERT_EQ(sim.telemetry().jobs().size(), 1u);
  EXPECT_TRUE(sim.telemetry().jobs()[0].failed);
  EXPECT_EQ(sim.telemetry().jobs()[0].node_retries, 2);  // max_node_retries-1
}

TEST_F(FaultTest, StragglerStretchesLatencyOnly) {
  PlanBuilder builder(&catalog_);
  auto plan = builder.BuildFromSql(kSharedSql);
  ASSERT_TRUE(plan.ok());
  GeneratedJob job;
  job.job_id = 1;
  job.virtual_cluster = "vc0";
  job.plan = *plan;

  auto engine1 = MakeEngine();
  ClusterSimulator sim1(engine1.get());
  auto clean = sim1.SubmitJob(job);
  ASSERT_TRUE(clean.ok());

  auto engine2 = MakeEngine();
  ClusterSimulator sim2(engine2.get());
  Arm("cluster.node.straggler=nth:1");
  auto slow = sim2.SubmitJob(job);
  ASSERT_TRUE(slow.ok());
  EXPECT_TRUE(slow->straggler);
  EXPECT_FALSE(slow->failed);
  EXPECT_NEAR(slow->latency_seconds, 4.0 * clean->latency_seconds, 1e-9);
}

// --- Work-sharing faults ------------------------------------------------------

class SharingFaultTest : public FaultTest {
 protected:
  std::unique_ptr<ReuseEngine> MakeSharingEngine() {
    ReuseEngineOptions options;
    options.selection.schedule_aware = false;
    options.selection.per_virtual_cluster = false;
    options.selection.strategy = SelectionStrategy::kGreedyRatio;
    options.enable_sharing = true;
    auto engine = std::make_unique<ReuseEngine>(&catalog_, options);
    engine->insights().controls().enabled_vcs.insert("vc0");
    return engine;
  }

  std::vector<JobRequest> Burst() {
    return {MakeJob(1, 100.0), MakeJob(2, 101.0), MakeJob(3, 102.0)};
  }

  // Fault-free serial reference for the burst.
  std::vector<std::vector<std::string>> SerialReference() {
    auto engine = MakeEngine();
    std::vector<std::vector<std::string>> outputs;
    for (const JobRequest& request : Burst()) {
      auto e = engine->RunJob(request);
      EXPECT_TRUE(e.ok()) << e.status().ToString();
      if (e.ok()) outputs.push_back(Render(e->output));
    }
    return outputs;
  }
};

TEST_F(SharingFaultTest, ProducerAbortDetachesSubscribersLosslessly) {
  auto reference = SerialReference();
  if (HasFatalFailure()) return;

  auto engine = MakeSharingEngine();
  Arm("sharing.producer_abort=nth:1");
  auto window = engine->RunSharedWindow(Burst());
  ASSERT_TRUE(window.ok()) << window.status().ToString();

  ASSERT_EQ(window->size(), reference.size());
  for (size_t i = 0; i < reference.size(); ++i) {
    EXPECT_EQ(Render((*window)[i].output), reference[i])
        << "producer abort changed job " << (*window)[i].job_id;
  }
  // The producer died before its first batch; every wired subscriber
  // detached and recomputed privately, and the window still succeeded.
  const sharing::SharingStats& stats = engine->sharing_stats();
  EXPECT_GE(stats.producer_aborts, 1);
  EXPECT_EQ(stats.detaches, stats.fanout);
  EXPECT_EQ(stats.hits, 0);
  EXPECT_EQ(
      fault::FaultInjector::Global()
          .stats(fault::sites::kSharingProducerAbort)
          .fired,
      1u);
}

TEST_F(SharingFaultTest, SubscriberTimeoutFallsBackWithoutKillingStream) {
  auto reference = SerialReference();
  if (HasFatalFailure()) return;

  auto engine = MakeSharingEngine();
  Arm("sharing.subscriber_timeout=p:1.0");
  auto window = engine->RunSharedWindow(Burst());
  ASSERT_TRUE(window.ok()) << window.status().ToString();

  ASSERT_EQ(window->size(), reference.size());
  for (size_t i = 0; i < reference.size(); ++i) {
    EXPECT_EQ(Render((*window)[i].output), reference[i])
        << "subscriber timeout changed job " << (*window)[i].job_id;
  }
  // A timed-out subscriber detaches alone; the producer and the other
  // subscribers are unaffected, so the stream itself never aborts.
  const sharing::SharingStats& stats = engine->sharing_stats();
  EXPECT_EQ(stats.producer_aborts, 0);
  EXPECT_EQ(stats.hits + stats.detaches, stats.fanout);
}

// --- Repository I/O faults ----------------------------------------------------

TEST_F(FaultTest, RepositoryIoRetriesBoundedly) {
  std::string path = ::testing::TempDir() + "/fault_test_repo.snapshot";
  WorkloadRepository repository;

  // A single transient write fault is retried and succeeds.
  Arm("core.repository.write=nth:1");
  ASSERT_TRUE(SaveRepository(repository, path).ok());
  EXPECT_EQ(
      fault::FaultInjector::Global().stats(fault::sites::kRepoWrite).fired,
      1u);

  // A single transient read fault likewise.
  Arm("core.repository.read=nth:1");
  WorkloadRepository restored;
  ASSERT_TRUE(LoadRepository(path, &restored).ok());

  // A permanent fault exhausts the 3 attempts and surfaces the error.
  Arm("core.repository.read=p:1.0:resource_exhausted");
  WorkloadRepository failed;
  Status load = LoadRepository(path, &failed);
  EXPECT_EQ(load.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(
      fault::FaultInjector::Global().stats(fault::sites::kRepoRead).hits, 3u);
}

}  // namespace
}  // namespace cloudviews
