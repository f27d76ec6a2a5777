// Work-sharing subsystem tests: the SharedStream fan-out protocol (including
// the concurrent subscribe/produce/detach races the TSAN CI job hammers),
// the share-vs-materialize policy, the plan rewrite, and the engine-level
// guarantee that a sharing window produces byte-identical per-job outputs —
// with and without producer aborts and subscriber timeouts.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/hash.h"

#include "common/sim_clock.h"
#include "common/thread_pool.h"
#include "core/reuse_engine.h"
#include "core/view_selection.h"
#include "exec/shared_stream.h"
#include "fault/fault.h"
#include "fault/fault_sites.h"
#include "obs/decision.h"
#include "obs/provenance.h"
#include "plan/builder.h"
#include "plan/normalizer.h"
#include "sharing/producer.h"
#include "sharing/sharing_policy.h"
#include "sharing/sharing_registry.h"
#include "sharing/sharing_rewrite.h"
#include "tests/test_util.h"

namespace cloudviews {
namespace {

using sharing::ShareMode;
using sharing::SharedStream;
using sharing::SharingPolicy;
using sharing::SharingPolicyOptions;

ColumnBatch MakeBatch(int64_t start, size_t n) {
  auto col = std::make_shared<ColumnVector>();
  for (size_t i = 0; i < n; ++i) {
    col->AppendInt64(start + static_cast<int64_t>(i));
  }
  ColumnBatch batch;
  batch.columns.push_back(std::move(col));
  batch.num_rows = n;
  return batch;
}

// --- SharedStream ------------------------------------------------------------

TEST(SharedStreamTest, PublishThenReadInOrder) {
  SharedStream stream(HashString("sig"), /*fanout=*/2);
  ASSERT_TRUE(stream.Publish(MakeBatch(0, 4)).ok());
  ASSERT_TRUE(stream.Publish(MakeBatch(4, 4)).ok());
  stream.Complete();

  EXPECT_EQ(stream.state(), SharedStream::State::kComplete);
  ASSERT_EQ(stream.published(), 2u);
  EXPECT_EQ(stream.batch(0).num_rows, 4u);
  EXPECT_EQ(stream.batch(1).columns[0]->CellInt64(0), 4);
  EXPECT_EQ(stream.rows_published(), 8u);
}

TEST(SharedStreamTest, AbortWakesBlockedSubscriber) {
  SharedStream stream(HashString("sig"), 1);
  std::thread aborter([&stream] {
    stream.Abort(Status::Internal("producer died"));
  });
  // Wait forever: only the abort can release this.
  SharedStream::State state = stream.WaitForBatch(0, /*timeout_seconds=*/-1);
  aborter.join();
  EXPECT_EQ(state, SharedStream::State::kAborted);
  EXPECT_FALSE(stream.abort_cause().ok());
}

TEST(SharedStreamTest, WaitTimesOutWhileRunning) {
  SharedStream stream(HashString("sig"), 1);
  SharedStream::State state = stream.WaitForBatch(0, 0.01);
  EXPECT_EQ(state, SharedStream::State::kRunning);  // timed out
  EXPECT_EQ(stream.published(), 0u);
  stream.Complete();
}

// The race the TSAN job exists for: one producer publishing while several
// subscribers read at their own pace, one detaches mid-stream, and a late
// subscriber starts after completion and catches up from index 0.
TEST(SharedStreamTest, ConcurrentProduceSubscribeDetach) {
  constexpr size_t kBatches = 200;
  constexpr size_t kRowsPerBatch = 8;
  SharedStream stream(HashString("race"), 4);

  std::thread producer([&stream] {
    for (size_t i = 0; i < kBatches; ++i) {
      ASSERT_TRUE(
          stream.Publish(MakeBatch(static_cast<int64_t>(i * kRowsPerBatch),
                                   kRowsPerBatch))
              .ok());
    }
    stream.Complete();
  });

  auto consume_all = [&stream]() -> uint64_t {
    uint64_t rows = 0;
    size_t next = 0;
    while (true) {
      if (next < stream.published()) {
        const ColumnBatch& batch = stream.batch(next);
        // Every cell must already be visible and in order.
        EXPECT_EQ(batch.columns[0]->CellInt64(0),
                  static_cast<int64_t>(next * kRowsPerBatch));
        rows += batch.num_rows;
        ++next;
        continue;
      }
      SharedStream::State state = stream.WaitForBatch(next, -1);
      if (state == SharedStream::State::kComplete &&
          next >= stream.published()) {
        stream.CountSubscriberServed();
        return rows;
      }
      if (state == SharedStream::State::kAborted) {
        ADD_FAILURE() << "unexpected abort";
        return rows;
      }
    }
  };

  uint64_t rows_a = 0;
  uint64_t rows_b = 0;
  std::thread sub_a([&] { rows_a = consume_all(); });
  std::thread sub_b([&] { rows_b = consume_all(); });
  std::thread deserter([&stream] {
    // Reads a prefix, then walks away mid-stream.
    while (stream.published() < 2 &&
           stream.state() == SharedStream::State::kRunning) {
      std::this_thread::yield();
    }
    for (size_t i = 0; i < stream.published(); ++i) {
      EXPECT_GT(stream.batch(i).num_rows, 0u);
    }
    stream.CountSubscriberDetached();
  });

  producer.join();
  sub_a.join();
  sub_b.join();
  deserter.join();

  // A subscriber that arrives after completion still reads the full log.
  uint64_t late_rows = consume_all();

  EXPECT_EQ(rows_a, kBatches * kRowsPerBatch);
  EXPECT_EQ(rows_b, kBatches * kRowsPerBatch);
  EXPECT_EQ(late_rows, kBatches * kRowsPerBatch);
  EXPECT_EQ(stream.published(), kBatches);
  EXPECT_EQ(stream.subscribers_served(), 3u);
  EXPECT_EQ(stream.subscribers_detached(), 1u);
}

// --- SharingRegistry ---------------------------------------------------------

TEST(SharingRegistryTest, OneStreamPerSignature) {
  sharing::SharingRegistry registry;
  Hash128 sig = HashString("shared");
  SharedStream* stream = registry.CreateStream(sig, 2);
  ASSERT_NE(stream, nullptr);
  EXPECT_EQ(registry.CreateStream(sig, 2), nullptr);  // no duplicates
  EXPECT_EQ(registry.FindStream(sig), stream);
  EXPECT_EQ(registry.FindStream(HashString("other")), nullptr);
  EXPECT_EQ(registry.streams().size(), 1u);
}

// --- SharingPolicy -----------------------------------------------------------

TEST(SharingPolicyTest, FanoutAndSizeGates) {
  SharingPolicyOptions options;
  options.min_fanout = 2;
  options.min_subtree_size = 3;
  SharingPolicy policy(options);
  Hash128 sig = HashString("p");
  EXPECT_EQ(policy.Decide(sig, 1, 5, false), ShareMode::kMaterializeOnly);
  EXPECT_EQ(policy.Decide(sig, 2, 2, false), ShareMode::kMaterializeOnly);
  EXPECT_EQ(policy.Decide(sig, 2, 3, false), ShareMode::kShareNow);
  // A spool with no ledger track record is presumed worth keeping.
  EXPECT_EQ(policy.Decide(sig, 2, 3, true), ShareMode::kBoth);
}

TEST(SharingPolicyTest, LedgerNetUtilityStripsWastefulSpool) {
  obs::ProvenanceLedger::Enable();
  obs::ProvenanceLedger ledger;
  Hash128 wasteful = HashString("wasteful-view");
  Hash128 earning = HashString("earning-view");
  // Sealed at high build cost, never reused: deeply negative net utility.
  // (Candidate events open the streams; later kinds on unknown views drop.)
  ledger.RecordCandidate(wasteful, HashString("r1"), "vc0", 100.0, 5.0);
  ledger.RecordCandidate(earning, HashString("r2"), "vc0", 100.0, 5.0);
  ledger.RecordSpoolStarted(wasteful, HashString("r1"), "vc0", 1, 10.0);
  ledger.RecordSealed(wasteful, 1, 20.0, 100, 4096, /*build_cost=*/5000.0,
                      0.5);
  // Sealed cheap and hit hard: positive net utility.
  ledger.RecordSpoolStarted(earning, HashString("r2"), "vc0", 2, 10.0);
  ledger.RecordSealed(earning, 2, 20.0, 100, 4096, /*build_cost=*/10.0, 0.5);
  ledger.RecordHit(earning, 3, 30.0, /*saved_cost=*/9000.0, 100, 4096, 0.0);

  SharingPolicy policy;
  policy.LoadLedger(ledger, /*now=*/40.0);
  obs::ProvenanceLedger::Disable();

  // The wasteful spool is stripped (share-now); the earning one is kept and
  // fed from the stream (both).
  EXPECT_EQ(policy.Decide(wasteful, 3, 4, true), ShareMode::kShareNow);
  EXPECT_EQ(policy.Decide(earning, 3, 4, true), ShareMode::kBoth);
  // No-spool instances share regardless of the ledger.
  EXPECT_EQ(policy.Decide(wasteful, 3, 4, false), ShareMode::kShareNow);
}

// --- Engine-level sharing windows --------------------------------------------

const char* kAsiaSql =
    "SELECT Name, Price FROM Sales JOIN Customer "
    "ON Sales.CustomerId = Customer.CustomerId WHERE MktSegment = 'Asia'";
const char* kEuropeSql =
    "SELECT Name, Price FROM Sales JOIN Customer "
    "ON Sales.CustomerId = Customer.CustomerId WHERE MktSegment = 'Europe'";

std::string Render(const TablePtr& table) {
  if (table == nullptr) return "<no output>";
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

class SharingWindowTest : public ::testing::Test {
 protected:
  void TearDown() override {
    fault::FaultInjector::Global().Disarm();
    obs::ProvenanceLedger::Disable();
    obs::DecisionLedger::Disable();
  }

  static ReuseEngineOptions EngineOptions(bool enable_sharing) {
    ReuseEngineOptions options;
    options.selection.schedule_aware = false;
    options.selection.per_virtual_cluster = false;
    options.selection.strategy = SelectionStrategy::kGreedyRatio;
    options.enable_sharing = enable_sharing;
    return options;
  }

  static JobRequest MakeJob(int64_t id, const std::string& sql, double t) {
    JobRequest req;
    req.job_id = id;
    req.virtual_cluster = "vc0";
    req.sql = sql;
    req.submit_time = t;
    req.day = static_cast<int>(t / kSecondsPerDay);
    return req;
  }

  // Serial reference: the same requests through RunJob on a fresh engine.
  static std::vector<std::string> SerialOutputs(
      const std::vector<JobRequest>& requests) {
    DatasetCatalog catalog;
    testing_util::RegisterFigure4Tables(&catalog);
    ReuseEngine engine(&catalog, EngineOptions(false));
    engine.insights().controls().enabled_vcs.insert("vc0");
    std::vector<std::string> outputs;
    for (const JobRequest& request : requests) {
      auto exec = engine.RunJob(request);
      EXPECT_TRUE(exec.ok()) << exec.status().ToString();
      outputs.push_back(exec.ok() ? Render(exec->output) : "<failed>");
    }
    return outputs;
  }

  std::vector<JobRequest> ConcurrentBurst() {
    return {MakeJob(10, kAsiaSql, 100.0), MakeJob(11, kAsiaSql, 101.0),
            MakeJob(12, kEuropeSql, 102.0), MakeJob(13, kAsiaSql, 103.0)};
  }

  // Runs the burst as one sharing window and checks byte-identity against
  // the serial reference. Returns the engine for stats assertions.
  std::unique_ptr<ReuseEngine> RunWindowAndCheckOutputs(
      DatasetCatalog* catalog) {
    testing_util::RegisterFigure4Tables(catalog);
    auto engine =
        std::make_unique<ReuseEngine>(catalog, EngineOptions(true));
    engine->insights().controls().enabled_vcs.insert("vc0");
    std::vector<JobRequest> requests = ConcurrentBurst();
    auto window = engine->RunSharedWindow(requests);
    EXPECT_TRUE(window.ok()) << window.status().ToString();
    if (window.ok()) {
      std::vector<std::string> expected = SerialOutputs(requests);
      EXPECT_EQ(window->size(), expected.size());
      for (size_t i = 0; i < std::min(window->size(), expected.size()); ++i) {
        EXPECT_EQ(Render((*window)[i].output), expected[i])
            << "job " << requests[i].job_id
            << " diverged from its unshared run";
      }
    }
    return engine;
  }
};

TEST_F(SharingWindowTest, WindowOutputsMatchSerialRuns) {
  DatasetCatalog catalog;
  auto engine = RunWindowAndCheckOutputs(&catalog);
  const sharing::SharingStats& stats = engine->sharing_stats();
  // Three Asia jobs cover the same join subexpression: one producer stream,
  // every subscriber served from it, the subexpression executed once.
  EXPECT_EQ(stats.windows, 1);
  EXPECT_GE(stats.streams, 1);
  EXPECT_GE(stats.fanout, 3);
  EXPECT_EQ(stats.hits, stats.fanout);
  EXPECT_EQ(stats.detaches, 0);
  EXPECT_EQ(stats.producer_aborts, 0);
  EXPECT_GT(stats.rows_shared, 0u);
  EXPECT_GT(stats.saved_cost, 0.0);
}

TEST_F(SharingWindowTest, ProducerAbortFallsBackByteIdentical) {
  auto plan = fault::FaultPlan::Parse("sharing.producer_abort=p:1.0");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  fault::FaultInjector::Global().Arm(*plan);

  DatasetCatalog catalog;
  auto engine = RunWindowAndCheckOutputs(&catalog);
  const sharing::SharingStats& stats = engine->sharing_stats();
  // Every producer died before its first batch; every subscriber detached
  // and recomputed privately — same bytes, no hits.
  EXPECT_GE(stats.producer_aborts, 1);
  EXPECT_EQ(stats.producer_aborts, stats.streams);
  EXPECT_EQ(stats.hits, 0);
  EXPECT_EQ(stats.detaches, stats.fanout);
  EXPECT_EQ(stats.saved_cost, 0.0);  // aborted streams earn nothing
}

// The rewrite path-copies instead of cloning: the elected instance's
// fallback is the producer plan itself, and a detached subscriber runs it on
// the job's thread while the producer thread reads the same nodes.
TEST_F(SharingWindowTest, DetachedFallbackSharesProducerNodesByteIdentical) {
  DatasetCatalog catalog;
  testing_util::RegisterFigure4Tables(&catalog);
  PlanBuilder builder(&catalog);
  SignatureComputer computer;
  std::vector<LogicalOpPtr> plans;
  for (int i = 0; i < 2; ++i) {
    auto built = builder.BuildFromSql(kAsiaSql);
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    plans.push_back(PlanNormalizer::Normalize(*built));
    computer.SealTree(plans.back().get());
  }
  ExecContext context;
  context.catalog = &catalog;
  std::vector<std::string> expected;
  for (const LogicalOpPtr& plan : plans) {
    auto run = Executor(context).Execute(plan);
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    expected.push_back(Render(run->output));
  }

  const std::vector<LogicalOpPtr> bound = plans;
  std::vector<LogicalOpPtr*> rewritten = {&plans[0], &plans[1]};
  sharing::RewriteResult rewrite =
      sharing::RewriteForSharing(rewritten, computer, SharingPolicy());
  ASSERT_EQ(rewrite.streams.size(), 1u);
  const sharing::StreamPlan& stream_plan = rewrite.streams[0];
  const size_t elected = stream_plan.elected_job;
  // The two jobs are the same query, so each whole plan became a SharedScan
  // over a spool-free fallback: the bound plan itself, not a clone.
  for (size_t i = 0; i < plans.size(); ++i) {
    ASSERT_EQ(plans[i]->kind, LogicalOpKind::kSharedScan);
    EXPECT_EQ(plans[i]->shared_fallback_plan, bound[i]);
  }
  EXPECT_EQ(stream_plan.producer_plan, bound[elected]);

  // Kill the producer before its first batch: every subscriber detaches to
  // its fallback, the elected one onto the producer's own nodes.
  auto faults = fault::FaultPlan::Parse("sharing.producer_abort=p:1.0");
  ASSERT_TRUE(faults.ok()) << faults.status().ToString();
  fault::FaultInjector::Global().Arm(*faults);
  sharing::SharingRegistry registry;
  sharing::SharedStream* stream =
      registry.CreateStream(stream_plan.strict, stream_plan.fanout);
  sharing::ProducerStats producer_stats;
  std::thread producer([&] {
    sharing::RunProducer(context, stream_plan.producer_plan, stream,
                         &producer_stats)
        .ok();
  });
  ExecContext subscriber = context;
  subscriber.sharing = &registry;
  for (size_t i = 0; i < plans.size(); ++i) {
    auto run = Executor(subscriber).Execute(plans[i]);
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    EXPECT_EQ(Render(run->output), expected[i]) << "job " << i;
  }
  producer.join();
  EXPECT_EQ(stream->state(), SharedStream::State::kAborted);
  EXPECT_EQ(stream->subscribers_detached(), plans.size());
}

TEST_F(SharingWindowTest, SubscriberTimeoutFallsBackByteIdentical) {
  auto plan = fault::FaultPlan::Parse("sharing.subscriber_timeout=p:1.0");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  fault::FaultInjector::Global().Arm(*plan);

  DatasetCatalog catalog;
  auto engine = RunWindowAndCheckOutputs(&catalog);
  const sharing::SharingStats& stats = engine->sharing_stats();
  // Subscribers that had to wait gave up and recomputed; ones that found
  // every batch already published were served wait-free. Either way the
  // outputs matched, and nobody both detached and was served.
  EXPECT_EQ(stats.hits + stats.detaches, stats.fanout);
  EXPECT_EQ(stats.producer_aborts, 0);
}

TEST_F(SharingWindowTest, DegenerateWindowsUseSerialPath) {
  DatasetCatalog catalog;
  testing_util::RegisterFigure4Tables(&catalog);
  ReuseEngine engine(&catalog, EngineOptions(true));
  engine.insights().controls().enabled_vcs.insert("vc0");

  // A single-job window cannot share; it must still run and answer.
  auto single = engine.RunSharedWindow({MakeJob(1, kAsiaSql, 0.0)});
  ASSERT_TRUE(single.ok()) << single.status().ToString();
  ASSERT_EQ(single->size(), 1u);
  EXPECT_GT((*single)[0].output->num_rows(), 0u);
  EXPECT_EQ(engine.sharing_stats().windows, 0);

  // Sharing disabled: the window API is still usable, serially.
  ReuseEngine plain(&catalog, EngineOptions(false));
  plain.insights().controls().enabled_vcs.insert("vc0");
  auto window =
      plain.RunSharedWindow({MakeJob(2, kAsiaSql, 0.0),
                             MakeJob(3, kAsiaSql, 1.0)});
  ASSERT_TRUE(window.ok());
  EXPECT_EQ(window->size(), 2u);
  EXPECT_EQ(plain.sharing_stats().streams, 0);
}

// Sharing composes with view reuse: after a view seals, the next window's
// plans carry ViewScans — duplicates of the remaining compute still share.
TEST_F(SharingWindowTest, ComposesWithMaterializedViews) {
  DatasetCatalog catalog;
  testing_util::RegisterFigure4Tables(&catalog);
  ReuseEngine engine(&catalog, EngineOptions(true));
  engine.insights().controls().enabled_vcs.insert("vc0");

  // Build history, select, and materialize through a sharing window.
  ASSERT_TRUE(engine.RunJob(MakeJob(1, kAsiaSql, 0.0)).ok());
  ASSERT_TRUE(engine.RunJob(MakeJob(2, kAsiaSql, 1000.0)).ok());
  SelectionResult selection = engine.RunViewSelection();
  EXPECT_GT(selection.selected.size(), 0u);

  std::vector<JobRequest> burst = {MakeJob(3, kAsiaSql, 2000.0),
                                   MakeJob(4, kAsiaSql, 2001.0)};
  auto window = engine.RunSharedWindow(burst);
  ASSERT_TRUE(window.ok()) << window.status().ToString();
  std::vector<std::string> expected = SerialOutputs(burst);
  for (size_t i = 0; i < burst.size(); ++i) {
    EXPECT_EQ(Render((*window)[i].output), expected[i]);
  }
  // The elected producer's job kept its spool (kBoth): the shared execution
  // doubled as the view writer unless the policy stripped it.
  EXPECT_GE(engine.sharing_stats().streams, 1);
}

// More producer streams than the window runs loops: the loops may all be
// busy with producers before any job starts, and since every producer is
// claimed before any job, each subscriber still finds its producer running.
TEST_F(SharingWindowTest, MoreStreamsThanWorkersServesEverySubscriber) {
  const int distinct = 2 * ThreadPool::DefaultDop() + 1;
  std::vector<JobRequest> requests;
  for (int copy = 0; copy < 2; ++copy) {
    for (int q = 0; q < distinct; ++q) {
      const std::string sql =
          "SELECT Name, Price FROM Sales JOIN Customer "
          "ON Sales.CustomerId = Customer.CustomerId WHERE SaleId < " +
          std::to_string(10 * (q + 1));
      requests.push_back(
          MakeJob(static_cast<int64_t>(requests.size()) + 1, sql,
                  100.0 + static_cast<double>(requests.size())));
    }
  }
  DatasetCatalog catalog;
  testing_util::RegisterFigure4Tables(&catalog);
  ReuseEngine engine(&catalog, EngineOptions(true));
  engine.insights().controls().enabled_vcs.insert("vc0");
  auto window = engine.RunSharedWindow(requests);
  ASSERT_TRUE(window.ok()) << window.status().ToString();

  const sharing::SharingStats& stats = engine.sharing_stats();
  EXPECT_EQ(stats.streams, distinct);
  EXPECT_EQ(stats.hits, stats.fanout);
  EXPECT_EQ(stats.detaches, 0);
  EXPECT_EQ(stats.producer_aborts, 0);
  std::vector<std::string> expected = SerialOutputs(requests);
  ASSERT_EQ(window->size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(Render((*window)[i].output), expected[i])
        << "job " << requests[i].job_id;
  }
}

// A window's jobs seal in whatever order they finish, but the seals, like
// every other view effect, apply after the join in submit order. An
// `exec.spool.seal=nth:1` fault makes the order visible: it must always
// abort the first job's view, although that job's large join finishes after
// the two shared streams' small ones have sealed theirs. (On a one-core host
// the window runs serially, and the two orders coincide.)
TEST_F(SharingWindowTest, WindowEffectsApplyInSubmitOrder) {
  DatasetCatalog catalog;
  testing_util::RegisterFigure4Tables(&catalog);
  ASSERT_TRUE(catalog
                  .Register("BigSales", testing_util::MakeSalesTable(8000),
                            "guid-big-sales-v1")
                  .ok());
  // No filter: its views, the join and the projection over it, seal as the
  // job's last operators drain.
  const std::string big_sql =
      "SELECT Name, Price FROM BigSales JOIN Customer "
      "ON BigSales.CustomerId = Customer.CustomerId";
  obs::ProvenanceLedger::Enable();
  obs::DecisionLedger::Enable();

  constexpr int kCopies = 7;
  struct Outcome {
    std::string provenance;
    std::string decisions;
    std::vector<int> views_built;
    std::vector<std::vector<Hash128>> built_signatures;
  };
  auto run_once = [&]() -> Outcome {
    ReuseEngine engine(&catalog, EngineOptions(true));
    engine.insights().controls().enabled_vcs.insert("vc0");
    for (double t : {0.0, 1000.0}) {
      EXPECT_TRUE(engine.RunJob(MakeJob(1, big_sql, t)).ok());
      EXPECT_TRUE(engine.RunJob(MakeJob(2, kAsiaSql, t + 1.0)).ok());
      EXPECT_TRUE(engine.RunJob(MakeJob(3, kEuropeSql, t + 2.0)).ok());
    }
    engine.RunViewSelection();
    auto faults = fault::FaultPlan::Parse("exec.spool.seal=nth:1");
    EXPECT_TRUE(faults.ok());
    fault::FaultInjector::Global().Arm(*faults);
    // Enough tasks (2 producers and 15 jobs) for the window to wake a
    // second loop.
    std::vector<JobRequest> burst = {MakeJob(10, big_sql, 2000.0)};
    for (const char* sql : {kAsiaSql, kEuropeSql}) {
      for (int copy = 0; copy < kCopies; ++copy) {
        burst.push_back(MakeJob(static_cast<int64_t>(burst.size()) + 10, sql,
                                2000.0 + static_cast<double>(burst.size())));
      }
    }
    auto window = engine.RunSharedWindow(burst);
    fault::FaultInjector::Global().Disarm();
    EXPECT_TRUE(window.ok()) << window.status().ToString();
    EXPECT_EQ(engine.sharing_stats().streams, 2);
    Outcome outcome;
    outcome.provenance = engine.provenance().ExportJson(/*now=*/3000.0);
    outcome.decisions = engine.decisions().ExportJson();
    if (window.ok()) {
      for (const JobExecution& exec : *window) {
        outcome.views_built.push_back(exec.views_built);
        outcome.built_signatures.push_back(exec.built_signatures);
      }
    }
    return outcome;
  };

  const Outcome first = run_once();
  // The big job and each stream's elected job (its first copy) proposed a
  // view; the fault aborted the big job's, the first seal in submit order.
  std::vector<int> expected(1 + 2 * kCopies, 0);
  expected[1] = 1;
  expected[1 + kCopies] = 1;
  EXPECT_EQ(first.views_built, expected);
  ASSERT_EQ(first.built_signatures.size(), expected.size());
  EXPECT_EQ(first.built_signatures[0].size(), 1u);
  for (int run = 1; run < 20; ++run) {
    const Outcome again = run_once();
    EXPECT_EQ(again.provenance, first.provenance) << "run " << run;
    EXPECT_EQ(again.decisions, first.decisions) << "run " << run;
    EXPECT_EQ(again.views_built, first.views_built) << "run " << run;
    EXPECT_EQ(again.built_signatures, first.built_signatures)
        << "run " << run;
    if (HasFailure()) break;
  }
}

// A failed window withdraws the materializations of its jobs that did not
// complete. Creation locks never expire, so a leaked lock would keep every
// later job of the engine from building the view.
TEST_F(SharingWindowTest, FailedWindowReleasesCreationLocks) {
  DatasetCatalog catalog;
  testing_util::RegisterFigure4Tables(&catalog);
  ASSERT_TRUE(catalog
                  .Register("Stale", testing_util::MakeCustomerTable(),
                            "guid-stale-v1")
                  .ok());
  PlanBuilder builder(&catalog);
  auto stale_plan = builder.BuildFromSql("SELECT Name FROM Stale");
  ASSERT_TRUE(stale_plan.ok()) << stale_plan.status().ToString();
  // The plan pins v1; the catalog now serves v2, so the job fails to run.
  ASSERT_TRUE(catalog
                  .BulkUpdate("Stale", testing_util::MakeCustomerTable(),
                              "guid-stale-v2")
                  .ok());
  JobRequest stale;
  stale.job_id = 99;
  stale.virtual_cluster = "vc0";
  stale.plan = *stale_plan;
  stale.submit_time = 2500.0;

  // The job holding the lock is prepared before a job that fails to bind,
  // and queued behind a job that fails to run.
  const std::vector<std::vector<JobRequest>> failing = {
      {MakeJob(3, kAsiaSql, 2000.0), MakeJob(4, "SELECT Name FROM Missing",
                                             2001.0)},
      {stale, MakeJob(5, kAsiaSql, 2600.0)}};
  for (const std::vector<JobRequest>& requests : failing) {
    ReuseEngine engine(&catalog, EngineOptions(true));
    engine.insights().controls().enabled_vcs.insert("vc0");
    ASSERT_TRUE(engine.RunJob(MakeJob(1, kAsiaSql, 0.0)).ok());
    ASSERT_TRUE(engine.RunJob(MakeJob(2, kAsiaSql, 1000.0)).ok());
    ASSERT_GT(engine.RunViewSelection().selected.size(), 0u);

    auto window = engine.RunSharedWindow(requests);
    EXPECT_FALSE(window.ok());
    EXPECT_EQ(engine.insights().num_locks_held(), 0u);
    auto later = engine.RunJob(MakeJob(6, kAsiaSql, 3000.0));
    ASSERT_TRUE(later.ok()) << later.status().ToString();
    EXPECT_GT(later->views_built, 0);
  }
}

}  // namespace
}  // namespace cloudviews
