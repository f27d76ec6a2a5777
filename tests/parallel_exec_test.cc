// DOP-invariance suite: every plan shape the executor parallelizes must
// produce byte-identical output at any degree of parallelism. Each test
// runs the same plan serially (dop=1) and at several parallel settings
// with a small morsel size (so even the 100/500-row test tables split into
// many morsels) and compares outputs cell by cell.

#include <atomic>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/hash.h"
#include "common/thread_pool.h"
#include "exec/executor.h"
#include "fault/fault.h"
#include "obs/trace.h"
#include "plan/builder.h"
#include "plan/normalizer.h"
#include "plan/signature.h"
#include "storage/view_store.h"
#include "tests/test_util.h"
#include "workload/generator.h"

namespace cloudviews {
namespace {

class ParallelExecTest : public ::testing::Test {
 protected:
  void SetUp() override { testing_util::RegisterFigure4Tables(&catalog_); }

  Result<ExecResult> Run(const LogicalOpPtr& plan, int dop,
                         size_t morsel_rows) {
    ExecContext context;
    context.catalog = &catalog_;
    context.job_seed = 42;
    context.dop = dop;
    context.morsel_rows = morsel_rows;
    Executor executor(context);
    return executor.Execute(plan);
  }

  LogicalOpPtr Plan(const std::string& sql) {
    PlanBuilder builder(&catalog_);
    auto plan = builder.BuildFromSql(sql);
    EXPECT_TRUE(plan.ok()) << plan.status().ToString();
    return plan.ok() ? std::move(*plan) : nullptr;
  }

  // Renders a table to one string per row; any cell difference (value,
  // type, null-ness, order) shows up in the comparison.
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

  // Runs `plan` at dop=1 and at {2, 4} x morsel sizes {7, 64}, asserting
  // byte-identical outputs and consistent row accounting everywhere.
  void ExpectDopInvariant(const LogicalOpPtr& plan) {
    ASSERT_NE(plan, nullptr);
    auto serial = Run(plan, /*dop=*/1, /*morsel_rows=*/4096);
    ASSERT_TRUE(serial.ok()) << serial.status().ToString();
    EXPECT_EQ(serial->stats.dop, 1);
    std::vector<std::string> expected = Render(serial->output);

    for (int dop : {2, 4}) {
      for (size_t morsel_rows : {size_t{7}, size_t{64}}) {
        auto parallel = Run(plan, dop, morsel_rows);
        ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
        std::vector<std::string> got = Render(parallel->output);
        ASSERT_EQ(got.size(), expected.size())
            << "dop=" << dop << " morsel_rows=" << morsel_rows;
        for (size_t i = 0; i < expected.size(); ++i) {
          ASSERT_EQ(got[i], expected[i])
              << "row " << i << " dop=" << dop
              << " morsel_rows=" << morsel_rows;
        }
        EXPECT_EQ(parallel->stats.dop, dop);
        EXPECT_EQ(parallel->stats.input_rows, serial->stats.input_rows);
        EXPECT_EQ(parallel->stats.input_bytes, serial->stats.input_bytes);
        EXPECT_EQ(parallel->stats.num_operators,
                  serial->stats.num_operators);
        // Cost totals accumulate in a different order but must agree to
        // floating-point rounding.
        EXPECT_NEAR(parallel->stats.total_cpu_cost,
                    serial->stats.total_cpu_cost,
                    1e-6 * (1.0 + serial->stats.total_cpu_cost));
        // Parallel runs over >1 morsel record morsel telemetry.
        if (serial->stats.input_rows > morsel_rows) {
          EXPECT_GT(parallel->stats.morsels, 1u)
              << "dop=" << dop << " morsel_rows=" << morsel_rows;
        }
      }
    }
  }

  // Runs `plan` on kReaders threads at once, alternating the row and columnar
  // engines (columnar readers at DOP 4, in parallel morsels), and expects
  // every reader to render `expected`.
  void ExpectConcurrentReadersAgree(const DatasetCatalog& catalog,
                                    ViewStore* store, const LogicalOpPtr& plan,
                                    const std::vector<std::string>& expected) {
    constexpr int kReaders = 8;
    std::vector<std::vector<std::string>> outputs(kReaders);
    std::vector<std::string> errors(kReaders);
    std::vector<std::thread> readers;
    readers.reserve(kReaders);
    for (int i = 0; i < kReaders; ++i) {
      readers.emplace_back([&, i] {
        ExecContext context;
        context.catalog = &catalog;
        context.view_store = store;
        context.now = 100.0;
        context.dop = 4;
        context.morsel_rows = 7;
        context.engine =
            (i % 2 == 0) ? ExecEngine::kColumnar : ExecEngine::kRow;
        context.batch_rows = (i % 3 == 0) ? 3 : 64;
        Executor executor(context);
        auto r = executor.Execute(plan);
        if (!r.ok()) {
          errors[i] = r.status().ToString();
          return;
        }
        outputs[i] = Render(r->output);
      });
    }
    for (std::thread& t : readers) t.join();
    for (int i = 0; i < kReaders; ++i) {
      ASSERT_TRUE(errors[i].empty()) << "reader " << i << ": " << errors[i];
      ASSERT_EQ(outputs[i].size(), expected.size()) << "reader " << i;
      for (size_t row = 0; row < expected.size(); ++row) {
        ASSERT_EQ(outputs[i][row], expected[row])
            << "reader " << i << " row " << row;
      }
    }
  }

  DatasetCatalog catalog_;
};

TEST_F(ParallelExecTest, ScanFilterProjectChain) {
  ExpectDopInvariant(Plan(
      "SELECT SaleId, Price * Quantity FROM Sales "
      "WHERE Discount < 0.05 AND PartId IN (1, 3, 5, 7)"));
}

TEST_F(ParallelExecTest, BareScan) {
  ExpectDopInvariant(Plan("SELECT CustomerId, Name FROM Customer"));
}

TEST_F(ParallelExecTest, HashJoinDuplicateBuildKeys) {
  // Sales on the build side has 5 rows per CustomerId: duplicate-key
  // iteration order inside the partitioned hash table must match the
  // monolithic serial table.
  ExpectDopInvariant(Plan(
      "SELECT Name, Price FROM Customer JOIN Sales "
      "ON Customer.CustomerId = Sales.CustomerId"));
}

TEST_F(ParallelExecTest, HashJoinWithFilterBothSides) {
  ExpectDopInvariant(Plan(
      "SELECT Name, Price, Quantity FROM Sales JOIN Customer "
      "ON Sales.CustomerId = Customer.CustomerId "
      "WHERE MktSegment = 'Asia' AND Price > 11"));
}

TEST_F(ParallelExecTest, LeftOuterJoin) {
  ExpectDopInvariant(Plan(
      "SELECT Customer.CustomerId, Price FROM Customer LEFT JOIN Sales "
      "ON Customer.CustomerId = Sales.CustomerId"));
}

TEST_F(ParallelExecTest, GroupByAggregates) {
  ExpectDopInvariant(Plan(
      "SELECT MktSegment, COUNT(*), SUM(CustomerId), MIN(Name), "
      "MAX(CustomerId) FROM Customer GROUP BY MktSegment "
      "ORDER BY MktSegment"));
}

TEST_F(ParallelExecTest, FloatingPointAvgExactlyEqual) {
  // AVG over doubles is the acid test: the parallel aggregation must
  // accumulate each group's values in global input order, or the sums
  // drift in the last ulp and the rendered doubles differ.
  ExpectDopInvariant(Plan(
      "SELECT PartId, AVG(Price * Quantity * (1.0 - Discount)), "
      "SUM(Discount) FROM Sales GROUP BY PartId ORDER BY PartId"));
}

TEST_F(ParallelExecTest, ScalarAggregateNoGroupBy) {
  ExpectDopInvariant(Plan(
      "SELECT COUNT(*), AVG(Price), COUNT(DISTINCT PartId) FROM Sales"));
}

TEST_F(ParallelExecTest, GroupByManyGroups) {
  // 100 groups over 500 rows: more groups than morsels, so one group's
  // rows span many morsels of key hashing.
  ExpectDopInvariant(Plan(
      "SELECT CustomerId, SUM(Price), COUNT(*) FROM Sales "
      "GROUP BY CustomerId ORDER BY CustomerId"));
}

TEST_F(ParallelExecTest, SortAndLimit) {
  ExpectDopInvariant(Plan(
      "SELECT SaleId, Price FROM Sales WHERE Quantity > 2 "
      "ORDER BY Price DESC, SaleId LIMIT 25"));
}

TEST_F(ParallelExecTest, JoinAggregateEndToEnd) {
  ExpectDopInvariant(Plan(
      "SELECT Customer.CustomerId, AVG(Price * Quantity) FROM Sales "
      "JOIN Customer ON Sales.CustomerId = Customer.CustomerId "
      "WHERE MktSegment = 'Asia' GROUP BY Customer.CustomerId"));
}

TEST_F(ParallelExecTest, UnionAll) {
  ExpectDopInvariant(Plan(
      "SELECT CustomerId FROM Customer UNION ALL "
      "SELECT PartId FROM Parts"));
}

TEST_F(ParallelExecTest, DeterministicUdoFusedIntoPipeline) {
  PlanBuilder builder(&catalog_);
  auto base = builder.BuildFromSql("SELECT Name FROM Customer");
  ASSERT_TRUE(base.ok());
  LogicalOpPtr udo = LogicalOp::Udo((*base)->children[0], "MyExtractor",
                                    /*deterministic=*/true, 2,
                                    /*selectivity=*/0.5);
  ExpectDopInvariant(udo);
}

TEST_F(ParallelExecTest, NonDeterministicUdoSeededPerJob) {
  // Non-deterministic UDOs draw from the job seed, not from thread timing:
  // with the same seed every dop must still agree row for row.
  PlanBuilder builder(&catalog_);
  auto base = builder.BuildFromSql("SELECT Name FROM Customer");
  ASSERT_TRUE(base.ok());
  LogicalOpPtr udo = LogicalOp::Udo((*base)->children[0], "Random.Next",
                                    /*deterministic=*/false, 2,
                                    /*selectivity=*/0.5);
  ExpectDopInvariant(udo);
}

TEST_F(ParallelExecTest, PerNodeStatsMatchSerial) {
  LogicalOpPtr plan = Plan(
      "SELECT Name, Price FROM Sales JOIN Customer "
      "ON Sales.CustomerId = Customer.CustomerId "
      "WHERE MktSegment = 'Europe'");
  ASSERT_NE(plan, nullptr);
  auto serial = Run(plan, 1, 4096);
  auto parallel = Run(plan, 4, 32);
  ASSERT_TRUE(serial.ok());
  ASSERT_TRUE(parallel.ok());
  ASSERT_EQ(serial->stats.per_node.size(), parallel->stats.per_node.size());
  for (const auto& [node, stats] : serial->stats.per_node) {
    auto it = parallel->stats.per_node.find(node);
    ASSERT_NE(it, parallel->stats.per_node.end());
    EXPECT_EQ(it->second.rows_out, stats.rows_out);
    EXPECT_EQ(it->second.bytes_out, stats.bytes_out);
    EXPECT_NEAR(it->second.cpu_cost, stats.cpu_cost,
                1e-6 * (1.0 + stats.cpu_cost));
  }
  EXPECT_GT(parallel->stats.morsel_busy_seconds, 0.0);
  EXPECT_GT(parallel->stats.wall_seconds, 0.0);
}

TEST_F(ParallelExecTest, ExplicitPoolIsUsed) {
  ThreadPool pool(3);
  LogicalOpPtr plan = Plan("SELECT SaleId FROM Sales WHERE Price > 12");
  ASSERT_NE(plan, nullptr);
  ExecContext context;
  context.catalog = &catalog_;
  context.dop = 3;
  context.morsel_rows = 16;
  context.pool = &pool;
  Executor executor(context);
  auto r = executor.Execute(plan);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->stats.dop, 3);
  EXPECT_GT(r->stats.morsels, 1u);
}

TEST_F(ParallelExecTest, TracerSpansAgreeWithMorselTelemetry) {
  // With the tracer on, every TimedParallelFor morsel records one "morsel"
  // span reusing the telemetry's measured interval: the span count must
  // equal stats.morsels and the span durations must sum to
  // morsel_busy_seconds (each span rounds to whole microseconds).
  LogicalOpPtr plan = Plan(
      "SELECT Customer.CustomerId, AVG(Price * Quantity) FROM Sales "
      "JOIN Customer ON Sales.CustomerId = Customer.CustomerId "
      "WHERE MktSegment = 'Asia' GROUP BY Customer.CustomerId");
  ASSERT_NE(plan, nullptr);

  obs::Tracer& tracer = obs::Tracer::Global();
  tracer.Enable();
  tracer.Clear();
  auto r = Run(plan, /*dop=*/4, /*morsel_rows=*/16);
  std::vector<obs::TraceEvent> events = tracer.Collect();
  tracer.Disable();
  tracer.Clear();
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_GT(r->stats.morsels, 1u);

  uint64_t morsel_spans = 0;
  uint64_t total_dur_us = 0;
  for (const obs::TraceEvent& event : events) {
    if (event.name == "morsel") {
      morsel_spans += 1;
      total_dur_us += event.dur_us;
    }
  }
  EXPECT_EQ(morsel_spans, r->stats.morsels);
  // Each span's duration is the telemetry's busy interval rounded to whole
  // microseconds, so the sums agree within 1us per morsel.
  EXPECT_NEAR(static_cast<double>(total_dur_us) * 1e-6,
              r->stats.morsel_busy_seconds,
              1e-6 * static_cast<double>(r->stats.morsels) + 1e-9);
}

TEST_F(ParallelExecTest, TracingDoesNotChangeOutput) {
  // dop=1 with the tracer enabled must be byte-identical to the untraced
  // run: observability never mutates engine state.
  LogicalOpPtr plan = Plan(
      "SELECT Name, Price FROM Sales JOIN Customer "
      "ON Sales.CustomerId = Customer.CustomerId WHERE Price > 11");
  ASSERT_NE(plan, nullptr);
  auto untraced = Run(plan, /*dop=*/1, /*morsel_rows=*/4096);
  ASSERT_TRUE(untraced.ok()) << untraced.status().ToString();

  obs::Tracer& tracer = obs::Tracer::Global();
  tracer.Enable();
  auto traced = Run(plan, /*dop=*/1, /*morsel_rows=*/4096);
  tracer.Disable();
  tracer.Clear();
  ASSERT_TRUE(traced.ok()) << traced.status().ToString();

  std::vector<std::string> expected = Render(untraced->output);
  std::vector<std::string> got = Render(traced->output);
  ASSERT_EQ(got.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    ASSERT_EQ(got[i], expected[i]) << "row " << i;
  }
}

TEST_F(ParallelExecTest, ConcurrentScansOfSharedSpooledView) {
  // A sealed view's table is shared, read-only, by every job that reuses
  // it. Row-engine readers build their rows through the table's row adapter
  // while columnar readers share its columns in parallel morsels, all at
  // once. Run under TSan, this is the data-race canary for the shared-table
  // path.
  LogicalOpPtr source = Plan(
      "SELECT SaleId, CustomerId, Price * Quantity, Discount FROM Sales "
      "WHERE SaleId % 7 != 0");
  ASSERT_NE(source, nullptr);
  auto produced = Run(source, /*dop=*/4, /*morsel_rows=*/16);
  ASSERT_TRUE(produced.ok()) << produced.status().ToString();

  ViewStore store;
  Hash128 sig = HashString("concurrent-spool-scan");
  ASSERT_TRUE(store.BeginMaterialize(sig, sig, "vc0", 1, 50.0).ok());
  ASSERT_TRUE(store
                  .Seal(sig, produced->output, produced->output->num_rows(),
                        produced->output->byte_size(), 60.0)
                  .ok());

  // Footer validation mutates the entry on first read (ViewStore is not a
  // concurrent-writer structure); perform it serially before the race.
  ASSERT_NE(store.Find(sig, 100.0), nullptr);

  auto expected_run = Run(source, /*dop=*/1, /*morsel_rows=*/4096);
  ASSERT_TRUE(expected_run.ok());
  LogicalOpPtr view_scan =
      LogicalOp::ViewScan(sig, "views/concurrent", produced->output->schema());
  ExpectConcurrentReadersAgree(catalog_, &store, view_scan,
                               Render(expected_run->output));
  EXPECT_EQ(store.FindAny(sig)->reuse_count, 0);
}

TEST_F(ParallelExecTest, ConcurrentFirstScansOfFreshDataset) {
  // A generated dataset is registered and then scanned for the first time
  // by several jobs at once, which is what a daily bulk regeneration does.
  // Its first read builds nothing, so under TSan the racing first scans
  // only read the columns.
  WorkloadProfile profile;
  profile.num_shared_datasets = 1;
  profile.min_rows = 300;
  profile.max_rows = 300;
  const std::string sql =
      "SELECT id, dim1, metric1 FROM cluster1_ds0 WHERE dim2 < 60";

  // The expected rendering comes from an identical dataset in another
  // catalog, so the shared one's first scans are the racing ones.
  DatasetCatalog reference;
  ASSERT_TRUE(WorkloadGenerator(profile).Setup(&reference).ok());
  PlanBuilder reference_builder(&reference);
  auto reference_plan = reference_builder.BuildFromSql(sql);
  ASSERT_TRUE(reference_plan.ok()) << reference_plan.status().ToString();
  ExecContext serial;
  serial.catalog = &reference;
  serial.dop = 1;
  auto expected_run = Executor(serial).Execute(*reference_plan);
  ASSERT_TRUE(expected_run.ok()) << expected_run.status().ToString();
  ASSERT_GT(expected_run->output->num_rows(), 0u);

  DatasetCatalog fresh;
  ASSERT_TRUE(WorkloadGenerator(profile).Setup(&fresh).ok());
  PlanBuilder builder(&fresh);
  auto plan = builder.BuildFromSql(sql);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  ViewStore store;
  ExpectConcurrentReadersAgree(fresh, &store, *plan,
                               Render(expected_run->output));
}

TEST_F(ParallelExecTest, ConcurrentScansRaceQuarantineOfOneView) {
  // The jobs of a sharing window scan one view concurrently while injected
  // read faults quarantine it (which resets the entry's table) and readers
  // that missed re-seal it. A reader must copy the table under the store's
  // lock: it gets either the whole table or a miss. Run under TSan, this is
  // the canary for reads that race a quarantine.
  LogicalOpPtr source = Plan("SELECT SaleId, Price, Quantity FROM Sales");
  ASSERT_NE(source, nullptr);
  auto produced = Run(source, /*dop=*/1, /*morsel_rows=*/4096);
  ASSERT_TRUE(produced.ok()) << produced.status().ToString();
  const TablePtr contents = produced->output;
  const Hash128 checksum = ComputeTableChecksum(*contents);

  ViewStore store;
  const Hash128 sig = HashString("quarantine-race");
  auto reseal = [&] {
    // Either call may lose to another reader's reseal; both are no-ops then.
    store.BeginMaterialize(sig, sig, "vc0", 1, 50.0).ok();
    store.Seal(sig, contents, contents->num_rows(), contents->byte_size(), 60.0)
        .ok();
  };
  reseal();

  auto faults = fault::FaultPlan::Parse("storage.view.read=p:0.3:corruption");
  ASSERT_TRUE(faults.ok()) << faults.status().ToString();
  fault::FaultInjector::Global().Arm(*faults);

  LogicalOpPtr view_scan =
      LogicalOp::ViewScan(sig, "views/quarantine", contents->schema());
  constexpr int kReaders = 8;
  constexpr int kReads = 40;
  std::atomic<int> hits{0};
  std::atomic<int> misses{0};
  std::vector<std::string> errors(kReaders);
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int i = 0; i < kReaders; ++i) {
    readers.emplace_back([&, i] {
      ExecContext context;
      context.catalog = &catalog_;
      context.view_store = &store;
      context.now = 100.0;
      context.dop = 1;
      context.engine = (i % 2 == 0) ? ExecEngine::kColumnar : ExecEngine::kRow;
      for (int read = 0; read < kReads && errors[i].empty(); ++read) {
        auto r = Executor(context).Execute(view_scan);
        if (r.ok()) {
          if (ComputeTableChecksum(*r->output) != checksum) {
            errors[i] = "read " + std::to_string(read) + " got a torn table";
          }
          hits.fetch_add(1);
        } else if (r.status().code() == StatusCode::kAborted) {
          misses.fetch_add(1);
          reseal();
        } else {
          errors[i] = r.status().ToString();
        }
      }
    });
  }
  for (std::thread& t : readers) t.join();
  fault::FaultInjector::Global().Disarm();
  for (int i = 0; i < kReaders; ++i) {
    EXPECT_TRUE(errors[i].empty()) << "reader " << i << ": " << errors[i];
  }
  // Both outcomes happened, so reads really raced quarantines.
  EXPECT_GT(hits.load(), 0);
  EXPECT_GT(misses.load(), 0);
  EXPECT_GT(store.total_views_quarantined(), 0);
}

TEST_F(ParallelExecTest, SpoolSealsExactlyOnceUnderConcurrency) {
  // Eight executors race to materialize the same spooled subexpression.
  // Every spool operator must fire its completion callback exactly once
  // (the atomic early-sealing latch), and a shared first-wins registry —
  // the pattern checkpointing and the view store use — must end up with
  // exactly one sealed copy per signature.
  constexpr int kJobs = 8;

  LogicalOpPtr base = Plan(
      "SELECT Customer.CustomerId, AVG(Price * Quantity) FROM Sales "
      "JOIN Customer ON Sales.CustomerId = Customer.CustomerId "
      "WHERE MktSegment = 'Asia' GROUP BY Customer.CustomerId");
  ASSERT_NE(base, nullptr);
  LogicalOpPtr normalized = PlanNormalizer::Normalize(base);

  // Spool the filtered-join subtree beneath the aggregate, exactly as the
  // view materializer would.
  ASSERT_FALSE(normalized->children.empty());
  LogicalOpPtr* target = &normalized->children[0];
  while (!(*target)->children.empty() &&
         (*target)->kind != LogicalOpKind::kJoin) {
    target = &(*target)->children[0];
  }
  SignatureComputer computer;
  NodeSignature sig = computer.Compute(**target);
  LogicalOpPtr spool = LogicalOp::Spool(*target);
  spool->view_signature = sig.strict;
  spool->view_recurring_signature = sig.recurring;
  *target = std::move(spool);

  auto expected = Run(PlanNormalizer::Normalize(base), /*dop=*/1,
                      /*morsel_rows=*/4096);
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();

  // Shared sealing registry: first writer wins, later completions of the
  // same signature are counted but must not replace the sealed contents.
  std::mutex registry_mu;
  std::map<Hash128, TablePtr> registry;
  std::atomic<int> total_completions{0};
  std::atomic<int> seal_wins{0};
  std::vector<std::atomic<int>> per_job_completions(kJobs);
  for (auto& c : per_job_completions) c.store(0);

  ThreadPool pool(4);
  std::vector<TablePtr> outputs(kJobs);
  TaskGroup group(&pool);
  for (int job = 0; job < kJobs; ++job) {
    group.Spawn([&, job]() -> Status {
      // Each job executes its own clone of the spooled plan, morsel-parallel
      // on the same pool the jobs themselves run on (nested parallelism).
      LogicalOpPtr plan = normalized->Clone();
      ExecContext context;
      context.catalog = &catalog_;
      context.dop = 2;
      context.morsel_rows = 16;
      context.pool = &pool;
      context.on_spool_complete = [&, job](const LogicalOp& node,
                                           TablePtr contents,
                                           const OperatorStats& stats) {
        EXPECT_EQ(node.kind, LogicalOpKind::kSpool);
        EXPECT_EQ(stats.rows_out, contents->num_rows());
        total_completions.fetch_add(1, std::memory_order_relaxed);
        per_job_completions[job].fetch_add(1, std::memory_order_relaxed);
        std::lock_guard<std::mutex> lock(registry_mu);
        auto [it, inserted] =
            registry.emplace(node.view_signature, std::move(contents));
        if (inserted) seal_wins.fetch_add(1, std::memory_order_relaxed);
      };
      Executor executor(context);
      auto r = executor.Execute(plan);
      if (!r.ok()) return r.status();
      outputs[job] = r->output;
      return Status::OK();
    });
  }
  ASSERT_TRUE(group.Wait().ok());

  // One completion per spool instance, no double-fires, no lost seals.
  EXPECT_EQ(total_completions.load(), kJobs);
  for (int job = 0; job < kJobs; ++job) {
    EXPECT_EQ(per_job_completions[job].load(), 1) << "job " << job;
  }
  // All jobs spooled the same signature: exactly one registry entry won.
  EXPECT_EQ(seal_wins.load(), 1);
  ASSERT_EQ(registry.size(), 1u);
  const TablePtr& sealed = registry.begin()->second;
  ASSERT_NE(sealed, nullptr);
  EXPECT_GT(sealed->num_rows(), 0u);

  // Concurrency changed nothing about the answers.
  for (int job = 0; job < kJobs; ++job) {
    ASSERT_NE(outputs[job], nullptr) << "job " << job;
    EXPECT_EQ(outputs[job]->num_rows(), expected->output->num_rows())
        << "job " << job;
  }
}

TEST_F(ParallelExecTest, ErrorsPropagateFromParallelMorsels) {
  // Stale GUID is detected at bind time regardless of dop.
  PlanBuilder builder(&catalog_);
  auto plan = builder.BuildFromSql("SELECT Name FROM Customer");
  ASSERT_TRUE(plan.ok());
  ASSERT_TRUE(catalog_
                  .BulkUpdate("Customer", testing_util::MakeCustomerTable(),
                              "guid-customer-v2")
                  .ok());
  auto r = Run(*plan, /*dop=*/4, /*morsel_rows=*/8);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kAborted);
}

}  // namespace
}  // namespace cloudviews
