// Concurrency suite: executors running on several threads at once — jobs
// reading one shared view or a freshly registered dataset, readers racing a
// quarantine, jobs racing to seal one spool — must each produce what a lone
// run produces. CI runs it under ThreadSanitizer.

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

  Result<ExecResult> Run(const LogicalOpPtr& plan) {
    ExecContext context;
    context.catalog = &catalog_;
    context.job_seed = 42;
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

  // Runs `plan` on kReaders threads at once, alternating the row and columnar
  // engines, and expects every reader to render `expected`.
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

TEST_F(ParallelExecTest, TracingDoesNotChangeOutput) {
  // A run with the tracer enabled must be byte-identical to the untraced
  // run: observability never mutates engine state.
  LogicalOpPtr plan = Plan(
      "SELECT Name, Price FROM Sales JOIN Customer "
      "ON Sales.CustomerId = Customer.CustomerId WHERE Price > 11");
  ASSERT_NE(plan, nullptr);
  auto untraced = Run(plan);
  ASSERT_TRUE(untraced.ok()) << untraced.status().ToString();

  obs::Tracer& tracer = obs::Tracer::Global();
  tracer.Enable();
  auto traced = Run(plan);
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
  // while columnar readers share its columns, all at once. Run under TSan,
  // this is the data-race canary for the shared-table path.
  LogicalOpPtr source = Plan(
      "SELECT SaleId, CustomerId, Price * Quantity, Discount FROM Sales "
      "WHERE SaleId % 7 != 0");
  ASSERT_NE(source, nullptr);
  auto produced = Run(source);
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

  auto expected_run = Run(source);
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
  auto produced = Run(source);
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

  auto expected = Run(PlanNormalizer::Normalize(base));
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
      // Each job executes its own clone of the spooled plan on a pool
      // thread, as the jobs of a sharing window do.
      LogicalOpPtr plan = normalized->Clone();
      ExecContext context;
      context.catalog = &catalog_;
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

}  // namespace
}  // namespace cloudviews
