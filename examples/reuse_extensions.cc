// Tour of the section-5 extensions: the "other applications of reuse" the
// paper sketches as future work, implemented on top of the same signature
// and materialization machinery.
//
//   1. checkpoint/restart via reuse               — section 5.6
//   2. sampled views for approximate queries      — section 5.6
//   3. bit-vector (Bloom) semi-join filters       — section 5.6
//
// Generalized (containment-based) views, section 5.3, run inside the reuse
// optimizer; see bench/fig8_generalized_reuse. Work sharing across
// concurrent jobs, section 5.4, runs inside ReuseEngine::RunSharedWindow;
// see examples/production_simulation --sharing.
//
// Build & run:  ./build/examples/reuse_extensions

#include <cstdio>

#include "exec/executor.h"
#include "extensions/bitvector_filter.h"
#include "extensions/checkpointing.h"
#include "extensions/sampled_views.h"
#include "obs/log.h"
#include "plan/builder.h"
#include "plan/normalizer.h"
#include "tests/test_util.h"

namespace {

using namespace cloudviews;  // NOLINT: example brevity

LogicalOpPtr Build(const DatasetCatalog& catalog, const std::string& sql) {
  PlanBuilder builder(&catalog);
  auto plan = builder.BuildFromSql(sql);
  if (!plan.ok()) {
    obs::LogError("reuse_extensions", "build_failed",
                  {{"error", plan.status().ToString()}});
    std::exit(1);
  }
  return PlanNormalizer::Normalize(*plan);
}

ExecResult Execute(const DatasetCatalog& catalog, const LogicalOpPtr& plan) {
  ExecContext context;
  context.catalog = &catalog;
  Executor executor(context);
  auto result = executor.Execute(plan);
  if (!result.ok()) {
    obs::LogError("reuse_extensions", "exec_failed",
                  {{"error", result.status().ToString()}});
    std::exit(1);
  }
  return std::move(result).value();
}

}  // namespace

int main() {
  DatasetCatalog catalog;
  testing_util::RegisterFigure4Tables(&catalog);

  // --- 1. Checkpoint/restart -------------------------------------------------
  std::printf("1) checkpoint/restart via reuse\n");
  CheckpointManager checkpoints(&catalog);
  LogicalOpPtr job = checkpoints.PlanWithCheckpoints(Build(
      catalog,
      "SELECT Name, COUNT(*) FROM Sales JOIN Customer "
      "ON Sales.CustomerId = Customer.CustomerId GROUP BY Name"));
  auto attempt1 = checkpoints.Execute(job, /*fail_after_checkpoints=*/1);
  auto attempt2 = checkpoints.Execute(job);
  std::printf("   attempt 1: failed after %d checkpoint(s) sealed\n",
              attempt1->checkpoints_written);
  std::printf("   attempt 2: restored %d checkpoint(s), finished with %zu "
              "rows, reading %llu base rows (cold run reads 600)\n\n",
              attempt2->checkpoints_restored, attempt2->output->num_rows(),
              static_cast<unsigned long long>(attempt2->stats.input_rows));

  // --- 2. Sampled views ------------------------------------------------------
  std::printf("2) sampled views for approximate answers\n");
  auto sales = catalog.Lookup("Sales");
  auto sample = SampleView(*sales->table, 0.1);
  ApproximateAggregate approx{0.1};
  std::printf("   10%% sample of Sales: %zu rows; estimated COUNT(*) = %.0f "
              "(true: %zu)\n\n",
              (*sample)->num_rows(),
              approx.EstimateCount((*sample)->num_rows()),
              sales->table->num_rows());

  // --- 3. Bit-vector filters -------------------------------------------------
  std::printf("3) reusable bit-vector (Bloom) semi-join filters\n");
  LogicalOpPtr asia = Build(
      catalog, "SELECT CustomerId FROM Customer WHERE MktSegment = 'Asia'");
  ExecResult asia_run = Execute(catalog, asia);
  BitVectorFilterStore filters;
  SignatureComputer signatures;
  Hash128 build_sig = signatures.Compute(*asia).strict;
  filters.Register(build_sig, *asia_run.output, {0}).ok();
  TablePtr reduced;
  auto eliminated =
      SemiJoinReduce(*filters.Find(build_sig), *sales->table, {1}, &reduced);
  std::printf("   filter built from %zu Asia customers eliminates %lld of "
              "%zu Sales rows before the join (%.0f%% reduction, %zu bytes "
              "of filter)\n",
              asia_run.output->num_rows(), static_cast<long long>(*eliminated),
              sales->table->num_rows(),
              100.0 * static_cast<double>(*eliminated) /
                  static_cast<double>(sales->table->num_rows()),
              filters.TotalBytes());
  return 0;
}
