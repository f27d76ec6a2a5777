// Data cooking (paper section 2, Figure 1): raw telemetry is ingested,
// extracted, transformed, and correlated into shared datasets, which
// thousands of downstream consumers then analyze. Computation reuse
// "augments" the cooking process: the shared datasets get fine-tuned with
// automatically discovered reusable views, created just in time from the
// workload itself.
//
// This example builds a miniature cooking pipeline:
//   raw_events  --extract-->  cooked_events    (shared dataset, daily)
//   raw_metrics --extract-->  cooked_metrics   (shared dataset, daily)
// then runs several downstream "team" reports over the cooked data for two
// simulated days, showing views being created, reused, and invalidated by
// the daily bulk update.
//
// Build & run:  ./build/examples/data_cooking

#include <cstdio>
#include <memory>

#include "common/random.h"
#include "common/sim_clock.h"
#include "core/reuse_engine.h"
#include "exec/executor.h"
#include "obs/log.h"
#include "plan/builder.h"

namespace {

using namespace cloudviews;  // NOLINT: example brevity

// Raw telemetry: wide, messy, one row per event.
TablePtr MakeRawEvents(int day, int n) {
  Schema schema({{"event_id", DataType::kInt64},
                 {"user_id", DataType::kInt64},
                 {"product", DataType::kString},
                 {"action", DataType::kString},
                 {"duration_ms", DataType::kInt64},
                 {"build", DataType::kString}});
  auto table = std::make_shared<Table>("raw_events", schema);
  Random rng(1000 + static_cast<uint64_t>(day));
  const char* products[] = {"search", "mail", "games", "office"};
  const char* actions[] = {"open", "click", "close", "error"};
  for (int i = 0; i < n; ++i) {
    table->Append({Value(static_cast<int64_t>(i)),
                   Value(static_cast<int64_t>(rng.Uniform(500))),
                   Value(products[rng.Uniform(4)]),
                   Value(actions[rng.Uniform(4)]),
                   Value(rng.UniformRange(1, 5000)),
                   Value("build" + std::to_string(rng.Uniform(3)))})
        .ok();
  }
  return table;
}

// The "cooking" job: extract + transform raw events into a consumable shape.
// (In Cosmos this is itself a SCOPE job; here we run it through the same
// executor and install the result as a versioned shared dataset.)
TablePtr CookEvents(const DatasetCatalog& catalog) {
  PlanBuilder builder(&catalog);
  auto plan = builder.BuildFromSql(
      "SELECT product, action, user_id, duration_ms FROM raw_events "
      "WHERE action <> 'error' AND duration_ms < 4500");
  ExecContext context;
  context.catalog = &catalog;
  Executor executor(context);
  auto result = executor.Execute(*plan);
  const Table& output = *result->output;
  ColumnBatch batch;
  batch.num_rows = output.num_rows();
  for (size_t c = 0; c < output.num_columns(); ++c) {
    batch.columns.push_back(output.column(c));
  }
  auto cooked = std::make_shared<Table>("cooked_events",
                                        (*plan)->output_schema);
  cooked->AppendBatch(batch).ok();
  return cooked;
}

}  // namespace

int main() {
  std::printf("Data cooking + computation reuse\n\n");

  DatasetCatalog catalog;
  Random guid_rng(7);

  // Day 0 ingestion + cooking.
  catalog.Register("raw_events", MakeRawEvents(0, 4000), guid_rng.Guid()).ok();
  catalog.Register("cooked_events", CookEvents(catalog), guid_rng.Guid()).ok();
  std::printf("cooked_events v1: %zu rows (from 4000 raw)\n\n",
              catalog.Lookup("cooked_events")->table->num_rows());

  ReuseEngineOptions options;
  options.selection.min_occurrences = 2;
  options.selection.schedule_aware = false;
  options.selection.per_virtual_cluster = false;
  options.selection.strategy = SelectionStrategy::kGreedyRatio;
  ReuseEngine engine(&catalog, options);
  engine.insights().controls().opt_out_model = true;  // everyone onboarded

  // Three downstream teams, each with their own recurring report. All of
  // them re-derive "successful clicks per product" before their specific
  // analysis — the overlap the cooking team cannot see.
  const char* kTeamDashboards =
      "SELECT product, COUNT(*) AS clicks FROM cooked_events "
      "WHERE action = 'click' GROUP BY product";
  const char* kTeamLatency =
      "SELECT product, AVG(duration_ms) AS avg_ms FROM cooked_events "
      "WHERE action = 'click' GROUP BY product HAVING AVG(duration_ms) > 100";
  const char* kTeamUsers =
      "SELECT product, COUNT(DISTINCT user_id) AS users FROM cooked_events "
      "WHERE action = 'click' GROUP BY product";

  int64_t job_id = 1;
  auto run_wave = [&](int day, double wave_offset, const char* label) {
    std::printf("-- %s --\n", label);
    const char* sqls[] = {kTeamDashboards, kTeamLatency, kTeamUsers};
    const char* teams[] = {"dashboards", "latency", "user-growth"};
    for (int i = 0; i < 3; ++i) {
      JobRequest request;
      request.job_id = job_id++;
      request.virtual_cluster = teams[i];
      request.sql = sqls[i];
      request.day = day;
      request.submit_time = day * kSecondsPerDay + wave_offset + 3600.0 * (i + 1);
      auto exec = engine.RunJob(request);
      if (!exec.ok()) {
        obs::LogError("data_cooking", "job_failed",
                      {{"team", teams[i]},
                       {"error", exec.status().ToString()}});
        std::exit(1);
      }
      std::printf("  %-12s %2zu rows | cpu %7.0f | built %d reused %d\n",
                  teams[i], exec->output->num_rows(),
                  exec->stats.total_cpu_cost, exec->views_built,
                  exec->views_matched);
    }
  };

  run_wave(0, 0.0, "day 0, morning wave (cold)");
  engine.RunViewSelection();
  run_wave(0, 40000.0, "day 0, evening wave (views kick in)");

  // Overnight: the cooking pipeline regenerates the shared dataset — a bulk
  // update with a fresh GUID. Views over the old version are reclaimed.
  catalog.BulkUpdate("raw_events", MakeRawEvents(1, 4000), guid_rng.Guid(),
                     kSecondsPerDay)
      .ok();
  catalog.BulkUpdate("cooked_events", CookEvents(catalog), guid_rng.Guid(),
                     kSecondsPerDay)
      .ok();
  size_t reclaimed = engine.OnDatasetUpdated("cooked_events");
  std::printf("\novernight cooking run: cooked_events v2 installed, %zu "
              "stale view(s) reclaimed\n\n", reclaimed);

  engine.RunViewSelection();  // periodic analysis keeps running
  run_wave(1, 0.0, "day 1, morning wave (fresh data, views rebuilt just in time)");
  run_wave(1, 40000.0, "day 1, evening wave");

  std::printf("\ntotals: %lld views created, %lld reuses, %lld annotation "
              "fetches (simulated %.0f ms round trips)\n",
              static_cast<long long>(engine.view_store().total_views_created()),
              static_cast<long long>(engine.view_store().total_views_reused()),
              static_cast<long long>(engine.insights().fetch_count()),
              engine.insights().total_fetch_latency() * 1000.0);
  return 0;
}
