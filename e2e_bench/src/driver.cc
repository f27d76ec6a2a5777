#include "driver.h"

#include <algorithm>
#include <memory>

#include "cluster/simulator.h"
#include "common/sim_clock.h"
#include "core/reuse_engine.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "plan/normalizer.h"
#include "plan/signature.h"
#include "storage/catalog.h"
#include "workload/generator.h"

namespace e2e_bench {

namespace {

using cloudviews::ClusterSimulator;
using cloudviews::DatasetCatalog;
using cloudviews::GeneratedJob;
using cloudviews::ReuseEngine;
using cloudviews::Status;
using cloudviews::WorkloadGenerator;
namespace names = cloudviews::obs::metric_names;

const char* const kTracedCounters[] = {
    names::kViewsLookupHit,           names::kViewsLookupMiss,
    names::kOptimizerViewMatchCostRejected,
    names::kOptimizerRuleSpoolInject, names::kGeneralizedCandidates,
    names::kGeneralizedFilterPruned,  names::kGeneralizedExactChecks,
    names::kReuseHitsSubsumed,
};

std::map<std::string, uint64_t> ReadCounters() {
  std::map<std::string, uint64_t> out;
  for (const char* name : kTracedCounters) {
    out[name] = cloudviews::obs::MetricsRegistry::Global().counter(name).Value();
  }
  return out;
}

// The engine stack of one pass, in construction order.
struct Stack {
  DatasetCatalog catalog;
  WorkloadGenerator generator;
  std::unique_ptr<ReuseEngine> engine;
  std::unique_ptr<ClusterSimulator> simulator;

  explicit Stack(const Workload& w) : generator(w.profile) {}
};

Status SetUp(const Workload& w, Stack* stack) {
  Status status = stack->generator.Setup(&stack->catalog);
  if (!status.ok()) return status;
  stack->engine = std::make_unique<ReuseEngine>(&stack->catalog, w.engine);
  stack->simulator =
      std::make_unique<ClusterSimulator>(stack->engine.get());
  return Status::OK();
}

// Lays the attributed jobs' profile phases out under the submit-call span
// `parent` in the order the engine ran them (every job's bind and compile,
// then every execute, then every ingest; one job is bind, compile, execute,
// ingest), followed by the call's unattributed remainder. Profiles carry
// durations, not start times, so the layout is exact in duration only.
void LayOutPhases(const CallAttribution& call, double start, int64_t parent,
                  SpanRecorder* spans) {
  double at = start;
  auto emit = [&](const char* name, double seconds, int64_t job_id) {
    spans->Add(name, at, at + seconds, parent, job_id);
    at += seconds;
  };
  auto phase = [](const cloudviews::obs::QueryProfile& p, const char* name) {
    for (const auto& ph : p.phases) {
      if (ph.name == name) return ph.seconds;
    }
    return 0.0;
  };
  for (const auto* p : call.profiles) {
    emit("bind", phase(*p, "bind"), p->job_id);
    emit("compile", phase(*p, "compile"), p->job_id);
  }
  for (const auto* p : call.profiles) {
    emit("execute", phase(*p, "execute"), p->job_id);
  }
  for (const auto* p : call.profiles) {
    emit("ingest", phase(*p, "ingest"), p->job_id);
  }
  if (call.unattributed_jobs > 0) {
    emit("unattributed", call.unattributed_seconds, -1);
  }
}

// Replays the plan layer's normalization and signature computation on a
// generated plan, timed apart from the engine-facing calls.
void ReplayPlanLayer(const Workload& w, const GeneratedJob& job,
                     LayerStats* layers) {
  double a = NowSeconds();
  cloudviews::LogicalOpPtr normalized =
      cloudviews::PlanNormalizer::Normalize(job.plan);
  double b = NowSeconds();
  cloudviews::SignatureComputer computer(w.engine.optimizer.signature_options);
  computer.ComputeAll(*normalized);
  double c = NowSeconds();
  layers->replay_normalize_seconds += b - a;
  layers->replay_signatures_seconds += c - b;
  layers->replayed_plans += 1;
}

}  // namespace

double TimeSetup(const Workload& workload) {
  double start = NowSeconds();
  Stack stack(workload);
  if (!SetUp(workload, &stack).ok()) return -1.0;
  return NowSeconds() - start;
}

PassResult RunPass(const Workload& w, SpanRecorder* spans) {
  PassResult r;
  LayerStats& layers = r.layers;
  const bool traced = spans != nullptr;
  std::map<std::string, uint64_t> counters_before;
  if (traced) counters_before = ReadCounters();

  double setup_start = NowSeconds();
  Stack stack(w);
  Status status = SetUp(w, &stack);
  r.setup_seconds = NowSeconds() - setup_start;
  if (!status.ok()) {
    r.error = "setup: " + status.ToString();
    return r;
  }
  ReuseEngine& engine = *stack.engine;
  ClusterSimulator& simulator = *stack.simulator;
  int64_t pass_span = 0;
  if (traced) {
    pass_span = spans->Add("pass", setup_start, setup_start);
    spans->Add("setup", setup_start, setup_start + r.setup_seconds,
               pass_span);
  }

  // Times one call into the engine (or, with generator = true, into the
  // workload generator) and records its span.
  auto timed = [&](const char* name, int64_t parent, bool generator,
                   auto&& call) {
    double a = NowSeconds();
    call();
    double b = NowSeconds();
    (generator ? r.wall.generator_seconds : r.wall.engine_seconds) += b - a;
    if (traced) spans->Add(name, a, b, parent);
    return b - a;
  };

  const int num_vcs = w.profile.num_virtual_clusters;
  for (int day = 0; day < w.days; ++day) {
    int64_t day_span = traced ? spans->Begin("day", pass_span) : 0;
    const double day_start = day * cloudviews::kSecondsPerDay;
    if (day > 0) {
      std::vector<std::string> updated;
      timed("generator.advance_day", day_span, true, [&] {
        status = stack.generator.AdvanceDay(&stack.catalog, day, &updated);
      });
      if (!status.ok()) {
        r.error = "advance_day: " + status.ToString();
        return r;
      }
      layers.maintenance_seconds +=
          timed("engine.on_dataset_updated", day_span, false, [&] {
            for (const std::string& name : updated) {
              engine.OnDatasetUpdated(name);
            }
          });
    }
    layers.maintenance_seconds += timed(
        "engine.maintenance", day_span, false,
        [&] { engine.Maintenance(day_start); });

    // Opt-in onboarding ramp, as ProductionExperiment::RunArm.
    int enabled_vcs =
        w.onboarding_days_per_vc <= 0
            ? num_vcs
            : std::min(num_vcs, 1 + day / w.onboarding_days_per_vc);
    for (int vc = 0; vc < enabled_vcs; ++vc) {
      engine.insights().controls().enabled_vcs.insert("vc" +
                                                      std::to_string(vc));
    }
    cloudviews::SelectionResult selection;
    double selection_seconds =
        timed("engine.view_selection", day_span, false,
              [&] { selection = engine.RunViewSelection(day_start); });
    layers.selection_ms.push_back(selection_seconds * 1e3);
    layers.selection_budget_fill =
        static_cast<double>(selection.total_storage_bytes) /
        (static_cast<double>(w.engine.selection.storage_budget_bytes) *
         num_vcs);

    std::vector<GeneratedJob> jobs;
    timed("generator.jobs_for_day", day_span, true, [&] {
      jobs = stack.generator.JobsForDay(stack.catalog, day);
    });
    if (traced) {
      int64_t replay = spans->Begin("plan.replay", day_span);
      for (const GeneratedJob& job : jobs) ReplayPlanLayer(w, job, &layers);
      spans->End(replay);
    }

    // Submits jobs[i, j) as one call and accounts for it.
    auto submit = [&](size_t i, size_t j) {
      const bool window = w.sharing_window_seconds > 0.0;
      const int64_t n = static_cast<int64_t>(j - i);
      const int64_t streams_before = engine.sharing_stats().streams;
      int64_t failed = 0;
      std::vector<GeneratedJob> batch;
      if (window) {
        batch.assign(jobs.begin() + static_cast<long>(i),
                     jobs.begin() + static_cast<long>(j));
      }
      double a = NowSeconds();
      if (window) {
        auto telemetry = simulator.SubmitSharedWindow(batch);
        if (!telemetry.ok()) {
          failed = n;
        } else {
          for (const auto& t : *telemetry) failed += t.failed ? 1 : 0;
        }
      } else {
        failed = simulator.SubmitJob(jobs[i]).ok() ? 0 : 1;
      }
      double b = NowSeconds();
      double wall = b - a;
      r.wall.engine_seconds += wall;
      r.wall.jobs += n;
      r.attempted += n;
      r.failed += failed;
      r.job_ms.insert(r.job_ms.end(), static_cast<size_t>(n), wall * 1e3);
      if (!traced) return;
      if (window) {
        layers.window_ms.push_back(wall * 1e3);
        layers.max_streams_per_window =
            std::max(layers.max_streams_per_window,
                     engine.sharing_stats().streams - streams_before);
      }
      std::vector<int64_t> ids;
      for (size_t k = i; k < j; ++k) ids.push_back(jobs[k].job_id);
      CallAttribution call =
          AttributeCall(wall, ids, engine.insights().recent_profiles());
      layers.phases.Add(call.phases);
      const int64_t attributed = static_cast<int64_t>(call.profiles.size());
      layers.attributed_jobs += attributed;
      layers.unattributed_jobs += call.unattributed_jobs;
      if (call.unattributed_jobs == 0) layers.self_time_jobs += n;
      int64_t call_span =
          spans->Add(window ? "sim.submit_window" : "sim.submit_job", a, b,
                     day_span, window ? -1 : jobs[i].job_id);
      LayOutPhases(call, a, call_span, spans);
    };

    if (w.sharing_window_seconds <= 0.0) {
      for (size_t i = 0; i < jobs.size(); ++i) submit(i, i + 1);
    } else {
      // Arrivals within the window of its first job share it, as in
      // ProductionExperiment::RunArm.
      for (size_t i = 0; i < jobs.size();) {
        size_t j = i + 1;
        while (j < jobs.size() && jobs[j].submit_time - jobs[i].submit_time <=
                                      w.sharing_window_seconds) {
          ++j;
        }
        submit(i, j);
        i = j;
      }
    }
    if (traced) spans->End(day_span);
  }

  r.sim = simulator.telemetry().Totals();
  if (traced) {
    spans->End(pass_span);
    layers.days = w.days;
    for (const auto& [name, value] : ReadCounters()) {
      layers.counter_deltas[name] = value - counters_before[name];
    }
    layers.hits_exact = engine.hits_exact();
    layers.hits_subsumed = engine.hits_subsumed();
    layers.views_created = engine.view_store().total_views_created();
    layers.views_reused = engine.view_store().total_views_reused();
    layers.live_view_bytes = engine.view_store().TotalBytes();
    layers.repository_groups = engine.repository().num_groups();
    layers.sharing = engine.sharing_stats();
  }
  return r;
}

}  // namespace e2e_bench
