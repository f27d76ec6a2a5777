#include "workloads.h"

#include "workload/profiles.h"

namespace e2e_bench {

namespace {

using cloudviews::ProductionDeploymentProfile;

// Why the workloads are cut into many short sub-workloads: a generator seed
// fixes which datasets are hot (Zipf), how large each dataset is and which
// templates end in a nested-loop theta join, and those few draws move a
// pass's throughput and tail latency by 20-90% from seed to seed. A round
// therefore averages many independent seeds, each driven for a few days, and
// dataset sizes are drawn from a narrower range around the profile's mean.

// The Table-1 slice: bench/table1_production_impact's engine settings
// (min_occurrences 4, 1.5 MiB per-VC budget, exact matching, serial
// SubmitJob). Views are large relative to the budget, so execution, spool
// writes and view scans carry most of the work. Every VC opts in from day 0,
// so a six-day pass is steady state rather than the onboarding ramp.
Workload Table1() {
  Workload w;
  w.name = "table1";
  w.profile = ProductionDeploymentProfile(0.5);
  w.profile.min_rows = 1000;
  w.profile.max_rows = 1500;
  w.engine.selection.min_occurrences = 4;
  w.engine.selection.storage_budget_bytes = 1536ull << 10;
  w.days = 6;
  w.onboarding_days_per_vc = 0;
  w.sub_workloads = 40;
  return w;
}

// Tiny jobs over a wide history: twice the templates on 80-120-row datasets,
// with narrowed motifs for containment matching and a 64 MiB per-VC budget
// every selected view fits in. Daily view selection over a history that
// grows for 14 days (with the 2-day onboarding ramp), compilation
// (signatures, view lookup, the containment funnel) and repository ingest
// dominate; execution is cheap.
Workload FleetHistory() {
  Workload w = Table1();
  w.name = "fleet_history";
  w.profile.num_templates = 336;
  w.profile.min_rows = 80;
  w.profile.max_rows = 120;
  w.profile.generalized_fraction = 0.4;
  w.engine.optimizer.enable_generalized_matching = true;
  w.engine.selection.storage_budget_bytes = 64ull << 20;
  w.days = 14;
  w.onboarding_days_per_vc = 2;
  w.sub_workloads = 7;
  w.check_needs_subsumed_hit = true;
  return w;
}

// The Table-1 job shapes arriving in bursts: three quarters of the templates
// submit their four daily instances within 90 s, and arrivals within 60 s of
// a window's first job share it (SubmitSharedWindow). Only this workload
// exercises the sharing layer (producer threads, SharedStream); its
// difference from table1 isolates that layer. With 0.6 of the templates
// bursty, burst jobs made up about half of all jobs, so the median job fell
// on a burst window for some seeds and on a lone job for others; at 0.75 it
// is a burst window for every seed.
Workload BurstShared() {
  Workload w = Table1();
  w.name = "burst_shared";
  w.profile.burst_fraction = 0.75;
  w.profile.burst_window_seconds = 90.0;
  w.profile.instances_per_template_per_day = 4;
  w.engine.enable_sharing = true;
  w.sharing_window_seconds = 60.0;
  w.sub_workloads = 36;
  w.check_needs_stream_hit = true;
  return w;
}

}  // namespace

std::optional<Workload> MakeWorkload(const std::string& name, uint64_t seed) {
  Workload w;
  if (name == "table1") {
    w = Table1();
  } else if (name == "fleet_history") {
    w = FleetHistory();
  } else if (name == "burst_shared") {
    w = BurstShared();
  } else {
    return std::nullopt;
  }
  w.engine.cluster_name = w.profile.cluster_name;
  w.profile.seed = seed;
  return w;
}

uint64_t SubSeed(uint64_t seed, int k) {
  if (k == 0) return seed;
  // SplitMix64 finalizer over (seed, k).
  uint64_t z = seed + 0x9E3779B97F4A7C15ULL * static_cast<uint64_t>(k);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

}  // namespace e2e_bench
