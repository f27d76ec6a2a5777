#ifndef CLOUDVIEWS_E2E_BENCH_WORKLOADS_H_
#define CLOUDVIEWS_E2E_BENCH_WORKLOADS_H_

#include <cstdint>
#include <optional>
#include <string>

#include "core/reuse_engine.h"
#include "workload/generator.h"

namespace e2e_bench {

// One benchmark workload: the generator profile, the CloudViews-arm engine
// settings and the driving schedule (ProductionExperiment::RunArm's loop).
struct Workload {
  std::string name;
  cloudviews::WorkloadProfile profile;
  cloudviews::ReuseEngineOptions engine;
  int days = 20;
  int onboarding_days_per_vc = 2;
  // Independent sub-workloads (one generator seed each, see SubSeed) that
  // one round of a run drives in turn (why: workloads.cc).
  int sub_workloads = 1;
  // Submit through SubmitSharedWindow, grouping arrivals within this many
  // simulated seconds of a window's first job; 0 submits job by job.
  double sharing_window_seconds = 0.0;
  // Hit kinds the correctness check must see besides exact view hits.
  bool check_needs_subsumed_hit = false;
  bool check_needs_stream_hit = false;
};

// Seed used while the workloads were tuned; run without --seed, the driver
// uses it. The check also passes on 20200329, a seed kept out of tuning.
inline constexpr uint64_t kDefaultSeed = 20200201;

// The named workload with its generator seed set to `seed`; nullopt for an
// unknown name.
std::optional<Workload> MakeWorkload(const std::string& name, uint64_t seed);

// Generator seed of sub-workload `k` of a run seeded with `seed`.
// Sub-workload 0 keeps `seed` itself.
uint64_t SubSeed(uint64_t seed, int k);

}  // namespace e2e_bench

#endif  // CLOUDVIEWS_E2E_BENCH_WORKLOADS_H_
