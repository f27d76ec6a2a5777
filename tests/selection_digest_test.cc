// Pins the output of daily view selection on seeded generator workloads.
//
// Each case drives a workload shaped like one of the end-to-end benchmark's
// (table1, fleet_history, burst_shared) for a few simulated days through the
// cluster simulator, as e2e_bench's RunPass does, and folds every
// ReuseEngine::RunViewSelection result into one digest: the picks in order
// with every field (doubles by bit pattern), the expected savings, the bytes
// and every counter. The expected digests were recorded before selection
// moved to job ordinals and a shared label array; a change that alters any
// pick, its order or a reported number fails here.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <memory>
#include <string>
#include <vector>

#include "cluster/simulator.h"
#include "common/hash.h"
#include "common/sim_clock.h"
#include "core/reuse_engine.h"
#include "storage/catalog.h"
#include "workload/generator.h"
#include "workload/profiles.h"

namespace cloudviews {
namespace {

struct Shape {
  WorkloadProfile profile;
  ReuseEngineOptions engine;
  int days = 3;
  int onboarding_days_per_vc = 0;  // 0: every VC opts in on day 0
  double sharing_window_seconds = 0.0;
};

// The benchmark's Table-1 slice.
Shape Table1Shape(uint64_t seed) {
  Shape s;
  s.profile = ProductionDeploymentProfile(0.5);
  s.profile.min_rows = 1000;
  s.profile.max_rows = 1500;
  s.profile.seed = seed;
  s.engine.selection.min_occurrences = 4;
  s.engine.selection.storage_budget_bytes = 1536ull << 10;
  return s;
}

// Tiny jobs over a wider history with containment matching.
Shape FleetHistoryShape(uint64_t seed) {
  Shape s = Table1Shape(seed);
  s.profile.num_templates *= 2;
  s.profile.min_rows = 80;
  s.profile.max_rows = 120;
  s.profile.generalized_fraction = 0.4;
  s.engine.optimizer.enable_generalized_matching = true;
  s.engine.selection.storage_budget_bytes = 64ull << 20;
  s.days = 8;
  s.onboarding_days_per_vc = 2;
  return s;
}

// Table-1 shapes in bursts, run as sharing windows.
Shape BurstSharedShape(uint64_t seed) {
  Shape s = Table1Shape(seed);
  s.profile.burst_fraction = 0.75;
  s.profile.burst_window_seconds = 90.0;
  s.profile.instances_per_template_per_day = 4;
  s.engine.enable_sharing = true;
  s.sharing_window_seconds = 60.0;
  return s;
}

void HashBits(Hasher* h, double value) {
  h->Update(std::bit_cast<uint64_t>(value));
}

void HashResult(const SelectionResult& result, Hasher* h) {
  h->Update(static_cast<uint64_t>(result.selected.size()));
  for (const ViewCandidate& cand : result.selected) {
    h->Update(cand.strict_signature).Update(cand.recurring_signature);
    h->Update(cand.occurrences);
    HashBits(h, cand.avg_cpu_cost);
    HashBits(h, cand.read_cost);
    h->Update(cand.storage_bytes);
    HashBits(h, cand.utility);
    h->Update(static_cast<uint64_t>(cand.subtree_size));
    h->Update(static_cast<uint64_t>(cand.virtual_clusters.size()));
    for (const std::string& vc : cand.virtual_clusters) h->Update(vc);
  }
  HashBits(h, result.expected_savings);
  h->Update(result.total_storage_bytes);
  h->Update(result.candidates_considered);
  h->Update(result.rejected_schedule);
  h->Update(result.rejected_budget);
  h->Update(result.rejected_utility);
}

struct Digest {
  std::string hex;
  int64_t picks = 0;
};

// Runs `shape` day by day as e2e_bench's RunPass does and digests every
// selection result.
Digest RunShape(const Shape& shape) {
  DatasetCatalog catalog;
  WorkloadGenerator generator(shape.profile);
  EXPECT_TRUE(generator.Setup(&catalog).ok());
  ReuseEngineOptions options = shape.engine;
  options.cluster_name = shape.profile.cluster_name;
  ReuseEngine engine(&catalog, options);
  ClusterSimulator simulator(&engine);
  Hasher hasher;
  Digest digest;
  const int num_vcs = shape.profile.num_virtual_clusters;
  for (int day = 0; day < shape.days; ++day) {
    const double day_start = day * kSecondsPerDay;
    if (day > 0) {
      std::vector<std::string> updated;
      EXPECT_TRUE(generator.AdvanceDay(&catalog, day, &updated).ok());
      for (const std::string& name : updated) engine.OnDatasetUpdated(name);
    }
    engine.Maintenance(day_start);
    const int enabled_vcs =
        shape.onboarding_days_per_vc <= 0
            ? num_vcs
            : std::min(num_vcs, 1 + day / shape.onboarding_days_per_vc);
    for (int vc = 0; vc < enabled_vcs; ++vc) {
      engine.insights().controls().enabled_vcs.insert("vc" +
                                                      std::to_string(vc));
    }
    SelectionResult selection = engine.RunViewSelection(day_start);
    HashResult(selection, &hasher);
    digest.picks += static_cast<int64_t>(selection.selected.size());

    std::vector<GeneratedJob> jobs = generator.JobsForDay(catalog, day);
    if (shape.sharing_window_seconds <= 0.0) {
      for (const GeneratedJob& job : jobs) {
        EXPECT_TRUE(simulator.SubmitJob(job).ok()) << "job " << job.job_id;
      }
      continue;
    }
    for (size_t i = 0; i < jobs.size();) {
      size_t j = i + 1;
      while (j < jobs.size() && jobs[j].submit_time - jobs[i].submit_time <=
                                    shape.sharing_window_seconds) {
        ++j;
      }
      std::vector<GeneratedJob> window(jobs.begin() + static_cast<long>(i),
                                       jobs.begin() + static_cast<long>(j));
      EXPECT_TRUE(simulator.SubmitSharedWindow(window).ok());
      i = j;
    }
  }
  digest.hex = hasher.Finish().ToHex();
  return digest;
}

constexpr uint64_t kSeed = 20200201;
constexpr uint64_t kHeldOutSeed = 20200329;

TEST(SelectionDigestTest, Table1) {
  Digest a = RunShape(Table1Shape(kSeed));
  Digest b = RunShape(Table1Shape(kHeldOutSeed));
  EXPECT_EQ(a.picks, 61);
  EXPECT_EQ(a.hex, "458f0aa52d50b9c68ae0d40283d97442");
  EXPECT_EQ(b.picks, 79);
  EXPECT_EQ(b.hex, "98b0ce152e3b4a83dd8d0fefef415cf8");
}

TEST(SelectionDigestTest, FleetHistory) {
  Digest a = RunShape(FleetHistoryShape(kSeed));
  Digest b = RunShape(FleetHistoryShape(kHeldOutSeed));
  EXPECT_EQ(a.picks, 1009);
  EXPECT_EQ(a.hex, "034f92270a8a371af02f0b86a982f714");
  EXPECT_EQ(b.picks, 1273);
  EXPECT_EQ(b.hex, "87df83d7d5bf13628a5372001e2c8deb");
}

TEST(SelectionDigestTest, BurstShared) {
  Digest a = RunShape(BurstSharedShape(kSeed));
  Digest b = RunShape(BurstSharedShape(kHeldOutSeed));
  EXPECT_EQ(a.picks, 95);
  EXPECT_EQ(a.hex, "d4e2674f76c4a7f09a51807cd79a4fa5");
  EXPECT_EQ(b.picks, 91);
  EXPECT_EQ(b.hex, "5b10186238ed99895dbded3716f0814a");
}

// The benchmark workloads' budgets never bind; a 24 KB per-VC budget does,
// under every strategy.
TEST(SelectionDigestTest, TightBudgetStrategies) {
  std::vector<std::string> got;
  for (SelectionStrategy strategy :
       {SelectionStrategy::kBigSubs, SelectionStrategy::kGreedyRatio,
        SelectionStrategy::kTopKFrequency, SelectionStrategy::kNoBudget}) {
    Shape shape = Table1Shape(kSeed);
    shape.engine.selection.strategy = strategy;
    shape.engine.selection.storage_budget_bytes = 24ull << 10;
    Digest digest = RunShape(shape);
    got.push_back(std::string(SelectionStrategyName(strategy)) + " " +
                  std::to_string(digest.picks) + " " + digest.hex);
  }
  const std::vector<std::string> want = {
      "bigsubs 42 8c987f0bfb52754c73d2180c09ac29fa",
      "greedy-ratio 48 8ebe70eef85a30a7607e4a5d96ddd15a",
      "topk-frequency 39 9a3cda513ae758bde3273fc71fe7db2b",
      "no-budget 85 3f0fefb8dd964c1d212d5090eca500de",
  };
  EXPECT_EQ(got, want);
}

}  // namespace
}  // namespace cloudviews
