#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <functional>
#include <map>
#include <random>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/exec_stats.h"
#include "common/sim_clock.h"
#include "common/thread_pool.h"
#include "core/insights_service.h"
#include "core/repository_io.h"
#include "core/reuse_engine.h"
#include "core/view_selection.h"
#include "core/workload_repository.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "tests/test_util.h"

namespace cloudviews {
namespace {

SubexpressionInstance MakeInstance(const std::string& sig_seed, int64_t job_id,
                                   const std::string& vc, int day,
                                   double submit_time = 0.0,
                                   double cpu = 1000.0,
                                   uint64_t bytes = 4096) {
  SubexpressionInstance inst;
  inst.strict_signature = HashString("strict-" + sig_seed);
  inst.recurring_signature = HashString("recurring-" + sig_seed);
  inst.job_id = job_id;
  inst.virtual_cluster = vc;
  inst.day = day;
  inst.submit_time = submit_time;
  inst.subtree_size = 3;
  inst.cpu_cost = cpu;
  inst.rows = 10;
  inst.bytes = bytes;
  return inst;
}

// --- WorkloadRepository -------------------------------------------------------

TEST(WorkloadRepositoryTest, GroupsBySignature) {
  WorkloadRepository repo;
  repo.Ingest(MakeInstance("a", 1, "vc0", 0));
  repo.Ingest(MakeInstance("a", 2, "vc0", 0));
  repo.Ingest(MakeInstance("b", 3, "vc1", 1));
  EXPECT_EQ(repo.total_instances(), 3);
  EXPECT_EQ(repo.num_groups(), 2u);
  const SubexpressionGroup* a = repo.FindGroup(HashString("strict-a"));
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a->occurrences, 2);
  EXPECT_EQ(a->virtual_clusters.size(), 1u);
}

TEST(WorkloadRepositoryTest, OverlapByDay) {
  WorkloadRepository repo;
  repo.Ingest(MakeInstance("a", 1, "vc0", 0));  // first: not repeated
  repo.Ingest(MakeInstance("a", 2, "vc0", 0));  // repeat
  repo.Ingest(MakeInstance("a", 3, "vc0", 1));  // repeat on day 1
  repo.Ingest(MakeInstance("c", 4, "vc0", 1));  // new
  std::vector<DayOverlapStats> days = repo.OverlapByDay();
  ASSERT_EQ(days.size(), 2u);
  EXPECT_EQ(days[0].total_subexpressions, 2);
  EXPECT_EQ(days[0].repeated_subexpressions, 1);
  EXPECT_DOUBLE_EQ(days[0].PercentRepeated(), 50.0);
  EXPECT_DOUBLE_EQ(days[1].PercentRepeated(), 50.0);
}

TEST(WorkloadRepositoryTest, RepeatFrequencyAndPercent) {
  WorkloadRepository repo;
  for (int i = 0; i < 5; ++i) repo.Ingest(MakeInstance("a", i, "vc0", 0));
  repo.Ingest(MakeInstance("b", 10, "vc0", 0));
  EXPECT_DOUBLE_EQ(repo.AverageRepeatFrequency(), 3.0);  // 6 inst / 2 groups
  // 5 of 6 instances belong to a repeated group.
  EXPECT_NEAR(repo.PercentRepeated(), 83.33, 0.1);
}

TEST(WorkloadRepositoryTest, IneligibleBecomesSticky) {
  WorkloadRepository repo;
  SubexpressionInstance good = MakeInstance("x", 1, "vc0", 0);
  SubexpressionInstance bad = MakeInstance("x", 2, "vc0", 0);
  bad.eligible = false;
  repo.Ingest(good);
  repo.Ingest(bad);
  const SubexpressionGroup* g = repo.FindGroup(HashString("strict-x"));
  ASSERT_NE(g, nullptr);
  EXPECT_FALSE(g->eligible);
}

TEST(WorkloadRepositoryTest, RecentInstancesBounded) {
  WorkloadRepository repo;
  for (int i = 0; i < 200; ++i) {
    repo.Ingest(MakeInstance("hot", i, "vc0", 0, i * 10.0));
  }
  const SubexpressionGroup* g = repo.FindGroup(HashString("strict-hot"));
  ASSERT_NE(g, nullptr);
  EXPECT_LE(g->recent_instances.size(), 64u);
  EXPECT_EQ(g->occurrences, 200);
}

TEST(WorkloadRepositoryTest, TrimFreesInstanceStorage) {
  WorkloadRepository repo;
  for (int i = 0; i < 100; ++i) {
    repo.Ingest(MakeInstance("old", i, "vc0", 0, i * 10.0));
  }
  repo.Ingest(MakeInstance("new", 1000, "vc0", 2));
  repo.TrimInstancesBefore(1);
  const SubexpressionGroup* old = repo.FindGroup(HashString("strict-old"));
  ASSERT_NE(old, nullptr);
  EXPECT_TRUE(old->recent_instances.empty());
  EXPECT_EQ(old->recent_instances.capacity(), 0u);
  EXPECT_EQ(old->occurrences, 100);
  EXPECT_EQ(repo.FindGroup(HashString("strict-new"))->recent_instances.size(),
            1u);
}

TEST(WorkloadRepositoryTest, RestoreGroupRefusesInstanceHistory) {
  SubexpressionGroup group;
  group.strict_signature = HashString("strict-r");
  group.occurrences = 1;
  group.recent_instances.Push(3, 0.0);  // an ordinal of no job here
  WorkloadRepository repo;
  EXPECT_FALSE(repo.RestoreGroup(std::move(group)).ok());
  EXPECT_EQ(repo.num_groups(), 0u);
}

// --- ViewSelector ---------------------------------------------------------------

class ViewSelectorTest : public ::testing::Test {
 protected:
  // Repository with three candidates: a hot expensive one, a cold one, and a
  // huge low-value one.
  void FillRepo() {
    for (int i = 0; i < 10; ++i) {
      repo_.Ingest(MakeInstance("hot", i, "vc0", 0, i * 1000.0, 50000.0, 1000));
    }
    repo_.Ingest(MakeInstance("cold", 100, "vc0", 0, 0.0, 50000.0, 1000));
    for (int i = 0; i < 3; ++i) {
      repo_.Ingest(MakeInstance("huge", 200 + i, "vc0", 0, i * 1000.0, 100.0,
                                100u << 20));
    }
  }

  WorkloadRepository repo_;
};

TEST_F(ViewSelectorTest, SelectsHotNotColdNorHuge) {
  FillRepo();
  SelectionConstraints constraints;
  constraints.storage_budget_bytes = 1 << 20;
  constraints.schedule_aware = false;
  constraints.per_virtual_cluster = false;
  constraints.strategy = SelectionStrategy::kGreedyRatio;
  ViewSelector selector(constraints);
  SelectionResult result = selector.Select(repo_);
  EXPECT_TRUE(result.Contains(HashString("strict-hot")));
  EXPECT_FALSE(result.Contains(HashString("strict-cold")));  // occurs once
  EXPECT_FALSE(result.Contains(HashString("strict-huge")));  // negative utility
  EXPECT_GT(result.expected_savings, 0.0);
}

TEST_F(ViewSelectorTest, BudgetRejectsWhenTooSmall) {
  FillRepo();
  SelectionConstraints constraints;
  constraints.storage_budget_bytes = 10;  // nothing fits
  constraints.schedule_aware = false;
  constraints.per_virtual_cluster = false;
  constraints.strategy = SelectionStrategy::kGreedyRatio;
  ViewSelector selector(constraints);
  SelectionResult result = selector.Select(repo_);
  EXPECT_TRUE(result.selected.empty());
  EXPECT_GT(result.rejected_budget, 0);
}

TEST_F(ViewSelectorTest, ScheduleAwareDropsConcurrentOnly) {
  // All instances of "burst" are submitted within 5 seconds of each other.
  for (int i = 0; i < 8; ++i) {
    repo_.Ingest(MakeInstance("burst", i, "vc0", 0, i * 1.0, 50000.0, 1000));
  }
  SelectionConstraints constraints;
  constraints.schedule_aware = true;
  constraints.concurrency_window_seconds = 120.0;
  constraints.per_virtual_cluster = false;
  constraints.strategy = SelectionStrategy::kGreedyRatio;
  ViewSelector selector(constraints);
  SelectionResult result = selector.Select(repo_);
  EXPECT_FALSE(result.Contains(HashString("strict-burst")));
  EXPECT_EQ(result.rejected_schedule, 1);

  // With schedule awareness off it would be selected.
  constraints.schedule_aware = false;
  ViewSelector naive(constraints);
  EXPECT_TRUE(naive.Select(repo_).Contains(HashString("strict-burst")));
}

TEST_F(ViewSelectorTest, PerVcBudgetsIsolateCustomers) {
  // vc0 and vc1 each have a hot candidate of ~1KB; global budget 1.5KB would
  // starve one, per-VC budgets serve both.
  for (int i = 0; i < 5; ++i) {
    repo_.Ingest(MakeInstance("vc0hot", i, "vc0", 0, i * 1000.0, 50000.0, 1000));
    repo_.Ingest(MakeInstance("vc1hot", 10 + i, "vc1", 0, i * 1000.0, 50000.0,
                              1000));
  }
  SelectionConstraints constraints;
  constraints.storage_budget_bytes = 1500;
  constraints.schedule_aware = false;
  constraints.per_virtual_cluster = true;
  constraints.strategy = SelectionStrategy::kGreedyRatio;
  ViewSelector selector(constraints);
  SelectionResult result = selector.Select(repo_);
  EXPECT_TRUE(result.Contains(HashString("strict-vc0hot")));
  EXPECT_TRUE(result.Contains(HashString("strict-vc1hot")));

  constraints.per_virtual_cluster = false;
  ViewSelector global(constraints);
  SelectionResult gresult = global.Select(repo_);
  EXPECT_EQ(gresult.selected.size(), 1u);  // only one fits globally
}

TEST_F(ViewSelectorTest, BigSubsAvoidsDoubleCounting) {
  // Two overlapping candidates covering the SAME jobs; the bigger saving
  // should be picked and the smaller one's marginal utility collapses.
  for (int i = 0; i < 6; ++i) {
    repo_.Ingest(MakeInstance("outer", i, "vc0", 0, i * 1000.0, 80000.0, 1000));
    repo_.Ingest(MakeInstance("inner", i, "vc0", 0, i * 1000.0, 40000.0, 1000));
  }
  SelectionConstraints constraints;
  constraints.schedule_aware = false;
  constraints.per_virtual_cluster = false;
  constraints.strategy = SelectionStrategy::kBigSubs;
  constraints.storage_budget_bytes = 10 << 20;
  ViewSelector selector(constraints);
  SelectionResult result = selector.Select(repo_);
  EXPECT_TRUE(result.Contains(HashString("strict-outer")));
  // inner only adds 40000-per-job on jobs already saved 80000 -> rejected.
  EXPECT_FALSE(result.Contains(HashString("strict-inner")));

  // Greedy-ratio (no job awareness) would take both.
  constraints.strategy = SelectionStrategy::kGreedyRatio;
  ViewSelector greedy(constraints);
  SelectionResult gresult = greedy.Select(repo_);
  EXPECT_TRUE(gresult.Contains(HashString("strict-inner")));
}

TEST_F(ViewSelectorTest, TopKIgnoresUtility) {
  FillRepo();
  SelectionConstraints constraints;
  constraints.schedule_aware = false;
  constraints.per_virtual_cluster = false;
  constraints.strategy = SelectionStrategy::kTopKFrequency;
  constraints.max_views = 1;
  constraints.storage_budget_bytes = 1u << 30;
  ViewSelector selector(constraints);
  SelectionResult result = selector.Select(repo_);
  ASSERT_EQ(result.selected.size(), 1u);
  EXPECT_EQ(result.selected[0].occurrences, 10);
}

// The job ids of `group`'s recent instances, oldest first.
std::vector<int64_t> RecentJobIds(const WorkloadRepository& repository,
                                  const SubexpressionGroup& group) {
  std::vector<int64_t> jobs;
  group.recent_instances.ForEach([&](const InstanceRing::Instance& inst) {
    jobs.push_back(repository.job_id(inst.job));
  });
  return jobs;
}

// One budget pass of the reference BigSubs: every round re-evaluates every
// remaining candidate, with labels keyed by job id in a hash map that starts
// empty. Appends the picks to `result`, a pick already there counting once.
void RescanPass(std::vector<ViewCandidate> candidates,
                const WorkloadRepository& repository,
                const SelectionConstraints& constraints,
                SelectionResult* result) {
  struct Entry {
    ViewCandidate cand;
    std::vector<int64_t> jobs;
    double per_job_saving = 0.0;
    bool taken = false;
  };
  std::vector<Entry> entries;
  for (ViewCandidate& cand : candidates) {
    if (cand.utility <= 0) {
      result->rejected_utility += 1;
      continue;
    }
    Entry entry;
    const SubexpressionGroup* group =
        repository.FindGroup(cand.strict_signature);
    if (group != nullptr) entry.jobs = RecentJobIds(repository, *group);
    entry.per_job_saving = std::max(0.0, cand.avg_cpu_cost - cand.read_cost);
    entry.cand = std::move(cand);
    entries.push_back(std::move(entry));
  }
  std::unordered_map<int64_t, double> job_saved;
  auto marginal_utility = [&](const Entry& entry) {
    double total = 0.0;
    for (int64_t job : entry.jobs) {
      auto it = job_saved.find(job);
      double already = it == job_saved.end() ? 0.0 : it->second;
      total += std::max(0.0, entry.per_job_saving - already);
    }
    double materialize_overhead =
        static_cast<double>(entry.cand.storage_bytes) *
        CostWeights::kSpoolByte;
    total -= entry.per_job_saving + materialize_overhead;
    return total;
  };
  uint64_t used = 0;
  int picks = 0;
  while (picks < constraints.max_views) {
    double best_ratio = 0.0;
    int best = -1;
    for (size_t i = 0; i < entries.size(); ++i) {
      if (entries[i].taken) continue;
      if (used + entries[i].cand.storage_bytes >
          constraints.storage_budget_bytes) {
        continue;
      }
      double mu = marginal_utility(entries[i]);
      double ratio =
          mu / static_cast<double>(entries[i].cand.storage_bytes + 1);
      if (mu > 0 && (best < 0 || ratio > best_ratio)) {
        best_ratio = ratio;
        best = static_cast<int>(i);
      }
    }
    if (best < 0) break;
    Entry& entry = entries[static_cast<size_t>(best)];
    entry.taken = true;
    picks += 1;
    used += entry.cand.storage_bytes;
    for (int64_t job : entry.jobs) {
      double& saved = job_saved[job];
      saved = std::max(saved, entry.per_job_saving);
    }
    entry.cand.utility = marginal_utility(entry);
    if (!result->selected_strict.insert(entry.cand.strict_signature).second) {
      continue;
    }
    result->expected_savings += std::max(0.0, entry.cand.utility);
    result->total_storage_bytes += entry.cand.storage_bytes;
    result->selected.push_back(entry.cand);
  }
  for (const Entry& entry : entries) {
    if (!entry.taken) result->rejected_budget += 1;
  }
}

// Reference BigSubs by full rescan (kBigSubs, schedule-aware off), one pass
// over all candidates or one per virtual cluster in name order. Select's
// lazy greedy over job ordinals and a shared label array must reproduce it
// exactly.
SelectionResult RescanBigSubs(const WorkloadRepository& repository,
                              const SelectionConstraints& constraints) {
  std::vector<ViewCandidate> candidates =
      ViewSelector(constraints).ScoreCandidates(repository);
  SelectionResult result;
  result.candidates_considered = static_cast<int64_t>(candidates.size());
  if (!constraints.per_virtual_cluster) {
    RescanPass(std::move(candidates), repository, constraints, &result);
    return result;
  }
  std::map<std::string, std::vector<ViewCandidate>> by_vc;
  for (const ViewCandidate& cand : candidates) {
    for (const std::string& vc : cand.virtual_clusters) {
      by_vc[vc].push_back(cand);
    }
  }
  for (auto& [vc, list] : by_vc) {
    RescanPass(std::move(list), repository, constraints, &result);
  }
  return result;
}

SelectionConstraints BigSubsConstraints(uint64_t budget, int max_views) {
  SelectionConstraints constraints;
  constraints.strategy = SelectionStrategy::kBigSubs;
  constraints.per_virtual_cluster = false;
  constraints.schedule_aware = false;
  constraints.storage_budget_bytes = budget;
  constraints.max_views = max_views;
  return constraints;
}

// Selects with `constraints` and checks the result against the rescan,
// field by field; doubles compare by bit pattern.
SelectionResult ExpectSameAsRescan(const WorkloadRepository& repository,
                                   const SelectionConstraints& constraints) {
  SelectionResult got = ViewSelector(constraints).Select(repository);
  SelectionResult want = RescanBigSubs(repository, constraints);
  EXPECT_EQ(got.candidates_considered, want.candidates_considered);
  EXPECT_EQ(got.rejected_budget, want.rejected_budget);
  EXPECT_EQ(got.rejected_utility, want.rejected_utility);
  EXPECT_EQ(got.rejected_schedule, 0);
  EXPECT_EQ(got.total_storage_bytes, want.total_storage_bytes);
  EXPECT_EQ(std::bit_cast<uint64_t>(got.expected_savings),
            std::bit_cast<uint64_t>(want.expected_savings));
  EXPECT_EQ(got.selected_strict, want.selected_strict);
  EXPECT_EQ(got.selected.size(), want.selected.size());
  for (size_t i = 0; i < std::min(got.selected.size(), want.selected.size());
       ++i) {
    const ViewCandidate& g = got.selected[i];
    const ViewCandidate& w = want.selected[i];
    EXPECT_EQ(g.strict_signature, w.strict_signature) << "pick " << i;
    EXPECT_EQ(g.recurring_signature, w.recurring_signature) << "pick " << i;
    EXPECT_EQ(std::bit_cast<uint64_t>(g.utility),
              std::bit_cast<uint64_t>(w.utility))
        << "pick " << i;
    EXPECT_EQ(std::bit_cast<uint64_t>(g.avg_cpu_cost),
              std::bit_cast<uint64_t>(w.avg_cpu_cost))
        << "pick " << i;
    EXPECT_EQ(g.occurrences, w.occurrences) << "pick " << i;
    EXPECT_EQ(g.storage_bytes, w.storage_bytes) << "pick " << i;
    EXPECT_EQ(g.virtual_clusters, w.virtual_clusters) << "pick " << i;
  }
  return got;
}

// Ingests `n` instances of `sig_seed`, one per job in [first_job, first_job+n).
void IngestJobs(WorkloadRepository* repo, const std::string& sig_seed,
                int64_t first_job, int n, double cpu, uint64_t bytes) {
  for (int i = 0; i < n; ++i) {
    repo->Ingest(MakeInstance(sig_seed, first_job + i, "vc0", 0, i * 1000.0,
                              cpu, bytes));
  }
}

// Costs and sizes of the random repositories, some values twice so that
// equal ratios occur. A cost of 10 is below the read cost: non-positive
// utility.
constexpr double kCosts[] = {10.0, 600.0, 2000.0, 2000.0, 9000.0, 40000.0};
constexpr uint64_t kBytes[] = {100, 1000, 1000, 4000, 30000};
constexpr uint64_t kBudgets[] = {1500, 6000, 40000, 1ull << 30};
constexpr int kMaxViews[] = {1, 3, 10000, 10000};

// Ingests 2-41 random signatures ("s0", "s1", ...) on `day`, each with
// 1..max_instances instances whose job ids come from a small shared pool, so
// that labels interact. With vcs > 1 each instance runs in a random one of
// that many virtual clusters.
void IngestRandom(std::mt19937& rng, int vcs, int max_instances, int day,
                  WorkloadRepository* repo) {
  const int signatures = 2 + static_cast<int>(rng() % 40);
  const int64_t job_pool = 3 + static_cast<int64_t>(rng() % 40);
  for (int s = 0; s < signatures; ++s) {
    const double cpu = kCosts[rng() % 6];
    const uint64_t bytes = kBytes[rng() % 5];
    const int instances = 1 + static_cast<int>(rng() % max_instances);
    for (int k = 0; k < instances; ++k) {
      const int64_t job = static_cast<int64_t>(rng()) % job_pool;
      const std::string vc =
          vcs > 1 ? "vc" + std::to_string(rng() % vcs) : "vc0";
      repo->Ingest(MakeInstance("s" + std::to_string(s), job, vc, day,
                                day * 86400.0 + k * 1000.0, cpu, bytes));
    }
  }
}

// Compares Select with the rescan on `seeds` seeded repositories built by
// `fill`, under random budgets and max_views caps; returns the picks made.
int64_t SweepAgainstRescan(
    uint32_t seeds, bool per_virtual_cluster,
    const std::function<void(std::mt19937&, WorkloadRepository*)>& fill) {
  int64_t picks = 0;
  for (uint32_t seed = 0; seed < seeds; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    std::mt19937 rng(seed);
    WorkloadRepository repo;
    fill(rng, &repo);
    SelectionConstraints constraints = BigSubsConstraints(
        kBudgets[rng() % 4], kMaxViews[rng() % 4]);
    constraints.per_virtual_cluster = per_virtual_cluster;
    picks += static_cast<int64_t>(
        ExpectSameAsRescan(repo, constraints).selected.size());
  }
  return picks;
}

TEST_F(ViewSelectorTest, BigSubsMatchesRescanOnRandomRepositories) {
  int64_t picks = SweepAgainstRescan(
      300, false, [](std::mt19937& rng, WorkloadRepository* repo) {
        IngestRandom(rng, 1, 8, 0, repo);
      });
  EXPECT_GT(picks, 600);  // the sweep makes real selections
}

TEST_F(ViewSelectorTest, JobIdKeepsItsOrdinalAcrossIngests) {
  // "inner" covers the same jobs as "outer" with half the saving, so it
  // collapses only if each job id maps to one ordinal. Job 7 runs "outer"
  // and "inner" in separate, non-adjacent calls, after job 100.
  for (int64_t job = 0; job < 6; ++job) {
    repo_.Ingest(MakeInstance("outer", 7 + job, "vc0", 0, job * 1000.0,
                              80000.0, 1000));
    repo_.Ingest(MakeInstance("other", 100 + job, "vc0", 0, job * 1000.0,
                              9000.0, 1000));
  }
  for (int64_t job = 0; job < 6; ++job) {
    repo_.Ingest(MakeInstance("inner", 7 + job, "vc0", 0, job * 1000.0,
                              40000.0, 1000));
  }
  // IngestJob assigns the ordinal once per call; a later call for a known
  // job id reuses it.
  NodeSignature sig;
  sig.strict = HashString("strict-late");
  sig.recurring = HashString("recurring-late");
  sig.subtree_size = 3;
  for (int64_t job : {7, 100, 8, 7}) {
    repo_.IngestJob(job, "vc0", 0, 0.0, {sig}, {});
  }
  EXPECT_EQ(repo_.num_jobs(), 12u);
  EXPECT_EQ(RecentJobIds(repo_, *repo_.FindGroup(HashString("strict-late"))),
            std::vector<int64_t>({7, 100, 8, 7}));
  SelectionResult result =
      ExpectSameAsRescan(repo_, BigSubsConstraints(1ull << 30, 10000));
  EXPECT_TRUE(result.Contains(HashString("strict-outer")));
  EXPECT_FALSE(result.Contains(HashString("strict-inner")));
}

TEST_F(ViewSelectorTest, BigSubsLabelsStayWithinTheirVirtualCluster) {
  // "outer" runs in vc0 and "inner" in vc1, on the same job ids. Per VC,
  // each pass starts with no job saved, so both are picked; globally,
  // "inner" collapses under "outer".
  for (int64_t job = 0; job < 6; ++job) {
    repo_.Ingest(MakeInstance("outer", job, "vc0", 0, job * 1000.0, 80000.0,
                              1000));
    repo_.Ingest(MakeInstance("inner", job, "vc1", 0, job * 1000.0, 40000.0,
                              1000));
  }
  SelectionConstraints constraints = BigSubsConstraints(1ull << 30, 10000);
  constraints.per_virtual_cluster = true;
  SelectionResult per_vc = ExpectSameAsRescan(repo_, constraints);
  EXPECT_TRUE(per_vc.Contains(HashString("strict-outer")));
  EXPECT_TRUE(per_vc.Contains(HashString("strict-inner")));
  constraints.per_virtual_cluster = false;
  EXPECT_FALSE(ExpectSameAsRescan(repo_, constraints)
                   .Contains(HashString("strict-inner")));

  int64_t picks = SweepAgainstRescan(
      200, true, [](std::mt19937& rng, WorkloadRepository* repo) {
        IngestRandom(rng, 3, 8, 0, repo);
      });
  EXPECT_GT(picks, 600);
}

TEST_F(ViewSelectorTest, BigSubsMatchesRescanPastTheRingCapacity) {
  // 150 instances keep the last 64, oldest first, after the ring wraps.
  for (int i = 0; i < 150; ++i) {
    repo_.Ingest(MakeInstance("hot", 1000 + i, "vc0", 0, i * 10.0));
  }
  std::vector<int64_t> want;
  for (int i = 86; i < 150; ++i) want.push_back(1000 + i);
  EXPECT_EQ(RecentJobIds(repo_, *repo_.FindGroup(HashString("strict-hot"))),
            want);

  int64_t picks = SweepAgainstRescan(
      100, true, [](std::mt19937& rng, WorkloadRepository* repo) {
        IngestRandom(rng, 2, 150, 0, repo);
      });
  EXPECT_GT(picks, 100);
}

TEST_F(ViewSelectorTest, BigSubsMatchesRescanAfterTrim) {
  int64_t picks = SweepAgainstRescan(
      100, true, [](std::mt19937& rng, WorkloadRepository* repo) {
        for (int day = 0; day < 3; ++day) {
          IngestRandom(rng, 2, 12, day, repo);
        }
        repo->TrimInstancesBefore(1 + static_cast<int>(rng() % 3));
        IngestRandom(rng, 2, 12, 3, repo);
      });
  EXPECT_GT(picks, 200);
}

TEST_F(ViewSelectorTest, JobOrdinalsStayBoundedPastTheRing) {
  // "hot" wraps its ring 20 times over, a new job each time: the jobs that
  // left it lose their ordinals, and the ones it holds keep their order.
  for (int i = 0; i < 64 * 20; ++i) {
    repo_.Ingest(MakeInstance("hot", 5000 + i, "vc0", 0, i * 10.0, 80000.0,
                              1000));
    // One group of 64 instances: at most 2 * (64 + 1) + 1 ordinals.
    ASSERT_LE(repo_.num_jobs(), 131u) << "job " << i;
  }
  std::vector<int64_t> want;
  for (int i = 64 * 19; i < 64 * 20; ++i) want.push_back(5000 + i);
  EXPECT_EQ(RecentJobIds(repo_, *repo_.FindGroup(HashString("strict-hot"))),
            want);
  // "inner" on the newest jobs collapses under "hot" only if the renumbered
  // ordinals still name the jobs they did.
  for (int i = 64 * 20 - 6; i < 64 * 20; ++i) {
    repo_.Ingest(MakeInstance("inner", 5000 + i, "vc0", 0, i * 10.0, 40000.0,
                              1000));
  }
  SelectionResult result =
      ExpectSameAsRescan(repo_, BigSubsConstraints(1ull << 30, 10000));
  EXPECT_TRUE(result.Contains(HashString("strict-hot")));
  EXPECT_FALSE(result.Contains(HashString("strict-inner")));

  // Once the history is trimmed, the next new job finds every ordinal dead.
  repo_.TrimInstancesBefore(1);
  repo_.Ingest(MakeInstance("hot", 9000, "vc0", 1));
  EXPECT_EQ(repo_.num_jobs(), 1u);
  EXPECT_EQ(RecentJobIds(repo_, *repo_.FindGroup(HashString("strict-hot"))),
            std::vector<int64_t>({9000}));
}

TEST_F(ViewSelectorTest, BigSubsMatchesRescanAfterCompaction) {
  // A churning group wraps its ring before and after a random day, so the
  // jobs that left it are dropped and the random day's jobs are renumbered;
  // a second random day reuses those job ids, which must keep one ordinal.
  int64_t picks = SweepAgainstRescan(
      100, true, [](std::mt19937& rng, WorkloadRepository* repo) {
        auto churn = [&](int day, int64_t first_job) {
          const int n = 200 + static_cast<int>(rng() % 400);
          for (int i = 0; i < n; ++i) {
            repo->Ingest(MakeInstance(
                "churn", first_job + i, "vc" + std::to_string(rng() % 2), day,
                day * 86400.0 + i * 100.0, kCosts[rng() % 6], 1000));
          }
        };
        churn(0, 100000);
        IngestRandom(rng, 2, 12, 1, repo);
        churn(2, 200000);
        IngestRandom(rng, 2, 12, 3, repo);
        size_t held = 0;
        for (const SubexpressionGroup* group : repo->groups()) {
          held += group->recent_instances.size();
        }
        EXPECT_LE(repo->num_jobs(), 2 * (held + repo->num_groups()) + 1);
        EXPECT_NE(repo->job_id(0), 100000);  // the first churn job is gone
      });
  EXPECT_GT(picks, 200);
}

TEST_F(ViewSelectorTest, BigSubsMatchesRescanOnRestoredSnapshot) {
  // A restored repository has aggregates but no instance history or job
  // ordinals; later ingests start both afresh.
  int64_t picks = SweepAgainstRescan(
      100, true, [](std::mt19937& rng, WorkloadRepository* repo) {
        WorkloadRepository original;
        IngestRandom(rng, 2, 12, 0, &original);
        ASSERT_TRUE(
            DeserializeRepository(SerializeRepository(original), repo).ok());
        EXPECT_EQ(repo->num_jobs(), 0u);
        SelectionConstraints all = BigSubsConstraints(1ull << 30, 10000);
        all.per_virtual_cluster = true;
        EXPECT_TRUE(ExpectSameAsRescan(*repo, all).selected.empty());
        IngestRandom(rng, 2, 12, 1, repo);
      });
  EXPECT_GT(picks, 200);
}

// The per-day map form of the reusable fraction, over the last 64 submit
// times.
double ReferenceReusableFraction(std::vector<double> times, double window) {
  if (times.size() > InstanceRing::kCapacity) {
    times.erase(times.begin(), times.end() - InstanceRing::kCapacity);
  }
  if (times.size() < 2) return 1.0;
  std::map<int64_t, std::vector<double>> by_day;
  for (double t : times) {
    by_day[static_cast<int64_t>(t / 86400.0)].push_back(t);
  }
  int64_t reusable = 0;
  for (const auto& [day, day_times] : by_day) {
    double first = *std::min_element(day_times.begin(), day_times.end());
    for (double t : day_times) {
      if (t - first >= window) reusable += 1;
    }
  }
  return static_cast<double>(reusable) / static_cast<double>(times.size());
}

TEST_F(ViewSelectorTest, ScheduleAwareMatchesPerDayReference) {
  // Submit times over three days, in order or shuffled, some groups past
  // the ring's capacity. kNoBudget picks every candidate the filter keeps
  // whose scaled utility is positive.
  const double kWindows[] = {60.0, 120.0, 3600.0};
  const double kMinFractions[] = {0.0, 0.3, 0.6};
  for (uint32_t seed = 0; seed < 100; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    std::mt19937 rng(seed);
    WorkloadRepository repo;
    std::map<Hash128, std::vector<double>> times;
    const int signatures = 2 + static_cast<int>(rng() % 20);
    for (int s = 0; s < signatures; ++s) {
      const int instances = 1 + static_cast<int>(rng() % 100);
      const bool shuffled = rng() % 2 == 0;
      for (int k = 0; k < instances; ++k) {
        const double t = shuffled ? static_cast<double>(rng() % 259200)
                                  : k * static_cast<double>(rng() % 4000);
        SubexpressionInstance inst = MakeInstance(
            "f" + std::to_string(s), k, "vc0", 0, t,
            kCosts[rng() % 6], kBytes[rng() % 5]);
        times[inst.strict_signature].push_back(t);
        repo.Ingest(inst);
      }
    }
    SelectionConstraints constraints;
    constraints.strategy = SelectionStrategy::kNoBudget;
    constraints.per_virtual_cluster = false;
    constraints.concurrency_window_seconds = kWindows[rng() % 3];
    constraints.min_reusable_fraction = kMinFractions[rng() % 3];
    SelectionResult result = ViewSelector(constraints).Select(repo);

    int64_t rejected = 0;
    std::map<Hash128, double> want;
    for (const ViewCandidate& cand :
         ViewSelector(constraints).ScoreCandidates(repo)) {
      double fraction =
          ReferenceReusableFraction(times[cand.strict_signature],
                                    constraints.concurrency_window_seconds);
      if (fraction < constraints.min_reusable_fraction) {
        rejected += 1;
      } else if (cand.utility * fraction > 0) {
        want[cand.strict_signature] = cand.utility * fraction;
      }
    }
    EXPECT_EQ(result.rejected_schedule, rejected);
    ASSERT_EQ(result.selected.size(), want.size());
    for (const ViewCandidate& pick : result.selected) {
      ASSERT_EQ(want.count(pick.strict_signature), 1u);
      EXPECT_EQ(std::bit_cast<uint64_t>(pick.utility),
                std::bit_cast<uint64_t>(want[pick.strict_signature]));
    }
  }
}

TEST_F(ViewSelectorTest, BigSubsEvaluationsArePinned) {
  // The marginal-utility evaluations of one seeded repository: a change
  // that makes selection do more work shows up here without timing. The
  // lazy greedy evaluated 228 times here before job ordinals too.
  std::mt19937 rng(7);
  for (int day = 0; day < 10; ++day) IngestRandom(rng, 3, 30, day, &repo_);
  SelectionConstraints constraints = BigSubsConstraints(1 << 20, 10000);
  constraints.per_virtual_cluster = true;
  SelectionResult result = ExpectSameAsRescan(repo_, constraints);
  EXPECT_EQ(result.selected.size(), 4u);
  EXPECT_EQ(result.evaluations, 228);
}

TEST_F(ViewSelectorTest, BigSubsEqualRatiosGoToTheFirstCandidate) {
  // Same cost, size and job count on disjoint jobs: every ratio ties, and
  // the budget holds two. ScoreCandidates orders equal occurrence counts by
  // strict signature, and the first two in that order win.
  for (int s = 0; s < 4; ++s) {
    IngestJobs(&repo_, "tie" + std::to_string(s), 10 * s, 4, 5000.0, 1000);
  }
  SelectionConstraints constraints = BigSubsConstraints(2000, 10000);
  std::vector<ViewCandidate> order =
      ViewSelector(constraints).ScoreCandidates(repo_);
  SelectionResult result = ExpectSameAsRescan(repo_, constraints);
  ASSERT_EQ(result.selected.size(), 2u);
  EXPECT_EQ(result.selected[0].strict_signature, order[0].strict_signature);
  EXPECT_EQ(result.selected[1].strict_signature, order[1].strict_signature);
  EXPECT_EQ(result.rejected_budget, 2);
}

TEST_F(ViewSelectorTest, BigSubsSkipsWhatStopsFittingButTakesSmallerLater) {
  // Budget 10000: "big" (6000 bytes) is taken first, "mid" (5000) no longer
  // fits, and the lower-ratio "small" (1000) still does.
  IngestJobs(&repo_, "big", 0, 8, 90000.0, 6000);
  IngestJobs(&repo_, "mid", 100, 8, 60000.0, 5000);
  IngestJobs(&repo_, "small", 200, 3, 5000.0, 1000);
  SelectionResult result =
      ExpectSameAsRescan(repo_, BigSubsConstraints(10000, 10000));
  ASSERT_EQ(result.selected.size(), 2u);
  EXPECT_EQ(result.selected[0].strict_signature, HashString("strict-big"));
  EXPECT_EQ(result.selected[1].strict_signature, HashString("strict-small"));
  EXPECT_EQ(result.total_storage_bytes, 7000u);
  EXPECT_EQ(result.rejected_budget, 1);
}

TEST_F(ViewSelectorTest, BigSubsStopsAtMaxViews) {
  for (int s = 0; s < 5; ++s) {
    IngestJobs(&repo_, "v" + std::to_string(s), 10 * s, 3 + s, 8000.0, 1000);
  }
  SelectionResult result =
      ExpectSameAsRescan(repo_, BigSubsConstraints(1ull << 30, 2));
  ASSERT_EQ(result.selected.size(), 2u);
  EXPECT_EQ(result.selected[0].strict_signature, HashString("strict-v4"));
  EXPECT_EQ(result.selected[1].strict_signature, HashString("strict-v3"));
  EXPECT_EQ(result.rejected_budget, 3);
}

TEST_F(ViewSelectorTest, BigSubsDropsNonPositiveUtility) {
  // "cheap" costs less to recompute than to read back: non-positive utility
  // up front. "inner" covers the same jobs as "outer" with a smaller saving,
  // so its marginal utility falls to <= 0 once "outer" is taken.
  IngestJobs(&repo_, "cheap", 0, 6, 10.0, 1000);
  IngestJobs(&repo_, "outer", 100, 6, 80000.0, 1000);
  IngestJobs(&repo_, "inner", 100, 6, 40000.0, 1000);
  SelectionResult result =
      ExpectSameAsRescan(repo_, BigSubsConstraints(1ull << 30, 10000));
  ASSERT_EQ(result.selected.size(), 1u);
  EXPECT_EQ(result.selected[0].strict_signature, HashString("strict-outer"));
  EXPECT_EQ(result.rejected_utility, 1);
  EXPECT_EQ(result.rejected_budget, 1);
}

// --- InsightsService ---------------------------------------------------------------

TEST(InsightsServiceTest, PublishAndFetch) {
  InsightsService service;
  SelectionResult selection;
  ViewCandidate cand;
  cand.strict_signature = HashString("s1");
  cand.recurring_signature = HashString("r1");
  cand.utility = 5.0;
  cand.occurrences = 3;
  selection.selected.push_back(cand);
  service.PublishSelection(selection);
  EXPECT_EQ(service.num_annotations(), 1u);

  auto hits = service.FetchAnnotations({HashString("r1"), HashString("r2")});
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].recurring_signature, HashString("r1"));
  EXPECT_EQ(service.fetch_count(), 1);
  EXPECT_GT(service.total_fetch_latency(), 0.0);
}

TEST(InsightsServiceTest, ConcurrentAnnotationFetchesCountEveryCall) {
  // FetchAnnotations is const and called from every concurrently compiling
  // job; its fetch counter is the only mutation. Hammer it from many
  // threads (under TSan this is the regression test for the counter being
  // a plain int64_t) and check no fetch is lost or double-counted.
  InsightsService service;
  SelectionResult selection;
  for (int i = 0; i < 4; ++i) {
    ViewCandidate cand;
    cand.recurring_signature = HashString("conc-" + std::to_string(i));
    cand.utility = 1.0 + i;
    selection.selected.push_back(cand);
  }
  service.PublishSelection(selection);

  constexpr int kThreads = 8;
  constexpr int kFetchesPerThread = 200;
  ThreadPool pool(kThreads);
  TaskGroup group(&pool);
  std::atomic<int64_t> hits_seen{0};
  for (int t = 0; t < kThreads; ++t) {
    group.Spawn([&, t]() -> Status {
      for (int i = 0; i < kFetchesPerThread; ++i) {
        auto hits = service.FetchAnnotations(
            {HashString("conc-" + std::to_string((t + i) % 4)),
             HashString("never-published")});
        if (hits.size() != 1u) {
          return Status::Internal("expected exactly one annotation hit");
        }
        hits_seen.fetch_add(static_cast<int64_t>(hits.size()),
                            std::memory_order_relaxed);
        // Concurrent readers of the counter race with the writers above;
        // the value observed mid-run must be sane, not torn.
        int64_t seen = service.fetch_count();
        if (seen < 1 || seen > kThreads * kFetchesPerThread) {
          return Status::Internal("torn fetch count");
        }
      }
      return Status::OK();
    });
  }
  ASSERT_TRUE(group.Wait().ok());
  EXPECT_EQ(service.fetch_count(), kThreads * kFetchesPerThread);
  EXPECT_EQ(hits_seen.load(), kThreads * kFetchesPerThread);
  EXPECT_GT(service.total_fetch_latency(), 0.0);
}

TEST(InsightsServiceTest, AnnotationsFileContainsTags) {
  InsightsService service;
  SelectionResult selection;
  ViewCandidate cand;
  cand.recurring_signature = HashString("r9");
  selection.selected.push_back(cand);
  service.PublishSelection(selection);
  std::string file = service.ExportAnnotationsFile();
  EXPECT_NE(file.find("cv-"), std::string::npos);
  EXPECT_NE(file.find(HashString("r9").ToHex()), std::string::npos);
}

TEST(InsightsServiceTest, AnnotationsFileRoundTrip) {
  InsightsService service;
  SelectionResult selection;
  for (int i = 0; i < 3; ++i) {
    ViewCandidate cand;
    cand.recurring_signature = HashString("rt-" + std::to_string(i));
    cand.utility = 10.0 * i;
    cand.occurrences = i + 2;
    selection.selected.push_back(cand);
  }
  service.PublishSelection(selection);
  std::string file = service.ExportAnnotationsFile();

  // A fresh service compiled with the annotations file reproduces the
  // served candidate set (the incident-debugging path) with full fidelity:
  // tag, signature, utility, and occurrence count all survive.
  InsightsService debug_service;
  ASSERT_TRUE(debug_service.ImportAnnotationsFile(file).ok());
  EXPECT_EQ(debug_service.num_annotations(), 3u);
  for (int i = 0; i < 3; ++i) {
    auto hits =
        debug_service.FetchAnnotations({HashString("rt-" + std::to_string(i))});
    ASSERT_EQ(hits.size(), 1u);
    EXPECT_EQ(hits[0].recurring_signature,
              HashString("rt-" + std::to_string(i)));
    EXPECT_DOUBLE_EQ(hits[0].expected_utility, 10.0 * i);
    EXPECT_EQ(hits[0].observed_occurrences, i + 2);
    EXPECT_FALSE(hits[0].tag.empty());
  }

  // Import -> re-export is a fixed point up to line order (the serving map
  // is unordered): the same annotation lines, nothing gained or lost.
  auto sorted_lines = [](const std::string& text) {
    std::vector<std::string> lines;
    size_t pos = 0;
    while (pos < text.size()) {
      size_t end = text.find('\n', pos);
      if (end == std::string::npos) end = text.size();
      std::string line = text.substr(pos, end - pos);
      if (!line.empty() && line[0] != '#') lines.push_back(std::move(line));
      pos = end + 1;
    }
    std::sort(lines.begin(), lines.end());
    return lines;
  };
  EXPECT_EQ(sorted_lines(debug_service.ExportAnnotationsFile()),
            sorted_lines(file));
}

TEST(InsightsServiceTest, ImportAnnotationsRejectsMalformedInput) {
  InsightsService service;
  SelectionResult selection;
  ViewCandidate cand;
  cand.recurring_signature = HashString("keep-me");
  selection.selected.push_back(cand);
  service.PublishSelection(selection);

  // Each flavor of corruption is rejected with kCorruption...
  EXPECT_EQ(service.ImportAnnotationsFile("garbage line\n").code(),
            StatusCode::kCorruption);
  EXPECT_EQ(  // signature is not hex
      service.ImportAnnotationsFile("cv-1, nothex, 1.0, 2\n").code(),
      StatusCode::kCorruption);
  EXPECT_EQ(  // missing a field
      service
          .ImportAnnotationsFile("cv-1, " + HashString("x").ToHex() + ", 1.0\n")
          .code(),
      StatusCode::kCorruption);

  // ...and a failed import is atomic: the previously served annotations are
  // untouched (a bad file must not wipe a live serving set).
  EXPECT_EQ(service.num_annotations(), 1u);
  EXPECT_EQ(service.FetchAnnotations({HashString("keep-me")}).size(), 1u);

  // Comments and blank lines are not corruption.
  EXPECT_TRUE(service.ImportAnnotationsFile("# just a comment\n\n").ok());
  EXPECT_EQ(service.num_annotations(), 0u);
}

TEST(InsightsServiceTest, LockProtocol) {
  InsightsService service;
  Hash128 sig = HashString("lock-me");
  EXPECT_TRUE(service.TryAcquireViewLock(sig, 1));
  EXPECT_TRUE(service.TryAcquireViewLock(sig, 1));   // re-entrant for holder
  EXPECT_FALSE(service.TryAcquireViewLock(sig, 2));  // other job denied
  EXPECT_FALSE(service.ReleaseViewLock(sig, 2).ok());
  EXPECT_TRUE(service.ReleaseViewLock(sig, 1).ok());
  EXPECT_TRUE(service.TryAcquireViewLock(sig, 2));
}

TEST(InsightsServiceTest, MultiLevelControls) {
  ReuseControls controls;
  controls.enabled_vcs.insert("vc0");
  // Opt-in model: only vc0 enabled.
  EXPECT_TRUE(controls.IsEnabled("c1", "vc0", true));
  EXPECT_FALSE(controls.IsEnabled("c1", "vc1", true));
  // Job-level toggle.
  EXPECT_FALSE(controls.IsEnabled("c1", "vc0", false));
  // Cluster-level disable.
  controls.disabled_clusters.insert("c1");
  EXPECT_FALSE(controls.IsEnabled("c1", "vc0", true));
  controls.disabled_clusters.clear();
  // Opt-out model: everything except disabled.
  controls.opt_out_model = true;
  EXPECT_TRUE(controls.IsEnabled("c1", "vc7", true));
  controls.disabled_vcs.insert("vc7");
  EXPECT_FALSE(controls.IsEnabled("c1", "vc7", true));
  // Uber switch.
  controls.service_enabled = false;
  EXPECT_FALSE(controls.IsEnabled("c1", "vc0", true));
}

// --- ReuseEngine end-to-end -----------------------------------------------------

class ReuseEngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    testing_util::RegisterFigure4Tables(&catalog_);
    ReuseEngineOptions options;
    options.selection.schedule_aware = false;
    options.selection.per_virtual_cluster = false;
    options.selection.strategy = SelectionStrategy::kGreedyRatio;
    engine_ = std::make_unique<ReuseEngine>(&catalog_, options);
    engine_->insights().controls().enabled_vcs.insert("vc0");
  }

  JobRequest MakeJob(int64_t id, const std::string& sql, double t = 0.0) {
    JobRequest req;
    req.job_id = id;
    req.virtual_cluster = "vc0";
    req.sql = sql;
    req.submit_time = t;
    req.day = static_cast<int>(t / kSecondsPerDay);
    return req;
  }

  DatasetCatalog catalog_;
  std::unique_ptr<ReuseEngine> engine_;
};

const char* kAsiaSql =
    "SELECT Name, Price FROM Sales JOIN Customer "
    "ON Sales.CustomerId = Customer.CustomerId WHERE MktSegment = 'Asia'";

TEST_F(ReuseEngineTest, FullLoopBuildThenReuse) {
  // Day 0: run the job twice; no annotations yet, so no views.
  auto e1 = engine_->RunJob(MakeJob(1, kAsiaSql, 0.0));
  ASSERT_TRUE(e1.ok()) << e1.status().ToString();
  EXPECT_EQ(e1->views_built, 0);
  EXPECT_EQ(e1->views_matched, 0);
  auto e2 = engine_->RunJob(MakeJob(2, kAsiaSql, 1000.0));
  ASSERT_TRUE(e2.ok());

  // Offline analysis selects the common subexpression.
  SelectionResult selection = engine_->RunViewSelection();
  EXPECT_GT(selection.selected.size(), 0u);

  // Next instance materializes...
  auto e3 = engine_->RunJob(MakeJob(3, kAsiaSql, 2000.0));
  ASSERT_TRUE(e3.ok());
  EXPECT_GT(e3->views_built, 0);
  EXPECT_GT(e3->stats.bytes_spooled, 0u);

  // ...and the one after reuses.
  auto e4 = engine_->RunJob(MakeJob(4, kAsiaSql, 3000.0));
  ASSERT_TRUE(e4.ok());
  EXPECT_GT(e4->views_matched, 0);
  EXPECT_GT(e4->stats.view_rows, 0u);
  EXPECT_LT(e4->stats.input_rows, e1->stats.input_rows);
  EXPECT_LT(e4->stats.total_cpu_cost, e1->stats.total_cpu_cost);
  // Same answer either way.
  EXPECT_EQ(e4->output->num_rows(), e1->output->num_rows());
  EXPECT_EQ(engine_->view_store().total_views_reused(), 1);
}

TEST_F(ReuseEngineTest, SelectionMetricsCountEachRun) {
  ASSERT_TRUE(engine_->RunJob(MakeJob(1, kAsiaSql, 0.0)).ok());
  ASSERT_TRUE(engine_->RunJob(MakeJob(2, kAsiaSql, 1000.0)).ok());
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  obs::Counter& runs = registry.counter(obs::metric_names::kSelectionRuns);
  obs::Counter& candidates =
      registry.counter(obs::metric_names::kSelectionCandidates);
  obs::Counter& selected =
      registry.counter(obs::metric_names::kSelectionSelected);
  obs::Histogram& run_us = registry.histogram(
      obs::metric_names::kSelectionRunUs, obs::LatencyBucketsUs());
  const uint64_t runs0 = runs.Value();
  const uint64_t candidates0 = candidates.Value();
  obs::Counter& evaluations =
      registry.counter(obs::metric_names::kSelectionEvaluations);
  const uint64_t evaluations0 = evaluations.Value();
  const uint64_t selected0 = selected.Value();
  const uint64_t timed0 = run_us.GetSnapshot().count;
  // The run time is observed only while tracing.
  const bool was_tracing = obs::Tracer::Enabled();
  obs::Tracer::Global().Enable();
  SelectionResult result = engine_->RunViewSelection();
  if (!was_tracing) obs::Tracer::Global().Disable();
  ASSERT_GT(result.selected.size(), 0u);
  EXPECT_EQ(runs.Value() - runs0, 1u);
  EXPECT_EQ(candidates.Value() - candidates0,
            static_cast<uint64_t>(result.candidates_considered));
  EXPECT_EQ(evaluations.Value() - evaluations0,
            static_cast<uint64_t>(result.evaluations));
  EXPECT_EQ(selected.Value() - selected0, result.selected.size());
  EXPECT_EQ(run_us.GetSnapshot().count - timed0, 1u);
}

TEST_F(ReuseEngineTest, DisabledVcGetsNoReuse) {
  auto run_vc = [&](const std::string& vc, int64_t id) {
    JobRequest req = MakeJob(id, kAsiaSql, id * 1000.0);
    req.virtual_cluster = vc;
    return engine_->RunJob(req);
  };
  ASSERT_TRUE(run_vc("vc0", 1).ok());
  ASSERT_TRUE(run_vc("vc0", 2).ok());
  engine_->RunViewSelection();
  auto e3 = run_vc("vc1", 3);  // not opted in
  ASSERT_TRUE(e3.ok());
  EXPECT_FALSE(e3->reuse_enabled);
  EXPECT_EQ(e3->views_built, 0);
}

TEST_F(ReuseEngineTest, BulkUpdateInvalidatesViews) {
  ASSERT_TRUE(engine_->RunJob(MakeJob(1, kAsiaSql, 0.0)).ok());
  ASSERT_TRUE(engine_->RunJob(MakeJob(2, kAsiaSql, 1000.0)).ok());
  engine_->RunViewSelection();
  ASSERT_TRUE(engine_->RunJob(MakeJob(3, kAsiaSql, 2000.0)).ok());
  ASSERT_GT(engine_->view_store().NumLive(), 0u);

  // Bulk-update both inputs: views reading them are reclaimed, and the next
  // job does NOT match stale views (strict signatures moved with the GUIDs).
  // (Updating only Sales would leave Customer-only subexpression views
  // valid — which is correct, not an invalidation miss.)
  ASSERT_TRUE(catalog_
                  .BulkUpdate("Sales", testing_util::MakeSalesTable(),
                              "guid-sales-v2", 3000.0)
                  .ok());
  ASSERT_TRUE(catalog_
                  .BulkUpdate("Customer", testing_util::MakeCustomerTable(),
                              "guid-customer-v2", 3000.0)
                  .ok());
  size_t dropped = engine_->OnDatasetUpdated("Sales");
  dropped += engine_->OnDatasetUpdated("Customer");
  EXPECT_GT(dropped, 0u);
  auto e4 = engine_->RunJob(MakeJob(4, kAsiaSql, 4000.0));
  ASSERT_TRUE(e4.ok());
  EXPECT_EQ(e4->views_matched, 0);
  // But it can re-materialize under the new strict signature (the recurring
  // annotation survived the update).
  EXPECT_GT(e4->views_built, 0);
}

TEST_F(ReuseEngineTest, RuntimeVersionBumpInvalidatesWorld) {
  ASSERT_TRUE(engine_->RunJob(MakeJob(1, kAsiaSql, 0.0)).ok());
  ASSERT_TRUE(engine_->RunJob(MakeJob(2, kAsiaSql, 1000.0)).ok());
  engine_->RunViewSelection();
  ASSERT_TRUE(engine_->RunJob(MakeJob(3, kAsiaSql, 2000.0)).ok());
  ASSERT_GT(engine_->view_store().NumLive(), 0u);

  engine_->OnRuntimeVersionChange(2);
  EXPECT_EQ(engine_->view_store().NumLive(), 0u);
  EXPECT_EQ(engine_->insights().num_annotations(), 0u);
  auto e4 = engine_->RunJob(MakeJob(4, kAsiaSql, 3000.0));
  ASSERT_TRUE(e4.ok());
  EXPECT_EQ(e4->views_matched, 0);
  EXPECT_EQ(e4->views_built, 0);
}

TEST_F(ReuseEngineTest, ViewsExpireAfterTtl) {
  ASSERT_TRUE(engine_->RunJob(MakeJob(1, kAsiaSql, 0.0)).ok());
  ASSERT_TRUE(engine_->RunJob(MakeJob(2, kAsiaSql, 1000.0)).ok());
  engine_->RunViewSelection();
  ASSERT_TRUE(engine_->RunJob(MakeJob(3, kAsiaSql, 2000.0)).ok());
  ASSERT_GT(engine_->view_store().NumLive(), 0u);
  // One week + a bit later, maintenance purges them.
  engine_->Maintenance(8 * kSecondsPerDay);
  EXPECT_EQ(engine_->view_store().NumLive(), 0u);
}

TEST_F(ReuseEngineTest, CompileOnlyDoesNotExecute) {
  auto outcome = engine_->CompileJob(MakeJob(1, kAsiaSql, 0.0));
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(engine_->repository().total_instances(), 0);
}

TEST_F(ReuseEngineTest, JobLevelOptOut) {
  ASSERT_TRUE(engine_->RunJob(MakeJob(1, kAsiaSql, 0.0)).ok());
  ASSERT_TRUE(engine_->RunJob(MakeJob(2, kAsiaSql, 1000.0)).ok());
  engine_->RunViewSelection();
  JobRequest req = MakeJob(3, kAsiaSql, 2000.0);
  req.cloudviews_enabled = false;
  auto e3 = engine_->RunJob(req);
  ASSERT_TRUE(e3.ok());
  EXPECT_EQ(e3->views_built, 0);
  EXPECT_FALSE(e3->reuse_enabled);
}

TEST_F(ReuseEngineTest, EachViewReusedManyTimes) {
  ASSERT_TRUE(engine_->RunJob(MakeJob(1, kAsiaSql, 0.0)).ok());
  ASSERT_TRUE(engine_->RunJob(MakeJob(2, kAsiaSql, 1000.0)).ok());
  engine_->RunViewSelection();
  ASSERT_TRUE(engine_->RunJob(MakeJob(3, kAsiaSql, 2000.0)).ok());
  for (int64_t id = 4; id < 10; ++id) {
    auto e = engine_->RunJob(MakeJob(id, kAsiaSql, id * 1000.0));
    ASSERT_TRUE(e.ok());
    EXPECT_GT(e->views_matched, 0);
  }
  EXPECT_EQ(engine_->view_store().total_views_reused(), 6);
}

}  // namespace
}  // namespace cloudviews
