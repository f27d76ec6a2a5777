#include "bench_math.h"

#include <gtest/gtest.h>

#include <deque>
#include <vector>

#include "core/insights_service.h"
#include "obs/profile.h"

namespace e2e_bench {
namespace {

using cloudviews::InsightsService;
using cloudviews::obs::QueryProfile;

QueryProfile Profile(int64_t job_id, double bind, double compile,
                     double execute, double ingest) {
  QueryProfile p;
  p.job_id = job_id;
  p.phases = {{"bind", bind},
              {"compile", compile},
              {"execute", execute},
              {"ingest", ingest}};
  p.input_rows = 10;
  return p;
}

TEST(TailPercentile, LeavesTenSamplesBeyond) {
  EXPECT_EQ(TailPercentile(1000), 99);  // rank 990, 10 beyond
  EXPECT_EQ(TailPercentile(999), 98);   // p99 rank 990 leaves only 9
  EXPECT_EQ(TailPercentile(100000), 99);
  EXPECT_EQ(TailPercentile(200), 95);   // rank 190, 10 beyond
  EXPECT_EQ(TailPercentile(20), 50);    // rank 10, 10 beyond
  EXPECT_EQ(TailPercentile(19), 0);     // no percentile leaves 10 beyond
  EXPECT_EQ(TailPercentile(0), 0);
}

TEST(Percentile, NearestRank) {
  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) v.push_back(i);
  EXPECT_EQ(Percentile(v, 50), 500);
  EXPECT_EQ(Percentile(v, TailPercentile(v.size())), 990);
  EXPECT_EQ(Median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(Percentile({}, 50), 0.0);
}

TEST(SelfSeconds, SubtractsTheUnionOfChildren) {
  EXPECT_DOUBLE_EQ(SelfSeconds({0, 10}, {}), 10);
  EXPECT_DOUBLE_EQ(SelfSeconds({0, 10}, {{1, 3}, {5, 6}}), 7);
  // Overlapping children are counted once.
  EXPECT_DOUBLE_EQ(SelfSeconds({0, 10}, {{1, 4}, {2, 5}, {3, 4}}), 6);
  // Children reaching outside the parent are clipped to it.
  EXPECT_DOUBLE_EQ(SelfSeconds({2, 10}, {{0, 4}, {9, 12}}), 5);
  EXPECT_DOUBLE_EQ(SelfSeconds({0, 1}, {{0, 1}}), 0);
}

TEST(AttributeCall, SingleJobIsFullyAttributed) {
  std::deque<QueryProfile> ring = {Profile(7, 0.1, 0.2, 0.3, 0.1)};
  CallAttribution call = AttributeCall(1.0, {7}, ring);
  ASSERT_EQ(call.profiles.size(), 1u);
  EXPECT_EQ(call.unattributed_jobs, 0);
  EXPECT_DOUBLE_EQ(call.phases.Seconds(), 0.7);
  EXPECT_DOUBLE_EQ(call.unattributed_seconds, 0.0);
  EXPECT_EQ(call.phases.input_rows, 10u);
}

TEST(AttributeCall, WindowLargerThanTheProfileRing) {
  // A window of 100 jobs leaves only the newest kMaxProfiles profiles in the
  // ring, exactly as the engine's FinalizeJob loop does.
  const size_t window = 100;
  std::deque<QueryProfile> ring;
  std::vector<int64_t> ids;
  for (size_t i = 0; i < window; ++i) {
    ids.push_back(static_cast<int64_t>(1000 + i));
    ring.push_back(Profile(ids.back(), 0.001, 0.001, 0.006, 0.002));
    if (ring.size() > InsightsService::kMaxProfiles) ring.pop_front();
  }
  CallAttribution call = AttributeCall(2.0, ids, ring);
  EXPECT_EQ(call.profiles.size(), InsightsService::kMaxProfiles);
  EXPECT_EQ(call.unattributed_jobs,
            static_cast<int>(window - InsightsService::kMaxProfiles));
  EXPECT_EQ(call.profiles.front()->job_id, 1036);
  const double phases = 0.01 * InsightsService::kMaxProfiles;
  EXPECT_NEAR(call.phases.Seconds(), phases, 1e-9);
  // Without every profile the window's own time cannot be told apart from
  // the missing jobs' phases: the whole remainder is unattributed.
  EXPECT_NEAR(call.unattributed_seconds, 2.0 - phases, 1e-9);
}

TEST(AttributeCall, IgnoresProfilesOfOtherJobs) {
  std::deque<QueryProfile> ring = {Profile(1, 1, 1, 1, 1),
                                   Profile(2, 0.1, 0.1, 0.1, 0.1)};
  CallAttribution call = AttributeCall(0.5, {2}, ring);
  EXPECT_EQ(call.unattributed_jobs, 0);
  EXPECT_DOUBLE_EQ(call.phases.Seconds(), 0.4);
}

TEST(AtReferenceSpeed, ScalesByTheProbe) {
  // A pass measured while the probe ran 1.5x slower than its reference
  // time is reported 1.5x shorter.
  EXPECT_DOUBLE_EQ(AtReferenceSpeed(3.0, 1.5 * kReferenceProbeSeconds), 2.0);
  EXPECT_DOUBLE_EQ(AtReferenceSpeed(3.0, kReferenceProbeSeconds), 3.0);
  EXPECT_DOUBLE_EQ(AtReferenceSpeed(3.0, 0.0), 3.0);
  EXPECT_GT(HostProbeSeconds(), 0.0);
}

TEST(WallLedger, ThroughputExcludesGeneratorTime) {
  WallLedger ledger;
  ledger.engine_seconds = 2.0;
  ledger.jobs = 500;
  EXPECT_DOUBLE_EQ(ledger.JobsPerSecond(), 250.0);
  ledger.generator_seconds = 100.0;
  EXPECT_DOUBLE_EQ(ledger.JobsPerSecond(), 250.0);
  EXPECT_DOUBLE_EQ(WallLedger{}.JobsPerSecond(), 0.0);
}

}  // namespace
}  // namespace e2e_bench
