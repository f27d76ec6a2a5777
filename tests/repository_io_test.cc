#include <cstdio>

#include <gtest/gtest.h>

#include <iterator>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "core/repository_io.h"
#include "core/view_selection.h"

namespace cloudviews {
namespace {

SubexpressionInstance MakeInstance(const std::string& seed, int64_t job,
                                   const std::string& vc, int day) {
  SubexpressionInstance inst;
  inst.strict_signature = HashString("s-" + seed);
  inst.recurring_signature = HashString("r-" + seed);
  inst.job_id = job;
  inst.virtual_cluster = vc;
  inst.day = day;
  inst.submit_time = day * 86400.0 + job;
  inst.subtree_size = 4;
  inst.cpu_cost = 1234.5;
  inst.rows = 42;
  inst.bytes = 4096;
  inst.input_datasets = {"ds1", "ds2"};
  return inst;
}

std::unique_ptr<WorkloadRepository> MakeFilled() {
  auto repo = std::make_unique<WorkloadRepository>();
  for (int i = 0; i < 6; ++i) repo->Ingest(MakeInstance("hot", i, "vc0", 0));
  for (int i = 0; i < 3; ++i) repo->Ingest(MakeInstance("hot", i, "vc1", 1));
  repo->Ingest(MakeInstance("cold", 100, "vc0", 1));
  SubexpressionInstance bad = MakeInstance("bad", 101, "vc0", 1);
  bad.eligible = false;
  repo->Ingest(bad);
  return repo;
}

TEST(RepositoryIoTest, RoundTripPreservesAggregates) {
  std::unique_ptr<WorkloadRepository> original(MakeFilled());
  std::string snapshot = SerializeRepository(*original);

  WorkloadRepository restored;
  ASSERT_TRUE(DeserializeRepository(snapshot, &restored).ok());

  EXPECT_EQ(restored.total_instances(), original->total_instances());
  EXPECT_EQ(restored.num_groups(), original->num_groups());
  EXPECT_DOUBLE_EQ(restored.AverageRepeatFrequency(),
                   original->AverageRepeatFrequency());
  EXPECT_DOUBLE_EQ(restored.PercentRepeated(), original->PercentRepeated());

  const SubexpressionGroup* hot = restored.FindGroup(HashString("s-hot"));
  ASSERT_NE(hot, nullptr);
  EXPECT_EQ(hot->occurrences, 9);
  EXPECT_EQ(hot->cost_samples, 9);
  EXPECT_DOUBLE_EQ(hot->AvgCpuCost(), 1234.5);
  EXPECT_EQ(hot->virtual_clusters,
            (std::vector<std::string>{"vc0", "vc1"}));
  EXPECT_EQ(hot->input_datasets, (std::vector<std::string>{"ds1", "ds2"}));
  EXPECT_EQ(hot->first_day, 0);
  EXPECT_EQ(hot->last_day, 1);

  const SubexpressionGroup* bad = restored.FindGroup(HashString("s-bad"));
  ASSERT_NE(bad, nullptr);
  EXPECT_FALSE(bad->eligible);

  // Day stats survive too.
  auto days = restored.OverlapByDay();
  ASSERT_EQ(days.size(), 2u);
  EXPECT_EQ(days[0].total_subexpressions, 6);
  EXPECT_EQ(days[0].repeated_subexpressions, 5);
}

TEST(RepositoryIoTest, SelectionOverRestoredRepository) {
  // The point of persistence: analysis can run over a restored snapshot.
  std::unique_ptr<WorkloadRepository> original(MakeFilled());
  WorkloadRepository restored;
  ASSERT_TRUE(
      DeserializeRepository(SerializeRepository(*original), &restored).ok());
  SelectionConstraints constraints;
  constraints.schedule_aware = false;  // instance history is not persisted
  constraints.per_virtual_cluster = false;
  constraints.strategy = SelectionStrategy::kGreedyRatio;
  ViewSelector selector(constraints);
  SelectionResult from_original = selector.Select(*original);
  SelectionResult from_restored = selector.Select(restored);
  EXPECT_EQ(from_original.selected.size(), from_restored.selected.size());
  EXPECT_EQ(from_restored.Contains(HashString("s-hot")),
            from_original.Contains(HashString("s-hot")));
}

TEST(RepositoryIoTest, RejectsNonEmptyTarget) {
  std::unique_ptr<WorkloadRepository> original(MakeFilled());
  std::string snapshot = SerializeRepository(*original);
  WorkloadRepository not_empty;
  not_empty.Ingest(MakeInstance("x", 1, "vc0", 0));
  EXPECT_FALSE(DeserializeRepository(snapshot, &not_empty).ok());
}

TEST(RepositoryIoTest, RejectsCorruptInput) {
  WorkloadRepository repo;
  EXPECT_EQ(DeserializeRepository("", &repo).code(), StatusCode::kCorruption);
  EXPECT_EQ(DeserializeRepository("wrong header\n", &repo).code(),
            StatusCode::kCorruption);
  EXPECT_EQ(DeserializeRepository(
                "cloudviews-repository v1\nbogus\trecord\n", &repo)
                .code(),
            StatusCode::kCorruption);
  EXPECT_EQ(DeserializeRepository(
                "cloudviews-repository v1\ngroup\tnot-hex\tnot-hex\t1\t1\t1"
                "\t1\t1\t1\t1\t0\t0\t-\t-\n",
                &repo)
                .code(),
            StatusCode::kCorruption);
}

TEST(RepositoryIoTest, EmptyRepositoryRoundTrips) {
  WorkloadRepository empty;
  WorkloadRepository restored;
  ASSERT_TRUE(
      DeserializeRepository(SerializeRepository(empty), &restored).ok());
  EXPECT_EQ(restored.num_groups(), 0u);
}

TEST(RepositoryIoTest, FileSaveAndLoad) {
  std::unique_ptr<WorkloadRepository> original(MakeFilled());
  std::string path = ::testing::TempDir() + "/repo_snapshot.txt";
  ASSERT_TRUE(SaveRepository(*original, path).ok());
  WorkloadRepository restored;
  ASSERT_TRUE(LoadRepository(path, &restored).ok());
  EXPECT_EQ(restored.num_groups(), original->num_groups());
  std::remove(path.c_str());

  WorkloadRepository other;
  EXPECT_EQ(LoadRepository("/nonexistent/path.txt", &other).code(),
            StatusCode::kNotFound);
}

// Applies one seeded mutation to a snapshot: a byte flip, a truncation, a
// dropped or an extra tab field, or a field replaced by malformed hex or a
// malformed number.
std::string Mutate(const std::string& snapshot, std::mt19937& rng) {
  static const char* const kBadNumbers[] = {
      "",   "-",  "+",   "--1", "1.5", "-1", "0x10", "1e999", "nan", "inf",
      "99999999999999999999", "9223372036854775807", "-9223372036854775808",
      "4294967296"};
  static const char* const kBadHex[] = {
      "",  "0", "zz", "0123456789abcdef0123456789abcdeg",
      "0123456789abcdef0123456789abcdef0", "-123456789abcdef0123456789abcdef"};
  std::string out = snapshot;
  const uint32_t kind = rng() % 6;
  if (kind == 0) {
    out[rng() % out.size()] = static_cast<char>(rng() % 256);
    return out;
  }
  if (kind == 1) return out.substr(0, rng() % out.size());
  // The other kinds edit one tab field of one line.
  std::vector<std::string> lines;
  for (size_t start = 0; start < out.size();) {
    size_t end = out.find('\n', start);
    if (end == std::string::npos) end = out.size();
    lines.push_back(out.substr(start, end - start));
    start = end + 1;
  }
  std::string& line = lines[rng() % lines.size()];
  std::vector<std::string> fields;
  for (size_t start = 0;;) {
    size_t tab = line.find('\t', start);
    fields.push_back(line.substr(start, tab - start));
    if (tab == std::string::npos) break;
    start = tab + 1;
  }
  const size_t at = rng() % fields.size();
  if (kind == 2) {
    fields.erase(fields.begin() + static_cast<long>(at));
  } else if (kind == 3) {
    fields.insert(fields.begin() + static_cast<long>(at),
                  std::to_string(rng() % 1000));
  } else if (kind == 4) {
    fields[at] = kBadHex[rng() % std::size(kBadHex)];
  } else {
    fields[at] = kBadNumbers[rng() % std::size(kBadNumbers)];
  }
  line.clear();
  for (size_t i = 0; i < fields.size(); ++i) {
    line += (i > 0 ? "\t" : "") + fields[i];
  }
  out.clear();
  for (const std::string& l : lines) out += l + "\n";
  return out;
}

TEST(RepositoryIoTest, HostileSnapshotsFailCleanlyOrRestore) {
  // Every mutated snapshot either fails with a Status or restores a
  // repository that selection runs on under every strategy; the
  // sanitizer builds run this too.
  auto original = MakeFilled();
  for (int i = 0; i < 20; ++i) {
    original->Ingest(MakeInstance("g" + std::to_string(i % 7), 200 + i,
                                  "vc" + std::to_string(i % 3), i % 4));
  }
  const std::string valid = SerializeRepository(*original);
  std::mt19937 rng(20200201);
  int restored = 0;
  int rejected = 0;
  for (int i = 0; i < 10000; ++i) {
    std::string input = Mutate(valid, rng);
    for (uint32_t extra = rng() % 3; extra > 0; --extra) {
      if (!input.empty()) input = Mutate(input, rng);
    }
    WorkloadRepository repository;
    if (!DeserializeRepository(input, &repository).ok()) {
      rejected += 1;
      continue;
    }
    restored += 1;
    for (SelectionStrategy strategy :
         {SelectionStrategy::kBigSubs, SelectionStrategy::kGreedyRatio,
          SelectionStrategy::kTopKFrequency, SelectionStrategy::kNoBudget}) {
      SelectionConstraints constraints;
      constraints.strategy = strategy;
      constraints.min_occurrences = 1;
      constraints.storage_budget_bytes = 1 << 20;
      SelectionResult result = ViewSelector(constraints).Select(repository);
      EXPECT_LE(result.selected.size(), repository.num_groups());
    }
  }
  EXPECT_GT(restored, 500);
  EXPECT_GT(rejected, 500);
}

TEST(RepositoryIoTest, ImpossibleCountsAreCorrupt) {
  // Found by the mutation test under UBSan: a group's instance count
  // overflowed the repository's total (signed overflow).
  const std::string group_prefix =
      "cloudviews-repository v1\ngroup\t" + HashString("a").ToHex() + "\t" +
      HashString("b").ToHex() + "\t";
  const std::string rest = "\t1\t1\t1\t1\t1\t1\t0\t0\tvc0\tds\n";
  auto load = [&](const std::string& occurrences_and_more) {
    WorkloadRepository repository;
    return DeserializeRepository(group_prefix + occurrences_and_more,
                                 &repository)
        .code();
  };
  EXPECT_EQ(load("1" + rest), StatusCode::kOk);
  EXPECT_EQ(load("0" + rest), StatusCode::kCorruption);
  EXPECT_EQ(load("-3" + rest), StatusCode::kCorruption);
  // cost_samples above occurrences.
  EXPECT_EQ(load("1\t1\t1\t2\t1\t1\t1\t0\t0\tvc0\tds\n"),
            StatusCode::kCorruption);
  const std::string huge =
      "cloudviews-repository v1\ngroup\t" + HashString("a").ToHex() + "\t" +
      HashString("b").ToHex() + "\t9223372036854775807" + rest + "group\t" +
      HashString("c").ToHex() + "\t" + HashString("d").ToHex() + "\t5" + rest;
  WorkloadRepository repository;
  EXPECT_EQ(DeserializeRepository(huge, &repository).code(),
            StatusCode::kCorruption);
}

// Loads a snapshot of one group with the given subtree size and virtual
// cluster list, every other field valid.
StatusCode LoadOneGroup(const std::string& subtree_size,
                        const std::string& vcs) {
  WorkloadRepository repository;
  return DeserializeRepository(
             "cloudviews-repository v1\ngroup\t" + HashString("a").ToHex() +
                 "\t" + HashString("b").ToHex() + "\t1\t" + subtree_size +
                 "\t1\t1\t1\t1\t1\t0\t0\t" + vcs + "\tds\n",
             &repository)
      .code();
}

TEST(RepositoryIoTest, SubtreeSizeBelowOneIsCorrupt) {
  // No signature covers fewer than one operator, and "-1" must not wrap to
  // 2^64 - 1 in the unsigned field.
  EXPECT_EQ(LoadOneGroup("1", "vc0"), StatusCode::kOk);
  EXPECT_EQ(LoadOneGroup("0", "vc0"), StatusCode::kCorruption);
  EXPECT_EQ(LoadOneGroup("-1", "vc0"), StatusCode::kCorruption);
}

TEST(RepositoryIoTest, RepeatedVirtualClusterIsCorrupt) {
  // Ingest records each virtual cluster once; a repeat would put the
  // candidate into that cluster's selection pass twice.
  EXPECT_EQ(LoadOneGroup("1", "vc0,vc1"), StatusCode::kOk);
  EXPECT_EQ(LoadOneGroup("1", "vc0,vc0"), StatusCode::kCorruption);
  EXPECT_EQ(LoadOneGroup("1", "vc1,vc0,vc1"), StatusCode::kCorruption);
}

TEST(Hash128Test, FromHexRoundTrip) {
  Hash128 h = HashString("roundtrip");
  Hash128 parsed;
  ASSERT_TRUE(Hash128::FromHex(h.ToHex(), &parsed));
  EXPECT_EQ(parsed, h);
  EXPECT_FALSE(Hash128::FromHex("short", &parsed));
  EXPECT_FALSE(Hash128::FromHex(std::string(32, 'z'), &parsed));
}

}  // namespace
}  // namespace cloudviews
