// Property-based differential testing of generalized view matching: seeded
// random (view predicate, query predicate) pairs over shared schemas are run
// through CheckSubsumption. Whenever the checker CLAIMS containment, the
// claim is discharged by execution — materialize the view, splice the
// compensation via BuildCompensation, and byte-compare against running the
// query subtree directly. A single mismatch is a soundness bug. Pairs that
// are contained BY CONSTRUCTION but declined by the checker count as
// completeness misses, which are budgeted (the checker is allowed to be
// incomplete, not allowed to be wrong). The stage-1 feature filter is held
// to its contract on every pair: FeatureMayContain == false must imply the
// exact checker rejects.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "exec/executor.h"
#include "optimizer/compensation.h"
#include "plan/containment.h"
#include "plan/signature.h"
#include "storage/catalog.h"
#include "storage/view_store.h"
#include "tests/test_util.h"
#include "verify/plan_verifier.h"

namespace cloudviews {
namespace {

// Shared layout mirroring the workload generator's cooked datasets: every
// table is join-compatible, so random join shapes always type-check.
constexpr int kColId = 0;
constexpr int kColFk = 1;
constexpr int kColDim1 = 2;
constexpr int kColDim2 = 3;
constexpr int kColMetric1 = 4;
constexpr int kColMetric2 = 5;
constexpr int kNumCols = 6;

Schema CookedSchema() {
  return Schema({{"id", DataType::kInt64},
                 {"fk", DataType::kInt64},
                 {"dim1", DataType::kString},
                 {"dim2", DataType::kInt64},
                 {"metric1", DataType::kDouble},
                 {"metric2", DataType::kInt64}});
}

TablePtr MakeCookedTable(const std::string& name, int rows, uint64_t seed) {
  Random rng(seed);
  auto table = std::make_shared<Table>(name, CookedSchema());
  for (int r = 0; r < rows; ++r) {
    table
        ->Append({Value(static_cast<int64_t>(r)),
                  Value(static_cast<int64_t>(rng.Uniform(120))),
                  Value("cat" + std::to_string(rng.Uniform(8))),
                  Value(static_cast<int64_t>(rng.Uniform(100))),
                  Value(rng.NextDouble() * 100.0),
                  Value(rng.UniformRange(0, 1000))})
        .ok();
  }
  return table;
}

ExprPtr Col(int index, const std::string& name) {
  return Expr::MakeColumn(index, name);
}
ExprPtr IntLit(int64_t v) { return Expr::MakeLiteral(Value(v)); }

const char* ColName(int index) {
  static const char* kNames[] = {"id", "fk", "dim1", "dim2", "metric1",
                                 "metric2"};
  return kNames[index];
}

std::string Render(const TablePtr& table) {
  if (table == nullptr) return "<no output>";
  std::string out;
  for (const Row& row : table->rows()) {
    for (const Value& v : row) {
      out += v.is_null() ? "<null>" : v.ToString();
      out += "|";
    }
    out += "\n";
  }
  return out;
}

// One range conjunct over an int64 column of the left (filtered) table.
ExprPtr RandomRangeConjunct(Random* rng) {
  static const int kIntCols[] = {kColFk, kColDim2, kColMetric2};
  static const int64_t kDomain[] = {120, 100, 1001};
  size_t pick = rng->Uniform(3);
  int col = kIntCols[pick];
  int64_t domain = kDomain[pick];
  ExprPtr c = Col(col, ColName(col));
  switch (rng->Uniform(6)) {
    case 0:
      return Expr::MakeBinary(sql::BinaryOp::kLt, c,
                              IntLit(rng->UniformRange(1, domain)));
    case 1:
      return Expr::MakeBinary(sql::BinaryOp::kLe, c,
                              IntLit(rng->UniformRange(0, domain - 1)));
    case 2:
      return Expr::MakeBinary(sql::BinaryOp::kGt, c,
                              IntLit(rng->UniformRange(-1, domain - 2)));
    case 3:
      return Expr::MakeBinary(sql::BinaryOp::kGe, c,
                              IntLit(rng->UniformRange(0, domain - 1)));
    case 4: {
      int64_t lo = rng->UniformRange(0, domain - 1);
      int64_t hi = rng->UniformRange(lo, domain - 1);
      return Expr::MakeBetween(c, IntLit(lo), IntLit(hi), /*negated=*/false);
    }
    default:
      return Expr::MakeBinary(sql::BinaryOp::kEq, c,
                              IntLit(rng->UniformRange(0, domain - 1)));
  }
}

// String-equality conjunct (a range with string bounds).
ExprPtr CategoryConjunct(Random* rng) {
  return Expr::MakeBinary(
      sql::BinaryOp::kEq, Col(kColDim1, "dim1"),
      Expr::MakeLiteral(Value("cat" + std::to_string(rng->Uniform(8)))));
}

// Opaque conjunct: outside the range fragment, so containment requires an
// identical twin on the query side.
ExprPtr OpaqueConjunct(Random* rng) {
  if (rng->Bernoulli(0.5)) {
    return Expr::MakeLike(Col(kColDim1, "dim1"),
                          "cat" + std::to_string(rng->Uniform(8)) + "%",
                          /*negated=*/false);
  }
  return Expr::MakeIsNull(Col(kColDim1, "dim1"), /*negated=*/true);
}

std::vector<ExprPtr> RandomConjuncts(Random* rng, int max_conjuncts,
                                     bool allow_opaque) {
  std::vector<ExprPtr> out;
  int n = static_cast<int>(rng->Uniform(static_cast<uint64_t>(max_conjuncts)));
  for (int i = 0; i < n; ++i) {
    double roll = rng->NextDouble();
    if (roll < 0.15 && allow_opaque) {
      out.push_back(OpaqueConjunct(rng));
    } else if (roll < 0.4) {
      out.push_back(CategoryConjunct(rng));
    } else {
      out.push_back(RandomRangeConjunct(rng));
    }
  }
  return out;
}

// Conjuncts restricted to `allowed` columns (for root-divergent pairs whose
// residual must survive the group-by / projection remap).
ExprPtr NarrowingConjunct(Random* rng, const std::vector<int>& allowed) {
  int col = allowed[rng->Uniform(allowed.size())];
  if (col == kColDim1) return CategoryConjunct(rng);
  int64_t domain = col == kColDim2 ? 100 : (col == kColFk ? 120 : 1001);
  ExprPtr c = Col(col, ColName(col));
  if (rng->Bernoulli(0.5)) {
    return Expr::MakeBinary(sql::BinaryOp::kLt, c,
                            IntLit(rng->UniformRange(1, domain)));
  }
  return Expr::MakeBinary(sql::BinaryOp::kGe, c,
                          IntLit(rng->UniformRange(0, domain - 1)));
}

enum class RootShape { kNone, kRollup, kProject };

struct GeneratedPair {
  LogicalOpPtr query;
  LogicalOpPtr view;
  // True when the pair is contained by construction (query conjuncts are a
  // superset of the view's, root divergence within the provable fragment):
  // a rejection is a completeness miss, never a correctness issue.
  bool known_contained = false;
};

// Builds Filter(conjuncts) over Scan(left), optionally joined with Scan of
// the right table. `conjuncts` may be empty (no Filter node at all, which
// exercises the query-only / view-only filter asymmetry).
LogicalOpPtr BuildBase(const DatasetCatalog& catalog,
                       const std::vector<ExprPtr>& conjuncts, bool join) {
  auto left = catalog.Lookup("events");
  LogicalOpPtr plan = LogicalOp::Scan("events", left->guid,
                                      left->table->schema());
  ExprPtr pred = CanonicalConjunction(conjuncts);
  if (pred != nullptr) plan = LogicalOp::Filter(plan, pred);
  if (join) {
    auto right = catalog.Lookup("users");
    LogicalOpPtr scan = LogicalOp::Scan("users", right->guid,
                                        right->table->schema());
    ExprPtr condition = Expr::MakeBinary(sql::BinaryOp::kEq,
                                         Col(kColFk, "fk"),
                                         Col(kNumCols + kColId, "id"));
    plan = LogicalOp::Join(plan, scan, sql::JoinKind::kInner, condition);
  }
  return plan;
}

AggregateSpec RandomAggSpec(Random* rng) {
  AggregateSpec spec;
  switch (rng->Uniform(5)) {
    case 0:
      spec.func = AggFunc::kCountStar;
      spec.output_name = "n";
      break;
    case 1:
      // Integer sums only: rollup re-aggregation re-adds partials, and
      // int64 addition (unlike double) is associative, keeping the
      // byte-identity oracle exact.
      spec.func = AggFunc::kSum;
      spec.arg = Col(kColMetric2, "metric2");
      spec.output_name = "s";
      break;
    case 2:
      spec.func = AggFunc::kMin;
      spec.arg = Col(kColMetric2, "metric2");
      spec.output_name = "mn";
      break;
    case 3:
      spec.func = AggFunc::kMax;
      spec.arg = Col(kColMetric2, "metric2");
      spec.output_name = "mx";
      break;
    default:
      spec.func = AggFunc::kCount;
      spec.arg = Col(kColId, "id");
      spec.output_name = "c";
      break;
  }
  return spec;
}

GeneratedPair GeneratePair(const DatasetCatalog& catalog, Random* rng) {
  GeneratedPair pair;
  bool join = rng->Bernoulli(0.4);
  bool constructed = rng->Bernoulli(0.5);
  RootShape root = RootShape::kNone;
  if (constructed) {
    double roll = rng->NextDouble();
    if (roll < 0.25) {
      root = RootShape::kRollup;
    } else if (roll < 0.5) {
      root = RootShape::kProject;
    }
  }

  std::vector<ExprPtr> view_conjuncts =
      RandomConjuncts(rng, 4, /*allow_opaque=*/true);
  std::vector<ExprPtr> query_conjuncts;
  if (constructed) {
    // Contained by construction: the query keeps every view conjunct
    // (identical ExprPtr, so opaque twins match) and narrows further.
    query_conjuncts = view_conjuncts;
    std::vector<int> allowed;
    if (root == RootShape::kNone) {
      allowed = {kColFk, kColDim1, kColDim2, kColMetric2};
    } else {
      // Root-divergent residuals must remap through the view's group keys /
      // projected columns; both root shapes below keep dim1 and dim2.
      allowed = {kColDim1, kColDim2};
    }
    int extras = static_cast<int>(rng->Uniform(3));
    for (int i = 0; i < extras; ++i) {
      query_conjuncts.push_back(NarrowingConjunct(rng, allowed));
    }
    pair.known_contained = true;
  } else {
    query_conjuncts = RandomConjuncts(rng, 4, /*allow_opaque=*/true);
  }

  LogicalOpPtr view_base = BuildBase(catalog, view_conjuncts, join);
  LogicalOpPtr query_base = BuildBase(catalog, query_conjuncts, join);

  switch (root) {
    case RootShape::kNone:
      pair.view = std::move(view_base);
      pair.query = std::move(query_base);
      break;
    case RootShape::kRollup: {
      // View groups by (dim1, dim2); query rolls up to one of them.
      std::vector<ExprPtr> view_keys = {Col(kColDim1, "dim1"),
                                        Col(kColDim2, "dim2")};
      AggregateSpec spec = RandomAggSpec(rng);
      pair.view = LogicalOp::Aggregate(view_base, view_keys, {spec});
      std::vector<ExprPtr> query_keys = {
          rng->Bernoulli(0.5) ? Col(kColDim1, "dim1") : Col(kColDim2, "dim2")};
      pair.query = LogicalOp::Aggregate(query_base, query_keys, {spec});
      break;
    }
    case RootShape::kProject: {
      // View projects a column superset; query projects a rearranged subset.
      std::vector<int> view_cols = {kColDim1, kColDim2, kColMetric2, kColFk};
      std::vector<ExprPtr> view_exprs;
      std::vector<std::string> view_names;
      for (int c : view_cols) {
        view_exprs.push_back(Col(c, ColName(c)));
        view_names.push_back(ColName(c));
      }
      pair.view = LogicalOp::Project(view_base, view_exprs, view_names);
      std::vector<ExprPtr> query_exprs;
      std::vector<std::string> query_names;
      int keep = 1 + static_cast<int>(rng->Uniform(3));
      for (int i = 0; i < keep; ++i) {
        int c = view_cols[rng->Uniform(view_cols.size())];
        query_exprs.push_back(Col(c, ColName(c)));
        query_names.push_back(ColName(c));
      }
      pair.query = LogicalOp::Project(query_base, query_exprs, query_names);
      break;
    }
  }
  return pair;
}

class ContainmentPropertyTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  void SetUp() override {
    catalog_.Register("events", MakeCookedTable("events", 240, 0xE1), "g-ev")
        .ok();
    catalog_.Register("users", MakeCookedTable("users", 90, 0xF2), "g-us")
        .ok();
  }

  TablePtr Execute(const LogicalOpPtr& plan, ViewStore* store) {
    ExecContext context;
    context.catalog = &catalog_;
    context.view_store = store;
    Executor executor(context);
    auto run = executor.Execute(plan);
    EXPECT_TRUE(run.ok()) << run.status().ToString();
    return run.ok() ? run->output : nullptr;
  }

  DatasetCatalog catalog_;
};

TEST_P(ContainmentPropertyTest, AcceptedClaimsAreByteExact) {
  constexpr int kPairs = 400;
  // Completeness budget: at most 2% of the constructed-contained pairs may
  // be declined. (Soundness has no budget: zero mismatches, always.)
  constexpr double kMissCeiling = 0.02;

  Random rng(GetParam() * 0x9E3779B97F4A7C15ULL + 1);
  SignatureComputer computer;
  int accepted = 0;
  int constructed_total = 0;
  int completeness_misses = 0;
  int pruned = 0;

  for (int i = 0; i < kPairs; ++i) {
    GeneratedPair pair = GeneratePair(catalog_, &rng);
    SubsumptionResult proof = CheckSubsumption(*pair.query, *pair.view);

    // Stage-1 contract on every pair, accepted or not: a feature-filter
    // prune must never drop a pair the exact checker accepts.
    SubsumptionFeatures view_features =
        ComputeSubsumptionFeatures(*pair.view);
    SubsumptionFeatures query_features =
        ComputeSubsumptionFeatures(*pair.query);
    if (!FeatureMayContain(view_features, query_features)) {
      pruned += 1;
      EXPECT_FALSE(proof.contained)
          << "pair " << i << ": stage-1 pruned a pair stage-2 accepts\n"
          << "query:\n"
          << pair.query->ToString() << "view:\n"
          << pair.view->ToString();
    }

    if (pair.known_contained) {
      constructed_total += 1;
      if (!proof.contained) {
        completeness_misses += 1;
      }
    }
    if (!proof.contained) continue;
    accepted += 1;

    // Discharge the claim: materialize the view, compensate, compare bytes.
    NodeSignature sig = computer.Compute(*pair.view);
    ViewStore store;
    ASSERT_TRUE(
        store.BeginMaterialize(sig.strict, sig.recurring, "vc0", 0, 0.0).ok());
    TablePtr view_rows = Execute(pair.view, nullptr);
    ASSERT_NE(view_rows, nullptr);
    uint64_t bytes = 0;
    for (const Row& row : view_rows->rows()) {
      for (const Value& v : row) bytes += v.ByteSize();
    }
    ASSERT_TRUE(
        store.Seal(sig.strict, view_rows, view_rows->num_rows(), bytes, 0.0)
            .ok());

    CompensationPlan comp = BuildCompensation(
        sig.strict, sig.recurring, "", pair.view->output_schema, proof);
    ASSERT_NE(comp.root, nullptr);
    ASSERT_NE(comp.view_scan, nullptr);

    verify::PlanVerifyOptions verify_options;
    verify_options.catalog = &catalog_;
    Status verified = verify::PlanVerifier(verify_options).Verify(*comp.root);
    EXPECT_TRUE(verified.ok())
        << "pair " << i << ": " << verified.ToString() << "\ncompensation:\n"
        << comp.root->ToString();

    TablePtr direct = Execute(pair.query, nullptr);
    TablePtr compensated = Execute(comp.root, &store);
    ASSERT_NE(direct, nullptr);
    ASSERT_NE(compensated, nullptr);
    EXPECT_EQ(Render(direct), Render(compensated))
        << "pair " << i << ": containment claim is WRONG\nquery:\n"
        << pair.query->ToString() << "view:\n"
        << pair.view->ToString() << "compensation:\n"
        << comp.root->ToString();
  }

  // The run exercised what it claims: plenty of accepted pairs (both
  // constructed and organically-contained random ones) and a live stage-1
  // filter that actually pruned something.
  EXPECT_GT(accepted, kPairs / 5);
  EXPECT_GT(pruned, 0);
  EXPECT_GT(constructed_total, kPairs / 3);
  EXPECT_LE(completeness_misses,
            static_cast<int>(kMissCeiling * constructed_total))
      << completeness_misses << " of " << constructed_total
      << " known-contained pairs declined";
}

INSTANTIATE_TEST_SUITE_P(SeededPairs, ContainmentPropertyTest,
                         ::testing::Values(11u, 22u, 33u));

}  // namespace
}  // namespace cloudviews
