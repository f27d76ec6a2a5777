// Negative-path and engine-level tests for generalized view matching. The
// near-miss fixtures are the shapes production queries actually present:
// disjunctive predicates, dropped columns, finer-than-view grouping, and
// overlapping-but-not-contained ranges. Every one must be REJECTED by the
// exact checker, and — when routed through the optimizer against an indexed
// candidate — must neither match nor trip the debug no-false-prune
// assertion (a stage-1 prune of a pair stage-2 would accept surfaces as
// Status::Corruption). The engine-level scenarios then prove the positive
// path end to end: a narrowed recurring job reuses the wider view other
// templates materialized, with byte-identical output, a subsumed-flagged
// match detail, and an independent auditor pass over the hit.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "core/reuse_engine.h"
#include "core/view_selection.h"
#include "exec/executor.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "optimizer/optimizer.h"
#include "plan/containment.h"
#include "plan/normalizer.h"
#include "plan/signature.h"
#include "plan/view_index.h"
#include "storage/catalog.h"
#include "storage/view_store.h"
#include "verify/verify.h"

namespace cloudviews {
namespace {

constexpr int kColId = 0;
constexpr int kColFk = 1;
constexpr int kColDim1 = 2;
constexpr int kColDim2 = 3;
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
                  Value(static_cast<int64_t>(rng.Uniform(80))),
                  Value("cat" + std::to_string(rng.Uniform(6))),
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
ExprPtr StrLit(const std::string& s) { return Expr::MakeLiteral(Value(s)); }

ExprPtr DimLt(int64_t bound) {
  return Expr::MakeBinary(sql::BinaryOp::kLt, Col(kColDim2, "dim2"),
                          IntLit(bound));
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

class GeneralizedMatchingTest : public ::testing::Test {
 protected:
  void SetUp() override {
    catalog_.Register("events", MakeCookedTable("events", 220, 0xAB), "g-ev")
        .ok();
    catalog_.Register("users", MakeCookedTable("users", 70, 0xCD), "g-us")
        .ok();
  }

  LogicalOpPtr Scan(const std::string& name) {
    auto dataset = catalog_.Lookup(name);
    EXPECT_TRUE(dataset.ok());
    return LogicalOp::Scan(name, dataset->guid, dataset->table->schema());
  }

  // Filter(events, pred) join users on fk = id.
  LogicalOpPtr FilteredJoin(ExprPtr pred) {
    LogicalOpPtr plan = LogicalOp::Filter(Scan("events"), std::move(pred));
    ExprPtr condition = Expr::MakeBinary(sql::BinaryOp::kEq, Col(kColFk, "fk"),
                                         Col(kNumCols + kColId, "id"));
    return LogicalOp::Join(plan, Scan("users"), sql::JoinKind::kInner,
                           condition);
  }

  DatasetCatalog catalog_;
};

// --- Near-miss negatives: the checker must decline, never mis-accept -------

TEST_F(GeneralizedMatchingTest, DisjunctivePredicateRejected) {
  LogicalOpPtr view = FilteredJoin(DimLt(10));
  LogicalOpPtr query = FilteredJoin(Expr::MakeBinary(
      sql::BinaryOp::kOr, DimLt(5),
      Expr::MakeBinary(sql::BinaryOp::kLt, Col(kColFk, "fk"), IntLit(3))));
  SubsumptionResult proof = CheckSubsumption(*query, *view);
  EXPECT_FALSE(proof.contained);
  // dim2 < 5 OR fk < 3 keeps rows with dim2 >= 10; the view dropped them.
  EXPECT_FALSE(proof.reject_reason.empty());
}

TEST_F(GeneralizedMatchingTest, OverlappingButNotContainedRangesRejected) {
  // BETWEEN 5 AND 15 overlaps BETWEEN 0 AND 10 without being inside it.
  LogicalOpPtr view = FilteredJoin(
      Expr::MakeBetween(Col(kColDim2, "dim2"), IntLit(0), IntLit(10), false));
  LogicalOpPtr query = FilteredJoin(
      Expr::MakeBetween(Col(kColDim2, "dim2"), IntLit(5), IntLit(15), false));
  SubsumptionResult proof = CheckSubsumption(*query, *view);
  EXPECT_FALSE(proof.contained);
}

TEST_F(GeneralizedMatchingTest, DroppedColumnRejected) {
  LogicalOpPtr base_v = FilteredJoin(DimLt(50));
  LogicalOpPtr base_q = FilteredJoin(DimLt(50));
  LogicalOpPtr view = LogicalOp::Project(
      base_v, {Col(kColDim1, "dim1"), Col(kColDim2, "dim2")},
      {"dim1", "dim2"});
  // The query needs metric2, which the view projected away.
  LogicalOpPtr query = LogicalOp::Project(
      base_q, {Col(kColDim1, "dim1"), Col(kColMetric2, "metric2")},
      {"dim1", "metric2"});
  SubsumptionResult proof = CheckSubsumption(*query, *view);
  EXPECT_FALSE(proof.contained);
}

TEST_F(GeneralizedMatchingTest, FinerThanViewGroupingRejected) {
  LogicalOpPtr base_v = FilteredJoin(DimLt(50));
  LogicalOpPtr base_q = FilteredJoin(DimLt(50));
  AggregateSpec spec;
  spec.func = AggFunc::kSum;
  spec.arg = Col(kColMetric2, "metric2");
  spec.output_name = "s";
  // View groups coarser than the query: per-(dim1,dim2) sums cannot be
  // recovered from per-dim1 sums.
  LogicalOpPtr view =
      LogicalOp::Aggregate(base_v, {Col(kColDim1, "dim1")}, {spec});
  LogicalOpPtr query = LogicalOp::Aggregate(
      base_q, {Col(kColDim1, "dim1"), Col(kColDim2, "dim2")}, {spec});
  SubsumptionResult proof = CheckSubsumption(*query, *view);
  EXPECT_FALSE(proof.contained);
}

TEST_F(GeneralizedMatchingTest, AvgRollupRejected) {
  LogicalOpPtr base_v = FilteredJoin(DimLt(50));
  LogicalOpPtr base_q = FilteredJoin(DimLt(50));
  AggregateSpec spec;
  spec.func = AggFunc::kAvg;
  spec.arg = Col(kColMetric2, "metric2");
  spec.output_name = "a";
  LogicalOpPtr view = LogicalOp::Aggregate(
      base_v, {Col(kColDim1, "dim1"), Col(kColDim2, "dim2")}, {spec});
  LogicalOpPtr query =
      LogicalOp::Aggregate(base_q, {Col(kColDim1, "dim1")}, {spec});
  // AVG of per-group AVGs is wrong unless groups are equal-sized; the
  // rollup path must refuse rather than re-average.
  SubsumptionResult proof = CheckSubsumption(*query, *view);
  EXPECT_FALSE(proof.contained);
}

// --- The same near-misses through the optimizer: no match, no assertion ----

// Routes a (query, near-miss view) pair through the full generalized-match
// path: register the view definition, materialize its rows, optimize the
// query. The optimizer must leave the plan alone — and in verification
// builds, the embedded no-false-prune check must stay quiet (an OK status
// here IS the assertion surviving).
void ExpectNoMatchThroughOptimizer(DatasetCatalog* catalog,
                                   const LogicalOpPtr& query,
                                   const LogicalOpPtr& view_def) {
  SignatureComputer computer;
  NodeSignature view_sig = computer.Compute(*view_def);

  GeneralizedViewIndex index;
  index.Register(view_sig.strict, view_sig.recurring, view_def->Clone());
  ASSERT_EQ(index.size(), 1u);

  ViewStore store;
  ASSERT_TRUE(store
                  .BeginMaterialize(view_sig.strict, view_sig.recurring, "vc0",
                                    0, 0.0)
                  .ok());
  ExecContext context;
  context.catalog = catalog;
  Executor executor(context);
  auto rows = executor.Execute(view_def);
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  ASSERT_TRUE(store
                  .Seal(view_sig.strict, rows->output,
                        rows->output->num_rows(), 0, 0.0)
                  .ok());

  OptimizerOptions options;
  options.enable_generalized_matching = true;
  options.generalized_index = &index;
  Optimizer optimizer(catalog, options);
  QueryAnnotations annotations;
  LogicalOpPtr plan = query->Clone();
  computer.SealTree(plan.get());
  auto outcome = optimizer.Optimize(plan, annotations, &store, nullptr, 0.0);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_EQ(outcome->views_matched, 0);
  EXPECT_EQ(outcome->views_matched_subsumed, 0);
}

TEST_F(GeneralizedMatchingTest, NearMissesSurviveNoFalsePruneAssertion) {
  // Overlapping ranges: same skeleton, so the pair reaches stage 1/2.
  ExpectNoMatchThroughOptimizer(
      &catalog_,
      FilteredJoin(Expr::MakeBetween(Col(kColDim2, "dim2"), IntLit(5),
                                     IntLit(15), false)),
      FilteredJoin(Expr::MakeBetween(Col(kColDim2, "dim2"), IntLit(0),
                                     IntLit(10), false)));
  // Disjunctive query predicate against a conjunctive view.
  ExpectNoMatchThroughOptimizer(
      &catalog_,
      FilteredJoin(Expr::MakeBinary(sql::BinaryOp::kOr, DimLt(5),
                                    Expr::MakeBinary(sql::BinaryOp::kLt,
                                                     Col(kColFk, "fk"),
                                                     IntLit(3)))),
      FilteredJoin(DimLt(10)));
  // Different filter category entirely (disjoint string ranges).
  ExpectNoMatchThroughOptimizer(
      &catalog_,
      FilteredJoin(Expr::MakeBinary(sql::BinaryOp::kEq, Col(kColDim1, "dim1"),
                                    StrLit("cat1"))),
      FilteredJoin(Expr::MakeBinary(sql::BinaryOp::kEq, Col(kColDim1, "dim1"),
                                    StrLit("cat2"))));
}

// --- Engine-level: the positive path, end to end ---------------------------

struct EngineRun {
  std::map<int64_t, std::string> outputs;
  int views_matched = 0;
  int views_matched_subsumed = 0;
};

// Three recurring jobs per day over one shared wide motif: two templates
// share the wide join (so selection materializes it), one narrowed template
// can only reuse it through containment.
void RunEngineDays(DatasetCatalog* catalog, bool reuse_on, bool generalized_on,
                   int days, EngineRun* out) {
  ReuseEngineOptions options;
  options.cloudviews_enabled = reuse_on;
  options.optimizer.enable_generalized_matching = generalized_on;
  options.selection.schedule_aware = false;
  options.selection.per_virtual_cluster = false;
  ReuseEngine engine(catalog, options);
  engine.insights().controls().opt_out_model = true;

  auto scan = [&](const std::string& name) {
    auto dataset = catalog->Lookup(name);
    return LogicalOp::Scan(name, dataset->guid, dataset->table->schema());
  };
  auto motif = [&](int64_t bound) {
    LogicalOpPtr filtered = LogicalOp::Filter(
        scan("events"),
        Expr::MakeBinary(
            sql::BinaryOp::kAnd,
            Expr::MakeBinary(sql::BinaryOp::kEq, Col(kColDim1, "dim1"),
                             StrLit("cat1")),
            DimLt(bound)));
    ExprPtr condition = Expr::MakeBinary(sql::BinaryOp::kEq, Col(kColFk, "fk"),
                                         Col(kNumCols + kColId, "id"));
    return LogicalOp::Join(filtered, scan("users"), sql::JoinKind::kInner,
                           condition);
  };
  auto agg = [](LogicalOpPtr child, int group_col, const char* group_name,
                AggFunc func) {
    AggregateSpec spec;
    spec.func = func;
    spec.arg = Col(kColMetric2, "metric2");
    spec.output_name = "agg0";
    return LogicalOp::Aggregate(std::move(child),
                                {Col(group_col, group_name)}, {spec});
  };

  int64_t job_id = 1;
  for (int day = 0; day < days; ++day) {
    double base = day * 86400.0;
    struct Spec {
      LogicalOpPtr plan;
      double offset;
    };
    std::vector<Spec> specs;
    // Two wide templates sharing the wide (dim2 < 60) join subtree.
    specs.push_back(
        {agg(motif(60), kNumCols + kColDim1, "dim1", AggFunc::kSum), 1000.0});
    specs.push_back(
        {agg(motif(60), kNumCols + kColDim2, "dim2", AggFunc::kMax), 2000.0});
    // One narrowed template: dim2 < 40 is strictly inside the wide filter,
    // so its join subtree never exact-matches the shared view.
    specs.push_back(
        {agg(motif(40), kNumCols + kColDim1, "dim1", AggFunc::kSum), 20000.0});
    for (Spec& spec : specs) {
      JobRequest request;
      request.job_id = job_id++;
      request.plan = std::move(spec.plan);
      request.submit_time = base + spec.offset;
      request.day = day;
      auto exec = engine.RunJob(request);
      ASSERT_TRUE(exec.ok()) << exec.status().ToString();
      EXPECT_FALSE(exec->fell_back);
      out->outputs[exec->job_id] = Render(exec->output);
      out->views_matched += exec->views_matched;
      out->views_matched_subsumed += exec->views_matched_subsumed;
      // Subsumed hits must carry a subsumed-flagged match detail.
      if (exec->views_matched_subsumed > 0) {
        int flagged = 0;
        for (const MatchedViewDetail& detail : exec->matched_details) {
          if (detail.subsumed) flagged += 1;
        }
        EXPECT_EQ(flagged, exec->views_matched_subsumed);
      }
    }
    engine.RunViewSelection();
    engine.Maintenance((day + 1) * 86400.0);
  }
  EXPECT_TRUE(engine.signature_audit().ok());
  if (verify::RuntimeChecksEnabled() && out->views_matched_subsumed > 0) {
    // Every subsumption hit went through the auditor's independent path.
    EXPECT_GE(engine.signature_audit().subsumptions_audited,
              static_cast<size_t>(out->views_matched_subsumed));
    EXPECT_TRUE(engine.signature_audit().subsumption_failures.empty());
  }
}

TEST_F(GeneralizedMatchingTest, NarrowedTemplateReusesWideViewByteExact) {
  constexpr int kDays = 3;
  EngineRun generalized;
  EngineRun exact_only;
  EngineRun no_reuse;
  RunEngineDays(&catalog_, true, true, kDays, &generalized);
  if (HasFatalFailure()) return;
  RunEngineDays(&catalog_, true, false, kDays, &exact_only);
  RunEngineDays(&catalog_, false, false, kDays, &no_reuse);

  // The narrowed template found the wider view through containment; the
  // exact-only engine, by definition, could not.
  EXPECT_GT(generalized.views_matched_subsumed, 0);
  EXPECT_EQ(exact_only.views_matched_subsumed, 0);
  EXPECT_EQ(no_reuse.views_matched, 0);
  // Generalized matching strictly adds hits on top of exact matching.
  EXPECT_GT(generalized.views_matched + generalized.views_matched_subsumed,
            exact_only.views_matched);

  // And it is invisible in the outputs: byte-identical, job by job.
  ASSERT_EQ(generalized.outputs.size(), no_reuse.outputs.size());
  for (const auto& [id, expected] : no_reuse.outputs) {
    EXPECT_EQ(generalized.outputs.at(id), expected)
        << "generalized reuse changed job " << id;
    EXPECT_EQ(exact_only.outputs.at(id), expected)
        << "exact reuse changed job " << id;
  }
}

// --- Engine-level: a compile signs each plan node once ---------------------

void CollectNodes(const LogicalOpPtr& node,
                  std::set<const LogicalOp*>* out) {
  out->insert(node.get());
  for (const LogicalOpPtr& child : node->children) CollectNodes(child, out);
}

TEST_F(GeneralizedMatchingTest, EngineSignsEachCompiledNodeOnce) {
  ReuseEngineOptions options;
  options.optimizer.enable_generalized_matching = true;
  ReuseEngine engine(&catalog_, options);
  engine.insights().controls().opt_out_model = true;
  const SignatureComputer computer(options.optimizer.signature_options);

  // Seals the normalized `subtree`'s rows into the engine's view store, as
  // an earlier job's spool would have.
  auto materialize = [&](const LogicalOpPtr& subtree) {
    LogicalOpPtr definition = PlanNormalizer::Normalize(subtree);
    NodeSignature sig = computer.Compute(*definition);
    EXPECT_TRUE(engine.view_store()
                    .BeginMaterialize(sig.strict, sig.recurring, "vc0", 0, 0.0)
                    .ok());
    ExecContext context;
    context.catalog = &catalog_;
    auto rows = Executor(context).Execute(definition);
    EXPECT_TRUE(rows.ok()) << rows.status().ToString();
    uint64_t bytes = 0;
    for (const Row& row : rows->output->rows()) {
      for (const Value& v : row) bytes += v.ByteSize();
    }
    EXPECT_TRUE(engine.view_store()
                    .Seal(sig.strict, rows->output, rows->output->num_rows(),
                          bytes, 0.0)
                    .ok());
    return std::make_pair(definition, sig);
  };
  auto agg = [](LogicalOpPtr child, int group_col) {
    AggregateSpec spec;
    spec.func = AggFunc::kSum;
    spec.arg = Col(kColMetric2, "metric2");
    spec.output_name = "agg0";
    return LogicalOp::Aggregate(std::move(child), {Col(group_col, "dim1")},
                                {spec});
  };

  // An exact view of the (dim2 < 70) join, and a wide (dim2 < 60) view,
  // indexed for containment, that answers the (dim2 < 40) join.
  materialize(FilteredJoin(DimLt(70)));
  auto [wide, wide_sig] = materialize(FilteredJoin(DimLt(60)));
  engine.repository().generalized_index().Register(wide_sig.strict,
                                                   wide_sig.recurring, wide);
  // Selection picked the exact-hit branch's aggregate: the job spools it.
  LogicalOpPtr exact_branch =
      agg(FilteredJoin(DimLt(70)), kNumCols + kColDim1);
  ViewCandidate candidate;
  candidate.recurring_signature =
      computer.Compute(*PlanNormalizer::Normalize(exact_branch)).recurring;
  SelectionResult selection;
  selection.selected.push_back(candidate);
  engine.insights().PublishSelection(selection);

  JobRequest request;
  request.job_id = 1;
  request.submit_time = 1000.0;
  request.plan = LogicalOp::UnionAll(
      {agg(FilteredJoin(DimLt(40)), kNumCols + kColDim1), exact_branch,
       agg(Scan("users"), kColDim1)});
  const obs::Counter& hashed = obs::MetricsRegistry::Global().counter(
      obs::metric_names::kEngineNodesHashed);
  const uint64_t before = hashed.Value();
  auto exec = engine.RunJob(request);
  ASSERT_TRUE(exec.ok()) << exec.status().ToString();
  ASSERT_FALSE(exec->fell_back);
  EXPECT_EQ(exec->views_matched, 2);
  EXPECT_EQ(exec->views_matched_subsumed, 1);
  EXPECT_EQ(exec->built_signatures.size(), 1u);

  // One signature computation per node the job created: the bound plan's
  // nodes, then the view-scan fragments, the spool and the parents copied
  // above them. The untouched third branch is shared, not copied.
  std::set<const LogicalOp*> nodes;
  CollectNodes(exec->compiled_plan, &nodes);
  CollectNodes(exec->executed_plan, &nodes);
  EXPECT_EQ(hashed.Value() - before, nodes.size());
  EXPECT_EQ(exec->executed_plan->children[2],
            exec->compiled_plan->children[2]);
  EXPECT_EQ(exec->executed_plan->children[1]->kind, LogicalOpKind::kSpool);
}

}  // namespace
}  // namespace cloudviews
