// Decision provenance tests. The reachability fixture drives the optimizer
// and the sharing rewrite through constructed scenarios that hit every
// reason in the closed registry — a reason nothing can reach is dead weight
// the lint wall would then protect forever. The determinism test proves the
// explain export is byte-identical across same-seed reruns; the
// differential test proves recording never perturbs what executes (outputs
// and reuse counts are byte-identical with the ledger on or off); the
// reconcile test checks that every priced saving is recompute − view scan
// and that the decision traces and the provenance ledger agree on it, hit
// by hit; and the concurrency test hammers one ledger from many threads for
// the TSan suite.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "core/reuse_engine.h"
#include "core/view_selection.h"
#include "exec/executor.h"
#include "obs/decision.h"
#include "obs/provenance.h"
#include "optimizer/optimizer.h"
#include "plan/containment.h"
#include "plan/signature.h"
#include "plan/view_index.h"
#include "sharing/sharing_policy.h"
#include "sharing/sharing_rewrite.h"
#include "storage/catalog.h"
#include "storage/view_store.h"

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

// Saves and restores the process-wide decision gate around each test, so
// the suite leaves the gate as it found it regardless of test order.
class LedgerGate {
 public:
  explicit LedgerGate(bool on) : was_(obs::DecisionLedger::Enabled()) {
    if (on) {
      obs::DecisionLedger::Enable();
    } else {
      obs::DecisionLedger::Disable();
    }
  }
  ~LedgerGate() {
    if (was_) {
      obs::DecisionLedger::Enable();
    } else {
      obs::DecisionLedger::Disable();
    }
  }

 private:
  bool was_;
};

class DecisionTraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    catalog_.Register("events", MakeCookedTable("events", 220, 0xAB), "d-ev")
        .ok();
    catalog_.Register("users", MakeCookedTable("users", 70, 0xCD), "d-us")
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

  LogicalOpPtr AggOver(LogicalOpPtr child, std::vector<ExprPtr> group_by) {
    AggregateSpec spec;
    spec.func = AggFunc::kSum;
    spec.arg = Col(kColMetric2, "metric2");
    spec.output_name = "s";
    return LogicalOp::Aggregate(std::move(child), std::move(group_by), {spec});
  }

  // Materializes `def` into `store` and returns its signature. When
  // `inflate_observed` is set, the sealed entry reports absurdly large
  // observed rows/bytes, making every scan of it cost more than any
  // recompute — the deterministic way to force cost-gate rejections.
  NodeSignature SealView(ViewStore* store, const LogicalOpPtr& def,
                         bool inflate_observed = false) {
    SignatureComputer computer;
    NodeSignature sig = computer.Compute(*def);
    EXPECT_TRUE(
        store->BeginMaterialize(sig.strict, sig.recurring, "vc0", 0, 0.0)
            .ok());
    ExecContext context;
    context.catalog = &catalog_;
    Executor executor(context);
    auto rows = executor.Execute(def);
    EXPECT_TRUE(rows.ok()) << rows.status().ToString();
    const uint64_t observed_rows =
        inflate_observed ? uint64_t{1} << 40
                         : static_cast<uint64_t>((*rows).output->num_rows());
    const uint64_t observed_bytes = inflate_observed ? uint64_t{1} << 50 : 0;
    EXPECT_TRUE(store
                    ->Seal(sig.strict, (*rows).output, observed_rows,
                           observed_bytes, 0.0)
                    .ok());
    return sig;
  }

  // Optimizes `plan` with decision recording into `ledger` under `job_id`.
  void OptimizeWith(const LogicalOpPtr& plan, const ViewStore* store,
                    const GeneralizedViewIndex* index,
                    const QueryAnnotations& annotations,
                    const Optimizer::TryLockFn& try_lock,
                    obs::DecisionLedger* ledger, int64_t job_id) {
    OptimizerOptions options;
    if (index != nullptr) {
      options.enable_generalized_matching = true;
      options.generalized_index = index;
    }
    Optimizer optimizer(&catalog_, options);
    // The suite optimizes one plan repeatedly; Optimize annotates the sealed
    // plan it is given, so each call gets its own sealed copy.
    LogicalOpPtr sealed = plan->Clone();
    SignatureComputer().SealTree(sealed.get());
    auto outcome =
        optimizer.Optimize(sealed, annotations, store, try_lock, 0.0,
                           obs::DecisionSink(ledger, job_id));
    ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  }

  DatasetCatalog catalog_;
};

// --- Reachability: every reason in the registry has a constructing input ---

TEST_F(DecisionTraceTest, EveryReasonReachable) {
  LedgerGate gate(true);
  obs::DecisionLedger ledger;
  int64_t next_job = 1;

  // kExactHit: the query IS the sealed view.
  {
    ViewStore store;
    SealView(&store, FilteredJoin(DimLt(50)));
    OptimizeWith(FilteredJoin(DimLt(50)), &store, nullptr, {}, nullptr,
                 &ledger, next_job++);
  }
  // kExactCostRejected: same view, but its observed stats price the scan
  // above recomputation.
  {
    ViewStore store;
    SealView(&store, FilteredJoin(DimLt(50)), /*inflate_observed=*/true);
    OptimizeWith(FilteredJoin(DimLt(50)), &store, nullptr, {}, nullptr,
                 &ledger, next_job++);
  }
  // kExactMissNoView: empty store.
  {
    ViewStore store;
    OptimizeWith(FilteredJoin(DimLt(50)), &store, nullptr, {}, nullptr,
                 &ledger, next_job++);
  }
  // kStage1FeaturePruned: candidate's filter range (dim2 < 10) cannot cover
  // the wider query (dim2 < 40) — the feature filter refutes at stage 1
  // (and, in verification builds, the no-false-prune check agrees).
  {
    ViewStore store;
    GeneralizedViewIndex index;
    LogicalOpPtr narrow = FilteredJoin(DimLt(10));
    SignatureComputer computer;
    NodeSignature narrow_sig = computer.Compute(*narrow);
    index.Register(narrow_sig.strict, narrow_sig.recurring, narrow->Clone());
    OptimizeWith(FilteredJoin(DimLt(40)), &store, &index, {}, nullptr,
                 &ledger, next_job++);
  }
  // kStage2NotContained: rollup pair — Aggregate nodes land in one match
  // class on kind alone and carry no filter ranges to prune on, so the pair
  // survives stage 1; the checker then rejects the finer-than-view grouping.
  {
    ViewStore store;
    GeneralizedViewIndex index;
    LogicalOpPtr coarse = AggOver(FilteredJoin(DimLt(50)),
                                  {Col(kNumCols + kColDim1, "dim1")});
    SignatureComputer computer;
    NodeSignature coarse_sig = computer.Compute(*coarse);
    index.Register(coarse_sig.strict, coarse_sig.recurring, coarse->Clone());
    LogicalOpPtr fine = AggOver(FilteredJoin(DimLt(50)),
                                {Col(kNumCols + kColDim1, "dim1"),
                                 Col(kNumCols + kColDim2, "dim2")});
    OptimizeWith(fine, &store, &index, {}, nullptr, &ledger, next_job++);
  }
  // kCandidateViewNotLive: containment holds against the indexed wide
  // definition, but nothing was ever materialized under its signature.
  // kSubsumedHit / kSubsumedCostRejected: the same wide view, sealed with
  // honest vs inflated observed stats.
  {
    LogicalOpPtr wide = FilteredJoin(DimLt(60));
    SignatureComputer computer;
    NodeSignature wide_sig = computer.Compute(*wide);

    ViewStore empty_store;
    GeneralizedViewIndex index;
    index.Register(wide_sig.strict, wide_sig.recurring, wide->Clone());
    OptimizeWith(FilteredJoin(DimLt(40)), &empty_store, &index, {}, nullptr,
                 &ledger, next_job++);

    ViewStore live_store;
    SealView(&live_store, wide);
    OptimizeWith(FilteredJoin(DimLt(40)), &live_store, &index, {}, nullptr,
                 &ledger, next_job++);

    ViewStore costly_store;
    SealView(&costly_store, wide, /*inflate_observed=*/true);
    OptimizeWith(FilteredJoin(DimLt(40)), &costly_store, &index, {}, nullptr,
                 &ledger, next_job++);
  }
  // Build-phase verdicts. The aggregate-over-join plan carries two selected
  // candidates; with a one-spool cap the inner join wins the spool and the
  // outer aggregate records the exhausted cap.
  {
    LogicalOpPtr join = FilteredJoin(DimLt(50));
    LogicalOpPtr agg = AggOver(join->Clone(), {Col(kNumCols + kColDim1,
                                                   "dim1")});
    SignatureComputer computer;
    QueryAnnotations annotations;
    annotations.materialize_candidates.insert(
        computer.Compute(*join).recurring);
    annotations.materialize_candidates.insert(
        computer.Compute(*agg).recurring);
    annotations.max_views_per_job = 1;

    ViewStore store;
    // kSpoolInjected + kSpoolCapReached.
    OptimizeWith(agg, &store, nullptr, annotations,
                 [](const Hash128&) { return true; }, &ledger, next_job++);
    // kSpoolLockDenied: another job holds every creation lock.
    OptimizeWith(agg, &store, nullptr, annotations,
                 [](const Hash128&) { return false; }, &ledger, next_job++);
    // kSpoolAlreadyMaterialized: the join is already being materialized.
    NodeSignature join_sig = computer.Compute(*join);
    ASSERT_TRUE(store
                    .BeginMaterialize(join_sig.strict, join_sig.recurring,
                                      "vc0", 0, 0.0)
                    .ok());
    OptimizeWith(join, &store, nullptr, annotations,
                 [](const Hash128&) { return true; }, &ledger, next_job++);
  }
  // Sharing verdicts, through the rewrite itself.
  {
    auto run_rewrite = [&](sharing::SharingPolicyOptions policy_options,
                           bool with_spool) {
      SignatureComputer computer;
      std::vector<LogicalOpPtr> plans;
      for (int i = 0; i < 2; ++i) {
        LogicalOpPtr subtree = FilteredJoin(DimLt(50));
        if (with_spool) {
          NodeSignature sig = computer.Compute(*subtree);
          LogicalOpPtr spool = LogicalOp::Spool(subtree);
          spool->view_signature = sig.strict;
          subtree = std::move(spool);
        }
        computer.SealTree(subtree.get());
        plans.push_back(std::move(subtree));
      }
      std::vector<LogicalOpPtr*> plan_ptrs;
      std::vector<obs::DecisionSink> sinks;
      for (LogicalOpPtr& plan : plans) {
        plan_ptrs.push_back(&plan);
        sinks.emplace_back(&ledger, next_job++);
      }
      sharing::SharingPolicy policy(policy_options);
      sharing::RewriteForSharing(plan_ptrs, computer, policy, &sinks);
    };
    run_rewrite({}, /*with_spool=*/false);        // kShareNow
    run_rewrite({}, /*with_spool=*/true);         // kShareBoth
    sharing::SharingPolicyOptions strict_policy;
    strict_policy.min_fanout = 3;                 // two jobs cannot satisfy
    run_rewrite(strict_policy, /*with_spool=*/false);  // kShareMaterializeOnly
  }

  std::set<obs::DecisionReason> seen;
  for (const obs::JobDecisionTrace& trace : ledger.Traces()) {
    for (const obs::DecisionEvent& event : trace.events) {
      seen.insert(event.reason);
    }
  }
  for (obs::DecisionReason reason : obs::kAllDecisionReasons) {
    EXPECT_TRUE(seen.count(reason) != 0)
        << "unreachable reason: " << obs::DecisionReasonName(reason);
  }
}

// --- Engine-level harness (mirrors generalized_matching_test's workload) ---

struct EngineRun {
  std::map<int64_t, std::string> outputs;
  int views_built = 0;
  int views_matched = 0;
  int views_matched_subsumed = 0;
  std::string decisions_json;
  double decisions_realized = 0.0;
  double decisions_foregone = 0.0;
  int64_t decision_events = 0;
  double provenance_savings = 0.0;
  std::vector<obs::JobDecisionTrace> traces;
  std::vector<obs::ViewStream> view_streams;
};

// Three recurring jobs per day over one shared wide motif: two wide
// templates materialize the shared join, a narrowed one reuses it through
// containment — every decision stage fires on this workload.
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
    return LogicalOp::Aggregate(std::move(child), {Col(group_col, group_name)},
                                {spec});
  };

  int64_t job_id = 1;
  for (int day = 0; day < days; ++day) {
    double base = day * 86400.0;
    struct Spec {
      LogicalOpPtr plan;
      double offset;
    };
    std::vector<Spec> specs;
    specs.push_back(
        {agg(motif(60), kNumCols + kColDim1, "dim1", AggFunc::kSum), 1000.0});
    specs.push_back(
        {agg(motif(60), kNumCols + kColDim2, "dim2", AggFunc::kMax), 2000.0});
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
      out->views_built += exec->views_built;
      out->views_matched += exec->views_matched;
      out->views_matched_subsumed += exec->views_matched_subsumed;
    }
    engine.RunViewSelection();
    engine.Maintenance((day + 1) * 86400.0);
  }
  out->decisions_json = engine.decisions().ExportJson();
  obs::DecisionTotals totals = engine.decisions().Totals();
  out->decisions_realized = totals.realized_saving;
  out->decisions_foregone = totals.foregone_saving;
  out->decision_events = totals.events;
  out->traces = engine.decisions().Traces();
  out->view_streams = engine.provenance().Streams();
  out->provenance_savings =
      engine.provenance()
          .Totals(days * 86400.0, obs::kDefaultStorageRentPerByteSecond)
          .attributed_savings;
}

TEST_F(DecisionTraceTest, ExplainExportByteIdenticalAcrossReruns) {
  LedgerGate gate(true);
  constexpr int kDays = 3;
  EngineRun first;
  EngineRun second;
  RunEngineDays(&catalog_, true, true, kDays, &first);
  if (HasFatalFailure()) return;
  RunEngineDays(&catalog_, true, true, kDays, &second);

  // The run exercised real decisions (hits, subsumed hits, spools) ...
  EXPECT_GT(first.views_matched, 0);
  EXPECT_GT(first.views_matched_subsumed, 0);
  EXPECT_GT(first.decision_events, 0);
  // ... and two identical runs explain themselves identically, byte for
  // byte — the export depends only on the simulated clock and cost model.
  EXPECT_EQ(first.decisions_json, second.decisions_json);
}

TEST_F(DecisionTraceTest, RealizedSavingsReconcileWithProvenanceLedger) {
  const bool provenance_was = obs::ProvenanceLedger::Enabled();
  obs::ProvenanceLedger::Enable();
  LedgerGate gate(true);
  EngineRun run;
  RunEngineDays(&catalog_, true, true, 3, &run);
  if (!provenance_was) obs::ProvenanceLedger::Disable();
  if (HasFatalFailure()) return;

  // Hit decisions and provenance hit events are denominated in the same
  // cost-model currency and fold from the same matched-view details, so
  // the two ledgers must tell one story (tolerance: float summation order).
  EXPECT_GT(run.decisions_realized, 0.0);
  EXPECT_NEAR(run.decisions_realized, run.provenance_savings,
              1e-6 * (1.0 + run.provenance_savings));

  // Every priced match verdict, hit or miss, exact or generalized, records
  // the one currency's difference, bit for bit. A realized saving is kept
  // per (job, view) for the provenance comparison below.
  std::map<std::pair<int64_t, std::string>, std::vector<double>> realized;
  std::map<obs::DecisionStage, int> priced;
  for (const obs::JobDecisionTrace& trace : run.traces) {
    for (const obs::DecisionEvent& event : trace.events) {
      if ((event.stage != obs::DecisionStage::kExactMatch &&
           event.stage != obs::DecisionStage::kGeneralizedMatch) ||
          event.view_scan_cost <= 0.0) {
        continue;
      }
      priced[event.stage] += 1;
      EXPECT_EQ(std::bit_cast<uint64_t>(event.saving),
                std::bit_cast<uint64_t>(event.recompute_cost -
                                        event.view_scan_cost))
          << "job " << trace.job_id << " "
          << obs::DecisionReasonName(event.reason);
      if (obs::IsHitReason(event.reason)) {
        realized[{trace.job_id, event.candidate_strict.ToHex()}].push_back(
            event.saving);
      }
    }
  }
  EXPECT_GT(priced[obs::DecisionStage::kExactMatch], 0);
  EXPECT_GT(priced[obs::DecisionStage::kGeneralizedMatch], 0);

  // Each provenance hit attributes exactly its job's realized saving.
  std::map<std::pair<int64_t, std::string>, std::vector<double>> attributed;
  for (const obs::ViewStream& stream : run.view_streams) {
    for (const obs::ViewEvent& event : stream.events) {
      if (event.kind == obs::ViewEventKind::kHit) {
        attributed[{event.job_id, stream.strict.ToHex()}].push_back(
            event.saved_cost);
      }
    }
  }
  for (auto* savings : {&realized, &attributed}) {
    for (auto& entry : *savings) {
      std::sort(entry.second.begin(), entry.second.end());
    }
  }
  EXPECT_FALSE(attributed.empty());
  EXPECT_EQ(attributed, realized);
}

TEST_F(DecisionTraceTest, DecisionsDoNotPerturbExecution) {
  constexpr int kDays = 3;
  EngineRun reuse_on;
  EngineRun reuse_off;
  EngineRun reuse_on_traced;
  EngineRun reuse_off_traced;
  {
    LedgerGate gate(false);
    RunEngineDays(&catalog_, true, true, kDays, &reuse_on);
    if (HasFatalFailure()) return;
    RunEngineDays(&catalog_, false, false, kDays, &reuse_off);
  }
  {
    LedgerGate gate(true);
    RunEngineDays(&catalog_, true, true, kDays, &reuse_on_traced);
    if (HasFatalFailure()) return;
    RunEngineDays(&catalog_, false, false, kDays, &reuse_off_traced);
  }

  // Tracing recorded events; the untraced arms recorded none.
  EXPECT_GT(reuse_on_traced.decision_events, 0);
  EXPECT_EQ(reuse_on.decision_events, 0);

  // Recording never feeds back: same outputs, same reuse activity.
  ASSERT_EQ(reuse_on.outputs.size(), reuse_on_traced.outputs.size());
  for (const auto& [id, expected] : reuse_off.outputs) {
    EXPECT_EQ(reuse_on.outputs.at(id), expected)
        << "reuse changed job " << id;
    EXPECT_EQ(reuse_on_traced.outputs.at(id), expected)
        << "decision tracing changed job " << id;
    EXPECT_EQ(reuse_off_traced.outputs.at(id), expected)
        << "decision tracing changed untraced job " << id;
  }
  EXPECT_EQ(reuse_on.views_built, reuse_on_traced.views_built);
  EXPECT_EQ(reuse_on.views_matched, reuse_on_traced.views_matched);
  EXPECT_EQ(reuse_on.views_matched_subsumed,
            reuse_on_traced.views_matched_subsumed);
}

// --- Concurrency: per-job appends from a dop-8 compile pool (TSan) ---------

TEST_F(DecisionTraceTest, ConcurrentAppendsFromEightThreads) {
  LedgerGate gate(true);
  obs::DecisionLedger ledger;
  constexpr int kThreads = 8;
  constexpr int kEventsPerThread = 500;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&ledger, t] {
      // Half the threads share a job id with a neighbor, so trace creation
      // and same-trace appends both race under TSan.
      obs::DecisionSink sink(&ledger, t / 2);
      for (int i = 0; i < kEventsPerThread; ++i) {
        obs::DecisionEvent event;
        event.stage = obs::DecisionStage::kExactMatch;
        event.reason = (i % 2 == 0) ? obs::DecisionReason::kExactHit
                                    : obs::DecisionReason::kExactMissNoView;
        event.saving = (i % 2 == 0) ? 1.0 : 0.0;
        sink.Record(std::move(event));
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  EXPECT_EQ(ledger.num_jobs(), static_cast<size_t>(kThreads / 2));
  EXPECT_EQ(ledger.num_events(),
            static_cast<size_t>(kThreads * kEventsPerThread));
  obs::DecisionTotals totals = ledger.Totals();
  EXPECT_EQ(totals.hits, kThreads * kEventsPerThread / 2);
  EXPECT_EQ(totals.misses, kThreads * kEventsPerThread / 2);
  EXPECT_DOUBLE_EQ(totals.realized_saving, kThreads * kEventsPerThread / 2);
}

}  // namespace
}  // namespace cloudviews
