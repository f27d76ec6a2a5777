#include "workload/generator.h"

#include <algorithm>
#include <cmath>

#include "common/hash.h"

namespace cloudviews {

namespace {

// Every cooked dataset shares this layout: a row id, a foreign key into a
// 0..199 id domain, two dimension columns, and two metrics. Uniform layouts
// keep generated templates join-compatible, like the normalized outputs of
// a data-cooking stage.
constexpr int kColId = 0;
constexpr int kColFk = 1;
constexpr int kColDim1 = 2;
constexpr int kColDim2 = 3;
constexpr int kColMetric1 = 4;
constexpr int kColMetric2 = 5;
constexpr int kNumCols = 6;
constexpr int kFkDomain = 200;
constexpr int kDim1Cardinality = 10;
constexpr int kDim2Cardinality = 100;

Schema CookedSchema() {
  return Schema({{"id", DataType::kInt64},
                 {"fk", DataType::kInt64},
                 {"dim1", DataType::kString},
                 {"dim2", DataType::kInt64},
                 {"metric1", DataType::kDouble},
                 {"metric2", DataType::kInt64}});
}

ExprPtr Col(int index, const std::string& name) {
  return Expr::MakeColumn(index, name);
}

ExprPtr IntLit(int64_t v) { return Expr::MakeLiteral(Value(v)); }
ExprPtr StrLit(const std::string& s) { return Expr::MakeLiteral(Value(s)); }

}  // namespace

WorkloadGenerator::WorkloadGenerator(WorkloadProfile profile)
    : profile_(std::move(profile)), random_(profile_.seed) {
  // Dataset sizes.
  dataset_rows_.resize(static_cast<size_t>(profile_.num_shared_datasets));
  for (int i = 0; i < profile_.num_shared_datasets; ++i) {
    dataset_rows_[static_cast<size_t>(i)] = static_cast<int>(
        random_.UniformRange(profile_.min_rows, profile_.max_rows));
  }

  // Motifs pick datasets by Zipf popularity: a few hot cooked datasets feed
  // most of the downstream analytics.
  motifs_.reserve(static_cast<size_t>(profile_.num_motifs));
  for (int m = 0; m < profile_.num_motifs; ++m) {
    Motif motif;
    motif.primary_dataset = static_cast<int>(random_.Zipf(
        static_cast<uint64_t>(profile_.num_shared_datasets),
        profile_.zipf_skew));
    motif.secondary_dataset = static_cast<int>(random_.Zipf(
        static_cast<uint64_t>(profile_.num_shared_datasets),
        profile_.zipf_skew));
    if (motif.secondary_dataset == motif.primary_dataset) {
      motif.secondary_dataset =
          (motif.primary_dataset + 1) % profile_.num_shared_datasets;
    }
    motif.filter_category = static_cast<int>(random_.Uniform(kDim1Cardinality));
    motif.time_varying_param = random_.Bernoulli(0.4);
    motif.base_param = static_cast<int>(random_.UniformRange(30, 80));
    motifs_.push_back(motif);
  }

  // Templates: each builds on a motif (Zipf again: hot motifs overlap more)
  // and adds a template-specific tail.
  templates_.reserve(static_cast<size_t>(profile_.num_templates));
  int pipeline_counter = 0;
  for (int t = 0; t < profile_.num_templates; ++t) {
    Template tmpl;
    tmpl.id = t;
    if (random_.Bernoulli(profile_.unshared_template_fraction)) {
      // Private computation: clone a motif shape nobody else uses. Its
      // subexpressions recur across instances of this one template only.
      Motif private_motif;
      private_motif.primary_dataset = static_cast<int>(random_.Zipf(
          static_cast<uint64_t>(profile_.num_shared_datasets),
          profile_.zipf_skew));
      private_motif.secondary_dataset =
          (private_motif.primary_dataset + 1 +
           static_cast<int>(random_.Uniform(
               static_cast<uint64_t>(profile_.num_shared_datasets - 1)))) %
          profile_.num_shared_datasets;
      private_motif.filter_category =
          static_cast<int>(random_.Uniform(kDim1Cardinality));
      private_motif.base_param = static_cast<int>(random_.UniformRange(30, 80));
      tmpl.motif = static_cast<int>(motifs_.size());
      motifs_.push_back(private_motif);
    } else {
      tmpl.motif = static_cast<int>(
          random_.Zipf(static_cast<uint64_t>(profile_.num_motifs), 1.0));
    }
    tmpl.virtual_cluster =
        static_cast<int>(random_.Uniform(
            static_cast<uint64_t>(profile_.num_virtual_clusters)));
    // Group a handful of templates per pipeline.
    if (t % 3 == 0) pipeline_counter += 1;
    tmpl.pipeline = pipeline_counter;
    if (random_.Bernoulli(0.35)) {
      tmpl.extra_dataset = static_cast<int>(random_.Zipf(
          static_cast<uint64_t>(profile_.num_shared_datasets),
          profile_.zipf_skew));
      tmpl.theta_join = random_.Bernoulli(profile_.theta_join_fraction / 0.35);
    }
    tmpl.agg_kind = static_cast<int>(random_.Uniform(4));
    tmpl.group_column = static_cast<int>(random_.Uniform(2));
    if (random_.Bernoulli(profile_.udo_fraction)) {
      tmpl.has_udo = true;
      if (random_.Bernoulli(profile_.nondeterministic_udo_fraction)) {
        tmpl.udo_deterministic = false;
      } else if (random_.Bernoulli(profile_.deep_dependency_udo_fraction)) {
        tmpl.udo_dependency_depth = 40;  // over the signature guard limit
      }
    }
    tmpl.bursty = random_.Bernoulli(profile_.burst_fraction);
    tmpl.submit_offset = random_.NextDouble() * 0.6 * kSecondsPerDay;
    // Narrowed templates: shared motif, strictly tighter dim2 bound. The
    // short-circuit on generalized_fraction keeps the random stream (and
    // therefore every pre-existing workload) untouched when the knob is 0.
    // Pinned to the hottest motifs so other (un-narrowed) templates share
    // the wide subtree — the view a narrowed instance can only reach
    // through containment.
    if (profile_.generalized_fraction > 0.0 &&
        tmpl.motif < profile_.num_motifs &&
        random_.Bernoulli(profile_.generalized_fraction)) {
      tmpl.narrow_delta = 5 + (t % 7) * 3;
      tmpl.motif = t % std::min(3, profile_.num_motifs);
      // Narrow probes trail the pipeline jobs they refine: remap the
      // already-drawn offset from [0, 0.6d) into the back of the day so the
      // shared wide subtree has materialized (and sealed) by the time a
      // containment match can use it. Pure transform — no extra draws, so
      // the random stream stays aligned with generalized_fraction == 0.
      tmpl.bursty = false;
      tmpl.submit_offset =
          0.55 * kSecondsPerDay + tmpl.submit_offset / 3.0;
    }
    templates_.push_back(tmpl);
  }
}

std::string WorkloadGenerator::DatasetName(int i) const {
  return profile_.cluster_name + "_ds" + std::to_string(i);
}

int WorkloadGenerator::num_pipelines() const {
  int max_pipeline = 0;
  for (const Template& t : templates_) {
    max_pipeline = std::max(max_pipeline, t.pipeline);
  }
  return max_pipeline;
}

std::vector<int> WorkloadGenerator::ConsumersOfDataset(int i) const {
  std::vector<int> out;
  for (const Template& t : templates_) {
    const Motif& motif = motifs_[static_cast<size_t>(t.motif)];
    if (motif.primary_dataset == i || motif.secondary_dataset == i ||
        t.extra_dataset == i) {
      out.push_back(t.id);
    }
  }
  return out;
}

TablePtr WorkloadGenerator::GenerateDataset(int index, int day) const {
  // Content depends only on (profile seed, index, day): regenerating the
  // same day twice yields identical data, keeping paired simulations fair.
  Random rng(profile_.seed ^ Mix64(static_cast<uint64_t>(index) * 1000003 +
                                   static_cast<uint64_t>(day)));
  const size_t rows =
      static_cast<size_t>(dataset_rows_[static_cast<size_t>(index)]);
  Schema schema = CookedSchema();
  std::vector<ColumnVector> columns(kNumCols);
  for (size_t c = 0; c < columns.size(); ++c) {
    columns[c].Reserve(rows, schema.column(c).type);
  }
  // Each row draws its cells in column order.
  for (size_t r = 0; r < rows; ++r) {
    columns[kColId].AppendInt64(static_cast<int64_t>(r));
    columns[kColFk].AppendInt64(static_cast<int64_t>(rng.Uniform(kFkDomain)));
    columns[kColDim1].AppendString(
        "cat" + std::to_string(rng.Uniform(kDim1Cardinality)));
    columns[kColDim2].AppendInt64(
        static_cast<int64_t>(rng.Uniform(kDim2Cardinality)));
    columns[kColMetric1].AppendDouble(rng.NextDouble() * 100.0);
    columns[kColMetric2].AppendInt64(rng.UniformRange(0, 1000));
  }
  auto table = std::make_shared<Table>(DatasetName(index), std::move(schema));
  table->AdoptColumns(std::move(columns)).ok();
  return table;
}

Status WorkloadGenerator::Setup(DatasetCatalog* catalog) {
  for (int i = 0; i < profile_.num_shared_datasets; ++i) {
    Random guid_rng(profile_.seed ^ Mix64(static_cast<uint64_t>(i) + 17));
    CLOUDVIEWS_RETURN_NOT_OK(catalog->Register(
        DatasetName(i), GenerateDataset(i, 0), guid_rng.Guid()));
  }
  return Status::OK();
}

Status WorkloadGenerator::AdvanceDay(DatasetCatalog* catalog, int day,
                                     std::vector<std::string>* updated) {
  for (int i = 0; i < profile_.num_shared_datasets; ++i) {
    // Deterministic per (dataset, day) update decision.
    Random decide(profile_.seed ^
                  Mix64(static_cast<uint64_t>(i) * 7919 +
                        static_cast<uint64_t>(day) * 104729));
    if (!decide.Bernoulli(profile_.daily_update_fraction)) continue;
    CLOUDVIEWS_RETURN_NOT_OK(catalog->BulkUpdate(
        DatasetName(i), GenerateDataset(i, day), decide.Guid(),
        day * kSecondsPerDay));
    if (updated != nullptr) updated->push_back(DatasetName(i));
  }
  return Status::OK();
}

LogicalOpPtr WorkloadGenerator::BuildMotifPlan(const DatasetCatalog& catalog,
                                               const Motif& motif, int day,
                                               int narrow_delta) const {
  auto scan = [&](int index) -> LogicalOpPtr {
    auto dataset = catalog.Lookup(DatasetName(index));
    if (!dataset.ok()) return nullptr;
    return LogicalOp::Scan(DatasetName(index), dataset->guid,
                           dataset->table->schema());
  };
  LogicalOpPtr primary = scan(motif.primary_dataset);
  LogicalOpPtr secondary = scan(motif.secondary_dataset);
  if (primary == nullptr || secondary == nullptr) return nullptr;

  // Filter: dim1 = 'cat<k>' AND dim2 < p. The parameter p is shared by all
  // templates on this motif; for time-varying motifs it moves daily, which
  // changes strict signatures but not recurring ones.
  int param = motif.base_param;
  if (motif.time_varying_param) param = 20 + (motif.base_param + day * 7) % 60;
  // Narrowed templates keep dim2 strictly inside the shared bound, so their
  // motif subtree is contained in (but never equal to) the shared view.
  if (narrow_delta > 0) param = std::max(1, param - narrow_delta);
  ExprPtr predicate = Expr::MakeBinary(
      sql::BinaryOp::kAnd,
      Expr::MakeBinary(sql::BinaryOp::kEq, Col(kColDim1, "dim1"),
                       StrLit("cat" + std::to_string(motif.filter_category))),
      Expr::MakeBinary(sql::BinaryOp::kLt, Col(kColDim2, "dim2"),
                       IntLit(param)));
  LogicalOpPtr filtered = LogicalOp::Filter(primary, predicate);

  // Join with the secondary dataset. Alternate between a lookup-style join
  // (fk = id) and a many-to-many join (fk = fk) across motifs.
  bool lookup = motif.filter_category % 2 == 0;
  int right_key = lookup ? kColId : kColFk;
  ExprPtr condition = Expr::MakeBinary(
      sql::BinaryOp::kEq, Col(kColFk, "fk"),
      Col(kNumCols + right_key, lookup ? "id" : "fk"));
  return LogicalOp::Join(filtered, secondary, sql::JoinKind::kInner,
                         condition);
}

LogicalOpPtr WorkloadGenerator::InstantiateTemplate(
    const DatasetCatalog& catalog, const Template& tmpl, int day) const {
  const Motif& motif = motifs_[static_cast<size_t>(tmpl.motif)];
  LogicalOpPtr plan = BuildMotifPlan(catalog, motif, day, tmpl.narrow_delta);
  if (plan == nullptr) return nullptr;

  if (tmpl.extra_dataset >= 0) {
    auto dataset = catalog.Lookup(DatasetName(tmpl.extra_dataset));
    if (!dataset.ok()) return nullptr;
    LogicalOpPtr extra =
        LogicalOp::Scan(DatasetName(tmpl.extra_dataset), dataset->guid,
                        dataset->table->schema());
    int arity = static_cast<int>(plan->output_schema.num_columns());
    if (tmpl.theta_join) {
      // Theta join against a narrow slice of the extra dataset: no equi
      // keys, so only a nested-loop implementation is possible.
      LogicalOpPtr sliced = LogicalOp::Filter(
          extra, Expr::MakeBinary(sql::BinaryOp::kEq, Col(kColDim2, "dim2"),
                                  IntLit(tmpl.id % kDim2Cardinality)));
      ExprPtr condition = Expr::MakeBinary(
          sql::BinaryOp::kGt, Col(kColMetric2, "metric2"),
          Col(arity + kColMetric2, "metric2"));
      plan = LogicalOp::Join(plan, sliced, sql::JoinKind::kInner, condition);
    } else {
      ExprPtr condition =
          Expr::MakeBinary(sql::BinaryOp::kEq, Col(kColFk, "fk"),
                           Col(arity + kColId, "id"));
      plan = LogicalOp::Join(plan, extra, sql::JoinKind::kInner, condition);
    }
  }

  if (tmpl.has_udo) {
    std::string name = tmpl.udo_deterministic
                           ? "Extractor_t" + std::to_string(tmpl.motif)
                           : "Guid.NewGuid_t" + std::to_string(tmpl.id);
    plan = LogicalOp::Udo(plan, name, tmpl.udo_deterministic,
                          tmpl.udo_dependency_depth,
                          /*selectivity=*/0.8, /*cost_per_row=*/2.0);
  }

  // Aggregate tail (template-specific: this is where queries differ even
  // when they share the cooked motif underneath).
  int group_idx = tmpl.group_column == 0 ? kNumCols + kColDim1
                                         : kNumCols + kColDim2;
  std::vector<ExprPtr> keys = {
      Col(group_idx, tmpl.group_column == 0 ? "dim1" : "dim2")};
  AggregateSpec agg;
  agg.output_name = "agg0";
  switch (tmpl.agg_kind) {
    case 0:
      agg.func = AggFunc::kSum;
      agg.arg = Col(kColMetric1, "metric1");
      break;
    case 1:
      agg.func = AggFunc::kAvg;
      agg.arg = Col(kColMetric1, "metric1");
      break;
    case 2:
      agg.func = AggFunc::kCountStar;
      break;
    default:
      agg.func = AggFunc::kMax;
      agg.arg = Col(kColMetric2, "metric2");
      break;
  }
  return LogicalOp::Aggregate(plan, keys, {agg});
}

LogicalOpPtr WorkloadGenerator::BuildAdhocPlan(const DatasetCatalog& catalog,
                                               Random* rng) const {
  int index = static_cast<int>(
      rng->Uniform(static_cast<uint64_t>(profile_.num_shared_datasets)));
  auto dataset = catalog.Lookup(DatasetName(index));
  if (!dataset.ok()) return nullptr;
  LogicalOpPtr scan = LogicalOp::Scan(DatasetName(index), dataset->guid,
                                      dataset->table->schema());
  // Ad hoc analyses carry one-off literals, so their subexpressions repeat
  // with probability ~0.
  ExprPtr predicate = Expr::MakeBinary(
      sql::BinaryOp::kGt, Col(kColMetric1, "metric1"),
      Expr::MakeLiteral(Value(rng->NextDouble() * 100.0)));
  LogicalOpPtr filtered = LogicalOp::Filter(scan, predicate);
  std::vector<ExprPtr> keys = {Col(kColDim1, "dim1")};
  AggregateSpec agg;
  agg.func = AggFunc::kCount;
  agg.arg = Col(kColId, "id");
  agg.output_name = "n";
  return LogicalOp::Aggregate(filtered, keys, {agg});
}

std::vector<GeneratedJob> WorkloadGenerator::JobsForDay(
    const DatasetCatalog& catalog, int day) {
  std::vector<GeneratedJob> jobs;
  Random day_rng(profile_.seed ^ Mix64(static_cast<uint64_t>(day) + 999331));
  double day_start = day * kSecondsPerDay;

  for (const Template& tmpl : templates_) {
    for (int k = 0; k < profile_.instances_per_template_per_day; ++k) {
      GeneratedJob job;
      job.job_id = next_job_id_++;
      job.template_id = tmpl.id;
      job.pipeline_id = tmpl.pipeline;
      job.virtual_cluster = "vc" + std::to_string(tmpl.virtual_cluster);
      job.day = day;
      if (tmpl.bursty) {
        // Burst at period start: every instance lands within the window.
        job.submit_time = day_start + 300.0 +
                          day_rng.NextDouble() * profile_.burst_window_seconds;
      } else {
        double spacing =
            0.35 * kSecondsPerDay /
            std::max(1, profile_.instances_per_template_per_day);
        job.submit_time = day_start + tmpl.submit_offset + k * spacing +
                          day_rng.NextDouble() * 600.0;
      }
      job.plan = InstantiateTemplate(catalog, tmpl, day);
      if (job.plan != nullptr) jobs.push_back(std::move(job));
    }
  }

  // Ad hoc (non-recurring) jobs.
  int recurring = static_cast<int>(jobs.size());
  int adhoc = static_cast<int>(
      std::round(recurring * profile_.adhoc_fraction /
                 std::max(1e-9, 1.0 - profile_.adhoc_fraction)));
  for (int i = 0; i < adhoc; ++i) {
    GeneratedJob job;
    job.job_id = next_job_id_++;
    job.template_id = -1;
    job.pipeline_id = -1;
    job.virtual_cluster =
        "vc" + std::to_string(day_rng.Uniform(
                   static_cast<uint64_t>(profile_.num_virtual_clusters)));
    job.day = day;
    job.submit_time = day_start + day_rng.NextDouble() * 0.95 * kSecondsPerDay;
    job.plan = BuildAdhocPlan(catalog, &day_rng);
    if (job.plan != nullptr) jobs.push_back(std::move(job));
  }

  std::sort(jobs.begin(), jobs.end(),
            [](const GeneratedJob& a, const GeneratedJob& b) {
              return a.submit_time < b.submit_time;
            });
  return jobs;
}

}  // namespace cloudviews
