#ifndef CLOUDVIEWS_WORKLOAD_GENERATOR_H_
#define CLOUDVIEWS_WORKLOAD_GENERATOR_H_

#include <string>
#include <vector>

#include "cluster/simulator.h"
#include "common/random.h"
#include "common/status.h"
#include "plan/logical_plan.h"
#include "storage/catalog.h"

namespace cloudviews {

// Statistical shape of one production cluster's workload. Defaults are
// calibrated so generated workloads reproduce the paper's distributional
// facts: ~80% recurring jobs, >75% repeated subexpressions, average repeat
// frequency ~5, and more than half of the datasets having multiple distinct
// consumers (Figures 2 and 3).
struct WorkloadProfile {
  std::string cluster_name = "cluster1";
  uint64_t seed = 42;

  int num_virtual_clusters = 5;
  int num_shared_datasets = 40;   // cooked datasets in the store
  int num_motifs = 24;            // shared subexpression building blocks
  int num_templates = 48;         // recurring job templates
  int instances_per_template_per_day = 2;
  // Fraction of templates whose computation is private (no cross-template
  // sharing): recurring work that CloudViews cannot help, diluting the
  // cluster-wide improvements exactly as unshared pipelines do in
  // production.
  double unshared_template_fraction = 0.2;
  double adhoc_fraction = 0.2;    // non-recurring one-off jobs
  double zipf_skew = 1.05;        // dataset popularity skew
  int min_rows = 300;
  int max_rows = 2500;
  // Fraction of templates whose instances are submitted in a burst at the
  // start of the day (the schedule-aware challenge from section 4).
  double burst_fraction = 0.2;
  double burst_window_seconds = 120.0;
  // Fraction of templates whose tail is a theta join (no equi keys), which
  // the optimizer can only execute as a nested-loop join.
  double theta_join_fraction = 0.12;
  // UDO usage.
  double udo_fraction = 0.2;                  // templates containing a UDO
  double nondeterministic_udo_fraction = 0.2; // of those, non-deterministic
  double deep_dependency_udo_fraction = 0.1;  // of those, over-deep deps
  // Fraction of shared datasets bulk-regenerated each day (sliding windows
  // mean most inputs change daily in Cosmos cooking pipelines).
  double daily_update_fraction = 0.8;
  // Fraction of shared-motif templates whose motif filter is *narrowed*
  // (dim2 < p - delta instead of dim2 < p). Their motif subtrees never
  // exact-match the shared view other templates materialize, but are
  // strictly contained in it — exactly the shape generalized view matching
  // recovers with a residual filter. Zero (the default) consumes no
  // randomness, keeping pre-existing workloads byte-identical.
  double generalized_fraction = 0.0;
};

// Generates the shared-dataset store and the recurring job stream for one
// simulated cluster. Deterministic for a fixed profile.
class WorkloadGenerator {
 public:
  explicit WorkloadGenerator(WorkloadProfile profile);

  // Creates and registers the day-0 version of every shared dataset.
  Status Setup(DatasetCatalog* catalog);

  // Bulk-regenerates the day's updated datasets (fresh GUIDs + new data),
  // mirroring the daily cooking runs. Call at the start of each day >= 1.
  // Names of updated datasets are appended to *updated when non-null (the
  // view manager reclaims views reading them).
  Status AdvanceDay(DatasetCatalog* catalog, int day,
                    std::vector<std::string>* updated = nullptr);

  // Generates the day's jobs (bound against the catalog's current dataset
  // versions), sorted by submit time.
  std::vector<GeneratedJob> JobsForDay(const DatasetCatalog& catalog, int day);

  const WorkloadProfile& profile() const { return profile_; }
  int num_pipelines() const;

  // Dataset `index` as regenerated on `day`: a function of the profile's
  // seed, the index and the day alone.
  TablePtr GenerateDataset(int index, int day) const;

  // Dataset name for index i (exposed for analysis benches).
  std::string DatasetName(int i) const;

  // Which template ids read dataset i (distinct consumers, Figure 2).
  std::vector<int> ConsumersOfDataset(int i) const;

 private:
  // A reusable subexpression motif: two datasets joined after a filter.
  // Every template built on the same motif compiles to the same sub-plan,
  // which is exactly what CloudViews discovers and materializes.
  struct Motif {
    int primary_dataset = 0;
    int secondary_dataset = 0;
    int filter_category = 0;       // dim1 = 'cat<k>'
    bool time_varying_param = false;  // dim2 < p where p changes daily
    int base_param = 50;
  };

  // A recurring job template: a motif plus a template-specific tail.
  struct Template {
    int id = 0;
    int motif = 0;
    int virtual_cluster = 0;
    int pipeline = 0;
    int extra_dataset = -1;        // optional third join
    bool theta_join = false;       // extra join is a theta (loop-only) join
    int agg_kind = 0;              // which aggregate tail to build
    int group_column = 0;
    bool has_udo = false;
    bool udo_deterministic = true;
    int udo_dependency_depth = 2;
    bool bursty = false;           // submitted at period start
    double submit_offset = 0.0;    // seconds into the day
    // Narrowing offset applied to the motif's dim2 bound (0 = exact motif).
    // Varied per template so narrowed instances don't form their own large
    // exact-match groups; each stays contained in the shared motif's view.
    int narrow_delta = 0;
  };

  LogicalOpPtr BuildMotifPlan(const DatasetCatalog& catalog,
                              const Motif& motif, int day,
                              int narrow_delta) const;
  LogicalOpPtr InstantiateTemplate(const DatasetCatalog& catalog,
                                   const Template& tmpl, int day) const;
  LogicalOpPtr BuildAdhocPlan(const DatasetCatalog& catalog, Random* rng) const;

  WorkloadProfile profile_;
  Random random_;
  std::vector<Motif> motifs_;
  std::vector<Template> templates_;
  std::vector<int> dataset_rows_;  // base row count per dataset
  int64_t next_job_id_ = 1;
};

}  // namespace cloudviews

#endif  // CLOUDVIEWS_WORKLOAD_GENERATOR_H_
