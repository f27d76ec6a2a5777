#include "checks.h"

#include <algorithm>
#include <unordered_map>
#include <vector>

#include "common/sim_clock.h"
#include "core/reuse_engine.h"
#include "storage/catalog.h"
#include "storage/view_store.h"
#include "workload/generator.h"

namespace e2e_bench {

namespace {

using cloudviews::GeneratedJob;
using cloudviews::Hash128;
using cloudviews::JobExecution;
using cloudviews::JobRequest;
using cloudviews::ReuseEngine;

// Days replayed: enough for views selected from day 0's history to be
// reused on days 1 and 2.
constexpr int kCheckDays = 3;

JobRequest ToRequest(const GeneratedJob& job) {
  JobRequest request;
  request.job_id = job.job_id;
  request.virtual_cluster = job.virtual_cluster;
  request.plan = job.plan;
  request.submit_time = job.submit_time;
  request.day = job.day;
  request.cloudviews_enabled = job.cloudviews_enabled;
  return request;
}

// A non-deterministic UDO keys its keep/drop choice on the order rows reach
// it, and a view's statistics can flip the join below it from hash to loop,
// which reorders those rows. Such a job has no single correct output, so
// the check leaves it out.
bool HasNondeterministicUdo(const cloudviews::LogicalOp& node) {
  if (node.kind == cloudviews::LogicalOpKind::kUdo && !node.udo_deterministic) {
    return true;
  }
  for (const cloudviews::LogicalOpPtr& child : node.children) {
    if (HasNondeterministicUdo(*child)) return true;
  }
  return false;
}

// One side of the comparison: its own catalog, generator and engine, so
// nothing the two engines touch is shared.
struct Side {
  cloudviews::DatasetCatalog catalog;
  cloudviews::WorkloadGenerator generator;
  ReuseEngine engine;

  Side(const Workload& w, cloudviews::ReuseEngineOptions options)
      : generator(w.profile), engine(&catalog, std::move(options)) {}

  // Starts day `day`; returns its jobs, or sets *error.
  std::vector<GeneratedJob> BeginDay(const Workload& w, int day,
                                     bool reuse, std::string* error) {
    if (day == 0) {
      cloudviews::Status status = generator.Setup(&catalog);
      if (!status.ok()) *error = "setup: " + status.ToString();
    } else {
      std::vector<std::string> updated;
      cloudviews::Status status = generator.AdvanceDay(&catalog, day, &updated);
      if (!status.ok()) *error = "advance_day: " + status.ToString();
      for (const std::string& name : updated) engine.OnDatasetUpdated(name);
    }
    if (!error->empty()) return {};
    const double now = day * cloudviews::kSecondsPerDay;
    engine.Maintenance(now);
    if (reuse) {
      int vcs = w.profile.num_virtual_clusters;
      if (w.onboarding_days_per_vc > 0) {
        vcs = std::min(vcs, 1 + day / w.onboarding_days_per_vc);
      }
      for (int vc = 0; vc < vcs; ++vc) {
        engine.insights().controls().enabled_vcs.insert("vc" +
                                                        std::to_string(vc));
      }
      engine.RunViewSelection(now);
    }
    return generator.JobsForDay(catalog, day);
  }
};

}  // namespace

CheckResult CheckOutputs(const Workload& w) {
  CheckResult result;
  cloudviews::ReuseEngineOptions off_options = w.engine;
  off_options.cloudviews_enabled = false;
  off_options.enable_sharing = false;
  Side on(w, w.engine);
  Side off(w, off_options);
  const bool windows = w.sharing_window_seconds > 0.0;

  for (int day = 0; day < kCheckDays; ++day) {
    std::string error;
    std::vector<GeneratedJob> on_jobs = on.BeginDay(w, day, true, &error);
    std::vector<GeneratedJob> off_jobs = off.BeginDay(w, day, false, &error);
    if (!error.empty()) {
      result.detail = error;
      return result;
    }
    if (on_jobs.size() != off_jobs.size()) {
      result.detail = "job streams differ in length on day " +
                      std::to_string(day);
      return result;
    }

    std::unordered_map<int64_t, Hash128> expected;
    for (const GeneratedJob& job : off_jobs) {
      if (HasNondeterministicUdo(*job.plan)) {
        result.jobs_skipped += 1;
        continue;
      }
      auto run = off.engine.RunJob(ToRequest(job));
      if (!run.ok()) {
        result.detail = "reuse-off job " + std::to_string(job.job_id) +
                        " failed: " + run.status().ToString();
        return result;
      }
      expected[job.job_id] = cloudviews::ComputeTableChecksum(*run->output);
    }

    std::vector<JobExecution> outputs;
    for (size_t i = 0; i < on_jobs.size();) {
      size_t j = i + 1;
      while (windows && j < on_jobs.size() &&
             on_jobs[j].submit_time - on_jobs[i].submit_time <=
                 w.sharing_window_seconds) {
        ++j;
      }
      cloudviews::Status status;
      if (windows) {
        std::vector<JobRequest> requests;
        for (size_t k = i; k < j; ++k) {
          requests.push_back(ToRequest(on_jobs[k]));
        }
        auto run = on.engine.RunSharedWindow(requests);
        status = run.status();
        if (run.ok()) {
          for (JobExecution& exec : *run) outputs.push_back(std::move(exec));
        }
      } else {
        auto run = on.engine.RunJob(ToRequest(on_jobs[i]));
        status = run.status();
        if (run.ok()) outputs.push_back(std::move(*run));
      }
      if (!status.ok()) {
        result.detail = "reuse-on job " + std::to_string(on_jobs[i].job_id) +
                        " failed: " + status.ToString();
        return result;
      }
      i = j;
    }
    for (const JobExecution& exec : outputs) {
      auto it = expected.find(exec.job_id);
      if (it == expected.end()) continue;  // non-deterministic job
      if (it->second != cloudviews::ComputeTableChecksum(*exec.output)) {
        result.detail = "output of job " + std::to_string(exec.job_id) +
                        " differs between reuse on and off";
        return result;
      }
      result.jobs_compared += 1;
    }
  }

  result.exact_hits = on.engine.hits_exact();
  result.subsumed_hits = on.engine.hits_subsumed();
  result.stream_hits = on.engine.sharing_stats().hits;
  if (result.exact_hits == 0) {
    result.detail = "no exact view hit: the check compared nothing reused";
  } else if (w.check_needs_subsumed_hit && result.subsumed_hits == 0) {
    result.detail = "no subsumed view hit";
  } else if (w.check_needs_stream_hit && result.stream_hits == 0) {
    result.detail = "no stream hit";
  } else {
    result.ok = true;
    result.detail = "outputs match";
  }
  return result;
}

}  // namespace e2e_bench
