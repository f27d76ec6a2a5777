// End-to-end benchmark driver. Two subcommands, both run by run.py:
//
//   e2e_bench check   --workload NAME --seed N
//   e2e_bench measure --workload NAME --seed N --seconds S --trace 0|1
//                     [--trace-out PATH]
//
// `check` compares reuse-on and reuse-off outputs over a prefix of the job
// stream (checks.h). `measure` drives rounds over the workload's
// sub-workloads for about S seconds and prints, as its last line, one JSON
// object with the end-to-end metrics (--trace 0) or the per-layer metrics of
// a traced run (--trace 1). Either exits non-zero when an output is wrong or
// a job fails.

#include <sys/resource.h>

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "bench_math.h"
#include "checks.h"
#include "driver.h"
#include "fault/fault.h"
#include "obs/decision.h"
#include "obs/metric_names.h"
#include "obs/provenance.h"
#include "obs/trace.h"
#include "spans.h"
#include "verify/verify.h"
#include "workloads.h"

#ifndef E2E_BENCH_BUILD_TYPE
#define E2E_BENCH_BUILD_TYPE "unknown"
#endif

namespace e2e_bench {
namespace {

// Set-ups timed on their own before the passes, so setup_s is a median over
// enough samples even when only a few passes fit in a run.
constexpr int kSetupRepetitions = 25;

struct Args {
  std::string command;
  std::string workload;
  uint64_t seed = 0;
  bool seed_given = false;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  if (argc < 2) return false;
  args->command = argv[1];
  for (int i = 2; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      args->seed_given = true;
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
    } else if (key == "--trace") {
      args->trace = value == "1";
    } else if (key == "--trace-out") {
      args->trace_out = value;
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') return false;
  }
  return (argc % 2) == 0 && !args->workload.empty() &&
         (args->command == "check" || args->command == "measure");
}

struct Metric {
  double value = 0.0;
  const char* unit = "";
};
using Metrics = std::map<std::string, Metric>;

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      size_t value = line.find_first_not_of(" \t:", line.find(':'));
      if (value != std::string::npos) return line.substr(value);
    }
  }
  return "unknown";
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

// The host and build a result was measured on. Runtime verification
// compiled in, or any observability or fault gate switched on, changes what
// the engine does per job, so such a result is not comparable.
std::string EnvironmentStamp() {
  using cloudviews::obs::DecisionLedger;
  using cloudviews::obs::ProvenanceLedger;
  using cloudviews::obs::Tracer;
  const bool checks = cloudviews::verify::RuntimeChecksEnabled();
  const bool tracer = Tracer::Enabled();
  const bool provenance = ProvenanceLedger::Enabled();
  const bool decisions = DecisionLedger::Enabled();
  const bool faults = cloudviews::fault::FaultInjector::Enabled();
  const bool comparable = !checks && !tracer && !provenance && !decisions &&
                          !faults &&
                          std::string(E2E_BENCH_BUILD_TYPE) == "Release";
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "{\"nproc\":%u,\"cpu_model\":%s,\"build_type\":%s,"
      "\"runtime_checks\":%s,\"tracer\":%s,\"provenance_ledger\":%s,"
      "\"decision_ledger\":%s,\"faults\":%s,\"comparable\":%s}",
      std::thread::hardware_concurrency(), JsonString(CpuModel()).c_str(),
      JsonString(E2E_BENCH_BUILD_TYPE).c_str(), checks ? "true" : "false",
      tracer ? "true" : "false", provenance ? "true" : "false",
      decisions ? "true" : "false", faults ? "true" : "false",
      comparable ? "true" : "false");
  return buf;
}

double PeakRssMb() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// End-to-end metrics from every sub-workload's passes (one per round), each
// time taken at reference host speed (AtReferenceSpeed). A sub-workload
// measured in several rounds contributes the median of its rounds. Latency
// percentiles are taken per sub-workload, each its own cluster, and
// averaged: pooled, the tail would be whichever seeds drew the heaviest
// templates.
Metrics EndToEndMetrics(const std::vector<std::vector<PassResult>>& by_sub,
                        std::vector<double> setups) {
  WallLedger wall;
  double p50_sum = 0.0;
  double tail_sum = 0.0;
  double sim_latency = 0.0;
  double sim_processing = 0.0;
  for (const std::vector<PassResult>& rounds : by_sub) {
    std::vector<double> engine;
    std::vector<double> p50;
    std::vector<double> tail;
    for (const PassResult& p : rounds) {
      engine.push_back(AtReferenceSpeed(p.wall.engine_seconds, p.probe_seconds));
      p50.push_back(AtReferenceSpeed(Percentile(p.job_ms, 50.0),
                                     p.probe_seconds));
      tail.push_back(AtReferenceSpeed(
          Percentile(p.job_ms, TailPercentile(p.job_ms.size())),
          p.probe_seconds));
    }
    wall.engine_seconds += Median(engine);
    wall.jobs += rounds.front().wall.jobs;
    p50_sum += Median(p50);
    tail_sum += Median(tail);
    sim_latency += rounds.front().sim.latency_seconds;
    sim_processing += rounds.front().sim.processing_seconds;
  }
  const double n = static_cast<double>(by_sub.size());
  const double jobs = static_cast<double>(wall.jobs);
  Metrics m;
  m["setup_s"] = {Median(std::move(setups)), "s"};
  m["jobs_per_s"] = {wall.JobsPerSecond(), "1/s"};
  m["job_p50_ms"] = {p50_sum / n, "ms"};
  m["job_p99_ms"] = {tail_sum / n, "ms"};
  // Simulated Table-1 quantities: a function of the seed alone.
  m["sim_latency_s_per_job"] = {Ratio(sim_latency, jobs), "sim_s"};
  m["sim_processing_s_per_job"] = {Ratio(sim_processing, jobs), "sim_s"};
  return m;
}

// Per-layer metrics of one traced pass, from its spans and LayerStats.
Metrics LayerMetrics(const PassResult& p, const SpanRecorder& spans) {
  namespace names = cloudviews::obs::metric_names;
  const LayerStats& l = p.layers;
  const double jobs = static_cast<double>(l.attributed_jobs);
  const double engine = p.wall.engine_seconds;
  std::map<std::string, double> self = SelfSecondsByName(spans.spans());
  auto delta = [&](const char* name) {
    auto it = l.counter_deltas.find(name);
    return it == l.counter_deltas.end() ? 0.0
                                        : static_cast<double>(it->second);
  };
  auto us_per_job = [&](double seconds) { return Ratio(seconds * 1e6, jobs); };
  double selection_ms = 0.0;
  double selection_max = 0.0;
  for (double ms : l.selection_ms) {
    selection_ms += ms;
    selection_max = std::max(selection_max, ms);
  }
  const double call_self =
      self["sim.submit_job"] + self["sim.submit_window"];
  const double lookups = delta(names::kViewsLookupHit) +
                         delta(names::kViewsLookupMiss);

  Metrics m;
  m["exec.execute_us_per_job"] = {us_per_job(l.phases.execute), "us"};
  m["exec.input_rows_per_job"] = {Ratio(l.phases.input_rows, jobs), "rows"};
  m["exec.view_rows_per_job"] = {Ratio(l.phases.view_rows, jobs), "rows"};
  m["exec.bytes_read_per_job"] = {Ratio(l.phases.bytes_read, jobs), "bytes"};
  m["exec.bytes_spooled_per_job"] = {Ratio(l.phases.bytes_spooled, jobs),
                                     "bytes"};
  m["exec.execute_share"] = {Ratio(self["execute"], engine), "fraction"};

  m["core.view_selection_ms_p50"] = {Median(l.selection_ms), "ms"};
  m["core.view_selection_ms_max"] = {selection_max, "ms"};
  m["core.view_selection_share"] = {Ratio(selection_ms / 1e3, engine),
                                    "fraction"};
  m["core.repository_groups"] = {static_cast<double>(l.repository_groups),
                                 "count"};
  m["core.selection_budget_fill"] = {l.selection_budget_fill, "fraction"};
  m["core.ingest_us_per_job"] = {us_per_job(l.phases.ingest), "us"};
  m["core.ingest_share"] = {Ratio(self["ingest"], engine), "fraction"};
  m["core.maintenance_ms_per_day"] = {
      Ratio(l.maintenance_seconds * 1e3, l.days), "ms"};
  m["core.maintenance_share"] = {Ratio(l.maintenance_seconds, engine),
                                 "fraction"};

  m["plan.bind_us_per_job"] = {us_per_job(l.phases.bind), "us"};
  m["plan.bind_share"] = {Ratio(self["bind"], engine), "fraction"};
  m["plan.normalize_us_per_job"] = {
      Ratio(l.replay_normalize_seconds * 1e6, l.replayed_plans), "us"};
  m["plan.signatures_us_per_job"] = {
      Ratio(l.replay_signatures_seconds * 1e6, l.replayed_plans), "us"};
  m["plan.generalized_prune_rate"] = {
      Ratio(delta(names::kGeneralizedFilterPruned),
            delta(names::kGeneralizedCandidates)),
      "fraction"};
  m["plan.containment_accept_rate"] = {
      Ratio(delta(names::kReuseHitsSubsumed),
            delta(names::kGeneralizedExactChecks)),
      "fraction"};

  m["optimizer.compile_us_per_job"] = {us_per_job(l.phases.compile), "us"};
  m["optimizer.compile_share"] = {Ratio(self["compile"], engine), "fraction"};
  m["optimizer.view_hit_rate"] = {
      Ratio(delta(names::kViewsLookupHit), lookups), "fraction"};
  m["optimizer.hits_exact"] = {static_cast<double>(l.hits_exact), "count"};
  m["optimizer.hits_subsumed"] = {static_cast<double>(l.hits_subsumed),
                                  "count"};
  m["optimizer.cost_rejected"] = {
      delta(names::kOptimizerViewMatchCostRejected), "count"};
  m["optimizer.spools_injected"] = {delta(names::kOptimizerRuleSpoolInject),
                                    "count"};

  m["storage.views_created"] = {static_cast<double>(l.views_created),
                                "count"};
  m["storage.views_reused"] = {static_cast<double>(l.views_reused), "count"};
  m["storage.reuses_per_view"] = {
      Ratio(static_cast<double>(l.views_reused),
            static_cast<double>(l.views_created)),
      "reuses/view"};
  m["storage.live_view_bytes"] = {static_cast<double>(l.live_view_bytes),
                                  "bytes"};

  m["sharing.window_ms_p50"] = {Median(l.window_ms), "ms"};
  m["sharing.streams"] = {static_cast<double>(l.sharing.streams), "count"};
  m["sharing.hit_rate"] = {Ratio(static_cast<double>(l.sharing.hits),
                                 static_cast<double>(l.sharing.fanout)),
                           "fraction"};
  m["sharing.detaches"] = {static_cast<double>(l.sharing.detaches), "count"};
  m["sharing.producer_aborts"] = {
      static_cast<double>(l.sharing.producer_aborts), "count"};
  m["sharing.max_streams_per_window"] = {
      static_cast<double>(l.max_streams_per_window), "count"};

  m["cluster.self_us_per_job"] = {
      Ratio(call_self * 1e6, static_cast<double>(l.self_time_jobs)), "us"};
  m["cluster.self_share"] = {Ratio(call_self, engine), "fraction"};

  m["workload.generate_ms_per_day"] = {
      Ratio(p.wall.generator_seconds * 1e3, l.days), "ms"};

  m["trace.unattributed_share"] = {Ratio(self["unattributed"], engine),
                                   "fraction"};
  m["trace.unattributed_jobs"] = {static_cast<double>(l.unattributed_jobs),
                                  "count"};
  return m;
}

// Mean of each metric across the traced passes, one per sub-workload.
Metrics MeanMetrics(const std::vector<Metrics>& per_pass) {
  Metrics out;
  for (const auto& [name, metric] : per_pass.front()) {
    double sum = 0.0;
    for (const Metrics& m : per_pass) sum += m.at(name).value;
    out[name] = {sum / static_cast<double>(per_pass.size()), metric.unit};
  }
  return out;
}

void PrintResult(bool correct, int64_t attempted, int64_t failed,
                 const Metrics& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  bool first = true;
  char buf[64];
  for (const auto& [name, metric] : metrics) {
    std::snprintf(buf, sizeof(buf), "%.17g", metric.value);
    out += (first ? "" : ", ") + JsonString(name) + ": {\"value\": " + buf +
           ", \"unit\": " + JsonString(metric.unit) + "}";
    first = false;
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

int Check(const Workload& w) {
  CheckResult check = CheckOutputs(w);
  std::printf(
      "{\"check\": {\"workload\": %s, \"seed\": %" PRIu64
      ", \"ok\": %s, \"jobs_compared\": %" PRId64
      ", \"jobs_skipped\": %" PRId64 ", \"exact_hits\": %" PRId64
      ", \"subsumed_hits\": %" PRId64 ", \"stream_hits\": %" PRId64
      ", \"detail\": %s}}\n",
      JsonString(w.name).c_str(), w.profile.seed, check.ok ? "true" : "false",
      check.jobs_compared, check.jobs_skipped, check.exact_hits, check.subsumed_hits,
      check.stream_hits, JsonString(check.detail).c_str());
  return check.ok ? 0 : 1;
}

int Measure(const Workload& w, const Args& args) {
  std::vector<double> setups;
  double probe = HostProbeSeconds();
  for (int i = 0; i < kSetupRepetitions; ++i) {
    double seconds = TimeSetup(w);
    if (seconds < 0.0) {
      std::fprintf(stderr, "set-up failed\n");
      return 1;
    }
    setups.push_back(seconds);
  }
  double next_probe = HostProbeSeconds();
  for (double& seconds : setups) {
    seconds = AtReferenceSpeed(seconds, (probe + next_probe) / 2.0);
  }
  probe = next_probe;
  std::vector<double> probes = {probe};

  // Rounds over every sub-workload until the deadline: at least one, and
  // another only while a whole round still fits, so each sub-workload is
  // measured equally often. The probe runs between passes. A traced run
  // follows each untraced pass with a traced pass of the same sub-workload,
  // which measures tracing overhead.
  const size_t subs = static_cast<size_t>(w.sub_workloads);
  std::vector<std::vector<PassResult>> plain(subs);
  std::vector<std::vector<PassResult>> traced(subs);
  std::vector<Metrics> traced_metrics;
  SpanRecorder all_spans;
  int64_t attempted = 0;
  int64_t failed = 0;
  bool deterministic = true;
  const double deadline = NowSeconds() + args.seconds;
  while (true) {
    const double round_start = NowSeconds();
    for (size_t k = 0; k < subs; ++k) {
      Workload sub = w;
      sub.profile.seed = SubSeed(w.profile.seed, static_cast<int>(k));
      for (int traced_pass = 0; traced_pass <= (args.trace ? 1 : 0);
           ++traced_pass) {
        SpanRecorder spans;
        PassResult pass = RunPass(sub, traced_pass ? &spans : nullptr);
        if (!pass.error.empty()) {
          std::fprintf(stderr, "pass failed: %s\n", pass.error.c_str());
          return 1;
        }
        next_probe = HostProbeSeconds();
        pass.probe_seconds = (probe + next_probe) / 2.0;
        probe = next_probe;
        probes.push_back(probe);
        attempted += pass.attempted;
        failed += pass.failed;
        setups.push_back(
            AtReferenceSpeed(pass.setup_seconds, pass.probe_seconds));
        if (!plain[k].empty()) {
          // Simulated telemetry is a function of the seed alone.
          const cloudviews::DailyTelemetry& want = plain[k].front().sim;
          deterministic = deterministic && pass.sim.jobs == want.jobs &&
                          pass.sim.latency_seconds == want.latency_seconds &&
                          pass.sim.processing_seconds ==
                              want.processing_seconds;
        }
        if (traced_pass) {
          traced_metrics.push_back(LayerMetrics(pass, spans));
          all_spans.Append(spans);
          traced[k].push_back(std::move(pass));
        } else {
          plain[k].push_back(std::move(pass));
        }
      }
    }
    const double now = NowSeconds();
    if (now + (now - round_start) > deadline) break;
  }

  int64_t jobs_per_round = 0;
  WallLedger raw;  // as measured, before host-speed normalization
  for (const auto& rounds : plain) {
    jobs_per_round += rounds.front().sim.jobs;
    for (const PassResult& p : rounds) {
      raw.engine_seconds += p.wall.engine_seconds;
      raw.jobs += p.wall.jobs;
    }
  }
  std::printf(
      "{\"run\": {\"workload\": %s, \"seed\": %" PRIu64
      ", \"trace\": %d, \"sub_workloads\": %d, \"rounds\": %zu, "
      "\"jobs_per_round\": %" PRId64
      ", \"raw_jobs_per_s\": %.17g, \"probe_ms_p50\": %.17g"
      ", \"peak_rss_mb\": %.17g"
      ", \"failed_job_frac\": %.17g, \"sim_deterministic\": %s, "
      "\"env\": %s}}\n",
      JsonString(w.name).c_str(), w.profile.seed, args.trace ? 1 : 0,
      w.sub_workloads, plain.front().size(), jobs_per_round,
      raw.JobsPerSecond(), Median(probes) * 1e3, PeakRssMb(),
      Ratio(static_cast<double>(failed), static_cast<double>(attempted)),
      deterministic ? "true" : "false", EnvironmentStamp().c_str());

  Metrics metrics;
  if (args.trace) {
    metrics = MeanMetrics(traced_metrics);
    double plain_jps = EndToEndMetrics(plain, setups)["jobs_per_s"].value;
    double traced_jps = EndToEndMetrics(traced, setups)["jobs_per_s"].value;
    metrics["trace.jobs_per_s"] = {traced_jps, "1/s"};
    metrics["trace.overhead_pct"] = {
        100.0 * Ratio(plain_jps - traced_jps, plain_jps), "%"};
    if (!args.trace_out.empty()) {
      std::ofstream out(args.trace_out);
      out << all_spans.ToChromeJson();
    }
  } else {
    metrics = EndToEndMetrics(plain, setups);
  }
  const bool correct = deterministic && failed == 0;
  PrintResult(correct, attempted, failed, metrics);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace e2e_bench

int main(int argc, char** argv) {
  using namespace e2e_bench;
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: e2e_bench check|measure --workload NAME --seed N "
                 "[--seconds S] [--trace 0|1] [--trace-out PATH]\n");
    return 2;
  }
  cloudviews::obs::Tracer::Global();  // reads the tracer's environment gate
  auto workload = MakeWorkload(args.workload,
                               args.seed_given ? args.seed : kDefaultSeed);
  if (!workload.has_value()) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  return args.command == "check" ? Check(*workload) : Measure(*workload, args);
}
