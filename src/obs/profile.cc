#include "obs/profile.h"

#include <cstdio>

#include "common/exec_stats.h"
#include "obs/json_writer.h"

namespace cloudviews {
namespace obs {

void QueryProfile::FillFromStats(const ExecutionStats& stats) {
  num_operators = stats.num_operators;
  input_rows = stats.input_rows;
  view_rows = stats.view_rows;
  total_bytes_read = stats.total_bytes_read;
  bytes_spooled = stats.bytes_spooled;
  total_cpu_cost = stats.total_cpu_cost;
  wall_seconds = stats.wall_seconds;
}

double QueryProfile::TotalPhaseSeconds() const {
  double total = 0.0;
  for (const QueryPhase& phase : phases) total += phase.seconds;
  return total;
}

std::string QueryProfile::ToText() const {
  std::string out;
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "query profile: job %lld (vc=%s day=%d reuse=%s)\n",
                static_cast<long long>(job_id), virtual_cluster.c_str(), day,
                reuse_enabled ? "on" : "off");
  out += buf;
  for (const QueryPhase& phase : phases) {
    std::snprintf(buf, sizeof(buf), "  %-10s %10.6fs\n", phase.name.c_str(),
                  phase.seconds);
    out += buf;
  }
  std::snprintf(buf, sizeof(buf),
                "  views: %d matched, %d built", views_matched, views_built);
  out += buf;
  if (!matched_signatures.empty()) {
    out += " [";
    for (size_t i = 0; i < matched_signatures.size(); ++i) {
      if (i > 0) out += ",";
      out += matched_signatures[i].substr(0, 12);
    }
    out += "]";
  }
  out += '\n';
  std::snprintf(buf, sizeof(buf), "  exec: operators=%d cpu_cost=%.1f\n",
                num_operators, total_cpu_cost);
  out += buf;
  std::snprintf(
      buf, sizeof(buf),
      "  io: input_rows=%llu view_rows=%llu read=%lluB spooled=%lluB\n",
      static_cast<unsigned long long>(input_rows),
      static_cast<unsigned long long>(view_rows),
      static_cast<unsigned long long>(total_bytes_read),
      static_cast<unsigned long long>(bytes_spooled));
  out += buf;
  return out;
}

std::string QueryProfile::ToJson() const {
  JsonWriter w;
  w.BeginObject();
  w.Field("job_id", job_id);
  w.Field("virtual_cluster", std::string_view(virtual_cluster));
  w.Field("day", day);
  w.Field("reuse_enabled", reuse_enabled);
  w.Field("views_matched", views_matched);
  w.Field("views_built", views_built);
  w.Key("matched_signatures").BeginArray();
  for (const std::string& sig : matched_signatures) w.String(sig);
  w.EndArray();
  w.Key("phases").BeginArray();
  for (const QueryPhase& phase : phases) {
    w.BeginObject();
    w.Field("name", std::string_view(phase.name));
    w.Field("seconds", phase.seconds);
    w.EndObject();
  }
  w.EndArray();
  w.Field("num_operators", num_operators);
  w.Field("input_rows", input_rows);
  w.Field("view_rows", view_rows);
  w.Field("total_bytes_read", total_bytes_read);
  w.Field("bytes_spooled", bytes_spooled);
  w.Field("total_cpu_cost", total_cpu_cost);
  w.Field("wall_seconds", wall_seconds);
  w.EndObject();
  return w.TakeString();
}

}  // namespace obs
}  // namespace cloudviews
