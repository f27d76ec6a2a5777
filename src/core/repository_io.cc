#include "core/repository_io.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "fault/fault.h"
#include "fault/fault_sites.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"

namespace cloudviews {

namespace {

constexpr char kHeader[] = "cloudviews-repository v1";

// The persistent store behind the repository is remote in production;
// transient request failures are expected and retried a bounded number of
// times. Parse/corruption errors are never retried.
constexpr int kMaxIoAttempts = 3;

void CountIoRetry() {
  static obs::Counter& retries =
      obs::MetricsRegistry::Global().counter(obs::metric_names::kFaultsRetries);
  retries.Increment();
}

std::string JoinList(const std::vector<std::string>& items) {
  if (items.empty()) return "-";
  std::string out;
  for (const std::string& item : items) {
    if (!out.empty()) out += ',';
    out += item;
  }
  return out;
}

std::vector<std::string> SplitList(const std::string& packed) {
  std::vector<std::string> out;
  if (packed == "-") return out;
  size_t start = 0;
  while (start <= packed.size()) {
    size_t comma = packed.find(',', start);
    if (comma == std::string::npos) {
      out.push_back(packed.substr(start));
      break;
    }
    out.push_back(packed.substr(start, comma - start));
    start = comma + 1;
  }
  return out;
}

}  // namespace

std::string SerializeRepository(const WorkloadRepository& repository) {
  std::ostringstream out;
  out << kHeader << "\n";
  for (const DayOverlapStats& day : repository.OverlapByDay()) {
    out << "day\t" << day.day << "\t" << day.total_subexpressions << "\t"
        << day.repeated_subexpressions << "\n";
  }
  for (const SubexpressionGroup* group : repository.AllGroups()) {
    out << "group\t" << group->strict_signature.ToHex() << "\t"
        << group->recurring_signature.ToHex() << "\t" << group->occurrences
        << "\t" << group->subtree_size << "\t" << (group->eligible ? 1 : 0)
        << "\t" << group->cost_samples << "\t" << group->total_cpu_cost
        << "\t" << group->last_rows << "\t" << group->last_bytes << "\t"
        << group->first_day << "\t" << group->last_day << "\t"
        << JoinList(group->virtual_clusters) << "\t"
        << JoinList(group->input_datasets) << "\n";
  }
  return out.str();
}

Status DeserializeRepository(const std::string& snapshot,
                             WorkloadRepository* repository) {
  if (repository == nullptr) {
    return Status::InvalidArgument("null repository");
  }
  if (repository->total_instances() != 0 || repository->num_groups() != 0) {
    return Status::InvalidArgument("target repository is not empty");
  }
  std::istringstream in(snapshot);
  std::string line;
  if (!std::getline(in, line) || line != kHeader) {
    return Status::Corruption("missing or unknown repository header");
  }
  int line_number = 1;
  while (std::getline(in, line)) {
    line_number += 1;
    if (line.empty()) continue;
    std::istringstream fields(line);
    std::string kind;
    fields >> kind;
    if (kind == "day") {
      DayOverlapStats day;
      fields >> day.day >> day.total_subexpressions >>
          day.repeated_subexpressions;
      if (fields.fail()) {
        return Status::Corruption("malformed day record at line " +
                                  std::to_string(line_number));
      }
      // Day counters are informational; a duplicate means a corrupt file.
      CLOUDVIEWS_RETURN_NOT_OK(repository->RestoreDayStats(day));
    } else if (kind == "group") {
      SubexpressionGroup group;
      std::string strict_hex, recurring_hex, vcs, datasets;
      int eligible = 1;
      // Signed, so "-1" reads as -1 rather than wrapping to 2^64 - 1.
      int64_t subtree_size = 0;
      fields >> strict_hex >> recurring_hex >> group.occurrences >>
          subtree_size >> eligible >> group.cost_samples >>
          group.total_cpu_cost >> group.last_rows >> group.last_bytes >>
          group.first_day >> group.last_day >> vcs >> datasets;
      if (fields.fail() ||
          !Hash128::FromHex(strict_hex, &group.strict_signature) ||
          !Hash128::FromHex(recurring_hex, &group.recurring_signature)) {
        return Status::Corruption("malformed group record at line " +
                                  std::to_string(line_number));
      }
      group.eligible = eligible != 0;
      group.virtual_clusters = SplitList(vcs);
      group.input_datasets = SplitList(datasets);
      // A signature covers at least one operator, and ingest records each
      // virtual cluster once (a repeat would enter that cluster's
      // selection pass twice).
      std::vector<std::string> sorted_vcs = group.virtual_clusters;
      std::sort(sorted_vcs.begin(), sorted_vcs.end());
      if (subtree_size < 1 ||
          std::adjacent_find(sorted_vcs.begin(), sorted_vcs.end()) !=
              sorted_vcs.end()) {
        return Status::Corruption("impossible group record at line " +
                                  std::to_string(line_number));
      }
      group.subtree_size = static_cast<size_t>(subtree_size);
      CLOUDVIEWS_RETURN_NOT_OK(repository->RestoreGroup(std::move(group)));
    } else {
      return Status::Corruption("unknown record kind '" + kind +
                                "' at line " + std::to_string(line_number));
    }
  }
  return Status::OK();
}

Status SaveRepository(const WorkloadRepository& repository,
                      const std::string& path) {
  Status transient = Status::OK();
  for (int attempt = 0; attempt < kMaxIoAttempts; ++attempt) {
    transient = fault::Inject(fault::sites::kRepoWrite);
    if (transient.ok()) break;
    if (attempt + 1 < kMaxIoAttempts) CountIoRetry();
  }
  if (!transient.ok()) return transient;
  std::ofstream out(path, std::ios::trunc);
  if (!out.is_open()) {
    return Status::InvalidArgument("cannot open for writing: " + path);
  }
  out << SerializeRepository(repository);
  out.close();
  if (out.fail()) {
    return Status::Internal("write failed: " + path);
  }
  return Status::OK();
}

Status LoadRepository(const std::string& path,
                      WorkloadRepository* repository) {
  Status transient = Status::OK();
  for (int attempt = 0; attempt < kMaxIoAttempts; ++attempt) {
    transient = fault::Inject(fault::sites::kRepoRead);
    if (transient.ok()) break;
    if (attempt + 1 < kMaxIoAttempts) CountIoRetry();
  }
  if (!transient.ok()) return transient;
  std::ifstream in(path);
  if (!in.is_open()) {
    return Status::NotFound("cannot open for reading: " + path);
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return DeserializeRepository(buffer.str(), repository);
}

}  // namespace cloudviews
