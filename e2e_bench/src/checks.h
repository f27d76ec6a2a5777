#ifndef CLOUDVIEWS_E2E_BENCH_CHECKS_H_
#define CLOUDVIEWS_E2E_BENCH_CHECKS_H_

#include <cstdint>
#include <string>

#include "workloads.h"

namespace e2e_bench {

struct CheckResult {
  bool ok = false;
  std::string detail;  // first failure, or a summary when ok
  int64_t jobs_compared = 0;
  // Jobs with a non-deterministic UDO, whose output depends on row order.
  int64_t jobs_skipped = 0;
  int64_t exact_hits = 0;
  int64_t subsumed_hits = 0;
  int64_t stream_hits = 0;
};

// Untimed output check over the first days of the job stream. The same
// job stream runs through a reuse-on engine (RunSharedWindow when the
// workload shares windows, RunJob otherwise) and a reuse-off engine
// (RunJob), and every job's output checksum (ComputeTableChecksum) must
// match, except for jobs with a non-deterministic UDO (counted as skipped).
// The check also fails when a job fails, and when the reuse it is meant to
// cover never happened: no exact view hit, no subsumed hit where the
// workload needs one, or no stream hit where it shares windows.
CheckResult CheckOutputs(const Workload& workload);

}  // namespace e2e_bench

#endif  // CLOUDVIEWS_E2E_BENCH_CHECKS_H_
