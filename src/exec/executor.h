#ifndef CLOUDVIEWS_EXEC_EXECUTOR_H_
#define CLOUDVIEWS_EXEC_EXECUTOR_H_

#include <cstddef>
#include <functional>
#include <memory>

#include "common/exec_stats.h"
#include "common/status.h"
#include "exec/physical_op.h"
#include "plan/logical_plan.h"
#include "storage/catalog.h"
#include "storage/table.h"
#include "storage/view_store.h"

namespace cloudviews {

class ThreadPool;

namespace sharing {
class StreamDirectory;
}  // namespace sharing

// Which physical engine Execute() builds. kColumnar (the default) runs the
// vectorized, morsel-parallel batch operators in exec/batch_op.h; kRow runs
// the original row-at-a-time operators serially and is kept as the
// byte-identity reference — the columnar engine's output table (values,
// types, null-ness, row order) equals the row engine's for every plan at
// every dop and batch size.
enum class ExecEngine {
  kColumnar,
  kRow,
};

// Everything an executing job can touch.
//
// Threading contract: Execute() may fan work out to `dop` pool threads, so
// every member below must stay immutable (and the pointed-to catalog
// unmodified) for the duration of the call. The view store is read only
// through ViewStore::ReadTable, which is safe against concurrent reads that
// quarantine the view. `on_spool_complete` and `on_spool_abort` are only
// ever invoked from the driver thread that called Execute(). A caller may
// run several Executors concurrently (a sharing window runs its jobs so);
// the callbacks then fire concurrently across jobs and must synchronize any
// state they share or, as ReuseEngine's do inside a window, only record
// what to apply once every job has joined.
struct ExecContext {
  const DatasetCatalog* catalog = nullptr;
  // View store for ViewScan reads. May be null when reuse is disabled.
  const ViewStore* view_store = nullptr;
  // Called when a spool finishes materializing its subexpression (the early
  // sealing hook). May be null.
  SpoolOp::CompletionFn on_spool_complete;
  // Called when a spool aborts materialization after a write fault (the
  // failure-hardening hook: withdraw the materializing view entry and
  // release the creation lock). May be null. Fired from the driver thread,
  // exactly once per aborted spool, instead of `on_spool_complete`.
  SpoolOp::AbortFn on_spool_abort;
  // Seed for non-deterministic UDO instances (jobs differ run to run).
  uint64_t job_seed = 0;
  // Simulated "now" used to check view expiry during ViewScan binding.
  double now = 0.0;
  // Degree of parallelism for the columnar engine's morsel-driven
  // execution. 0 = auto (one per hardware thread); 1 = serial. Any DOP
  // produces the same output rows in the same order; only wall-clock time
  // and floating-point cost *accumulation order* (not totals beyond
  // rounding) differ. The row engine ignores it and always runs at DOP 1.
  int dop = 0;
  // Rows per morsel. Morsel boundaries depend only on input size and this
  // knob — never on dop — which is what keeps outputs DOP-invariant.
  size_t morsel_rows = 4096;
  // Pool to run morsels on. Null = the process-wide ThreadPool::Shared()
  // (only consulted when the resolved dop > 1).
  ThreadPool* pool = nullptr;
  // Physical engine selection; see ExecEngine.
  ExecEngine engine = ExecEngine::kColumnar;
  // Rows per column batch in the columnar engine (clamped to >= 1). Output
  // is identical at any batch size; only amortization changes.
  size_t batch_rows = 1024;
  // Directory of in-flight shared-producer streams, consulted by SharedScan
  // operators. Null outside a sharing window; then every SharedScan detaches
  // immediately and runs its fallback plan (same bytes, no sharing).
  const sharing::StreamDirectory* sharing = nullptr;
};

struct ExecResult {
  TablePtr output;
  ExecutionStats stats;
};

// Interprets an (optimized) logical plan. The Open/Next/Close driver loop is
// single-threaded, but columnar operators parallelize internally: linear
// scan/filter/project/UDO chains fuse into morsel pipelines, hash joins
// build partitioned tables and probe in morsels, and aggregations hash
// their keys in morsels — all on a shared work-stealing pool. The cluster
// simulator combines the collected stats with the measured morsel telemetry
// to model cluster-scale parallelism.
class Executor {
 public:
  explicit Executor(ExecContext context) : context_(std::move(context)) {}

  // Runs the plan to completion, returning the output table and statistics.
  Result<ExecResult> Execute(const LogicalOpPtr& plan) const;

 private:
  ExecContext context_;
};

}  // namespace cloudviews

#endif  // CLOUDVIEWS_EXEC_EXECUTOR_H_
