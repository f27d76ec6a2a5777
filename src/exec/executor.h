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

namespace sharing {
class StreamDirectory;
}  // namespace sharing

// Which physical engine Execute() builds. kColumnar (the default) runs the
// vectorized batch operators in exec/batch_op.h; kRow runs the original
// row-at-a-time operators and is kept as the byte-identity reference — the
// columnar engine's output table (values, types, null-ness, row order)
// equals the row engine's for every plan at every batch size.
enum class ExecEngine {
  kColumnar,
  kRow,
};

// Everything an executing job can touch.
//
// Threading contract: Execute() runs on the calling thread. A caller may
// run several Executors concurrently (a sharing window runs its jobs so),
// so every member below must stay immutable (and the pointed-to catalog
// unmodified) for the duration of the call. The view store is read only
// through ViewStore::ReadTable, which is safe against concurrent reads that
// quarantine the view. `on_spool_complete` and `on_spool_abort` fire on the
// thread that called Execute(); across concurrent jobs they fire
// concurrently and must synchronize any state they share or, as
// ReuseEngine's do inside a window, only record what to apply once every
// job has joined.
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

// Interprets an (optimized) logical plan on the calling thread: the
// Open/Next/Close driver loop pulls the operator tree, and on the columnar
// engine linear scan/filter/project/UDO chains fuse into one streaming scan
// pipeline. The cluster simulator prices the collected per-operator cost
// units; the system's parallelism runs across jobs (sharing windows), not
// inside one.
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
