#ifndef CLOUDVIEWS_SHARING_PRODUCER_H_
#define CLOUDVIEWS_SHARING_PRODUCER_H_

#include <cstdint>

#include "common/status.h"
#include "exec/executor.h"
#include "exec/shared_stream.h"
#include "plan/logical_plan.h"

namespace cloudviews {
namespace sharing {

// What the elected producer pipeline did, for the window's accounting.
struct ProducerStats {
  int64_t batches = 0;
  uint64_t rows = 0;
  uint64_t bytes = 0;
  double cpu_cost = 0.0;
};

// Executes `plan` (the spool-free copy of the elected shared subtree) once
// on the calling thread, publishing every non-empty batch to `stream`.
// Drives stream lifecycle to a terminal state no matter what: Complete() on
// a clean drain, Abort(cause) on any failure — including an injected
// sharing.producer_abort fault — so subscribers always wake up and either
// finish from the log or detach to their fallbacks. Never touches the view
// store, ledger, or spool hooks: `context` must carry null spool callbacks,
// and the plan contains no spools by construction.
//
// Returns the abort cause on failure (already recorded on the stream); the
// caller only logs it — subscribers recover independently.
Status RunProducer(const ExecContext& context, const LogicalOpPtr& plan,
                   SharedStream* stream, ProducerStats* stats);

}  // namespace sharing
}  // namespace cloudviews

#endif  // CLOUDVIEWS_SHARING_PRODUCER_H_
