#ifndef CLOUDVIEWS_EXEC_PHYSICAL_VERIFIER_H_
#define CLOUDVIEWS_EXEC_PHYSICAL_VERIFIER_H_

#include <vector>

#include "common/status.h"
#include "exec/physical_op.h"
#include "plan/logical_plan.h"
#include "storage/column.h"

namespace cloudviews {
namespace verify {

// Checks the physical operator tree the Executor builds against the logical
// plan it implements. Two entry points bracket a run:
//
//   VerifyWiring   — after PhysicalBuilder, before Open(): every logical
//                    node is implemented by exactly one registered physical
//                    operator, and every spool node is backed by a real
//                    SpoolOp (never fused away).
//
//   VerifyPostRun  — after Close(): spool sealing fired exactly once per
//                    spool (0 = the view silently never seals, >1 is ruled
//                    out by the latch but re-checked here), a sealed spool
//                    recorded the same row count it streamed, Limit emitted
//                    no more than its bound, and row-preserving operators
//                    did not emit more rows than their child produced.
//
// The columnar engine adds a third, per-batch check inside the drain loop:
//
//   VerifyBatch    — every output batch is structurally sound: the arity
//                    matches the plan's output schema, the batch is full
//                    width (no column left unread, no unread bytes), every
//                    column holds exactly num_rows cells, and each column's
//                    null bitmap is sized consistently with its length and
//                    agrees with its null count.
//
// Every failure is Status::Corruption naming the offending operator.
class PhysicalVerifier {
 public:
  static Status VerifyWiring(const LogicalOp& root,
                             const std::vector<PhysicalOp*>& registry);

  static Status VerifyPostRun(const LogicalOp& root,
                              const std::vector<PhysicalOp*>& registry);

  static Status VerifyBatch(const LogicalOp& root, const ColumnBatch& batch);
};

}  // namespace verify
}  // namespace cloudviews

#endif  // CLOUDVIEWS_EXEC_PHYSICAL_VERIFIER_H_
