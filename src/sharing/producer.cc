#include "sharing/producer.h"

#include <utility>
#include <vector>

#include "exec/batch_op.h"
#include "exec/physical_verifier.h"
#include "fault/fault.h"
#include "fault/fault_sites.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "verify/verify.h"

namespace cloudviews {
namespace sharing {

namespace {

// The drain loop proper; the wrapper below maps its Status onto the stream's
// terminal transition.
Status ProduceBatches(const ExecContext& context, const LogicalOpPtr& plan,
                      SharedStream* stream, ProducerStats* stats) {
  std::vector<PhysicalOp*> registry;
  auto built = BuildBatchPlan(context, context.batch_rows, plan, &registry);
  if (!built.ok()) return built.status();
  BatchOpPtr root = std::move(built).value();

  if constexpr (verify::RuntimeChecksEnabled()) {
    CLOUDVIEWS_RETURN_NOT_OK(
        verify::PhysicalVerifier::VerifyWiring(*plan, registry));
  }

  CLOUDVIEWS_RETURN_NOT_OK(root->Open());
  Status drain;
  while (true) {
    ColumnBatch batch;
    bool done = false;
    drain = root->NextBatch(&batch, &done);
    if (!drain.ok() || done) break;
    if constexpr (verify::RuntimeChecksEnabled()) {
      drain = verify::PhysicalVerifier::VerifyBatch(*plan, batch);
      if (!drain.ok()) break;
    }
    if (batch.num_rows == 0) continue;
    // The producer is the window's single point of failure by design:
    // chaos runs kill it here and expect every subscriber to fall back.
    drain = fault::Inject(fault::sites::kSharingProducerAbort);
    if (!drain.ok()) break;
    drain = stream->Publish(std::move(batch));
    if (!drain.ok()) break;
    stats->batches += 1;
  }
  root->Close();
  CLOUDVIEWS_RETURN_NOT_OK(drain);
  if constexpr (verify::RuntimeChecksEnabled()) {
    CLOUDVIEWS_RETURN_NOT_OK(
        verify::PhysicalVerifier::VerifyPostRun(*plan, registry));
  }
  for (PhysicalOp* op : registry) {
    op->ExportStats([&](const LogicalOp*, const OperatorStats& op_stats) {
      stats->cpu_cost += op_stats.cpu_cost;
    });
  }
  return Status::OK();
}

}  // namespace

Status RunProducer(const ExecContext& context, const LogicalOpPtr& plan,
                   SharedStream* stream, ProducerStats* stats) {
  Status status = ProduceBatches(context, plan, stream, stats);
  stats->rows = stream->rows_published();
  stats->bytes = stream->bytes_published();
  if (status.ok()) {
    stream->Complete();
    return status;
  }
  static obs::Counter& aborts = obs::MetricsRegistry::Global().counter(
      obs::metric_names::kSharingProducerAborts);
  aborts.Increment();
  stream->Abort(status);
  return status;
}

}  // namespace sharing
}  // namespace cloudviews
