#include "exec/shared_scan_op.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "exec/batch_kernels.h"
#include "exec/physical_verifier.h"
#include "fault/fault.h"
#include "fault/fault_sites.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "verify/verify.h"

namespace cloudviews {

using sharing::SharedStream;

namespace {

// Seconds a SharedScan waits for the producer's next batch before it
// detaches to its fallback plan.
constexpr double kSharingWaitSeconds = 5.0;

}  // namespace

SharedScanOp::SharedScanOp(const LogicalOp* logical,
                           const ExecContext* context, size_t batch_rows)
    : BatchOp(logical), context_(context),
      batch_rows_(batch_rows > 0 ? batch_rows : 1) {}

Status SharedScanOp::Open() {
  if (context_->sharing != nullptr) {
    stream_ = context_->sharing->FindStream(logical_->view_signature);
  }
  // A missing directory or stream is not an error: the fallback plan answers
  // the query alone, bytes unchanged (this is how plans carrying SharedScans
  // stay executable outside their sharing window).
  if (stream_ == nullptr) return Detach();
  return Status::OK();
}

Status SharedScanOp::NextBatch(ColumnBatch* batch, bool* done) {
  *done = false;
  if (detached_) return NextFallbackBatch(batch, done);
  while (true) {
    if (next_index_ < stream_->published()) {
      // Wait-free fast path: forward the sealed batch zero-copy, charged
      // like a view read (the producer pipeline owns the compute).
      const ColumnBatch& src = stream_->batch(next_index_);
      ++next_index_;
      emitted_rows_ += src.num_rows;
      const uint64_t bytes = BatchByteSize(src);
      stats_.rows_out += src.num_rows;
      stats_.bytes_out += bytes;
      stats_.cpu_cost +=
          CostWeights::kScanRow * static_cast<double>(src.num_rows) +
          CostWeights::kViewScanByte * static_cast<double>(bytes);
      static obs::Counter& forwarded = obs::MetricsRegistry::Global().counter(
          obs::metric_names::kSharingBatchesForwarded);
      forwarded.Increment();
      *batch = src;
      return Status::OK();
    }
    const SharedStream::State state = stream_->state();
    if (state == SharedStream::State::kComplete) {
      // Re-check under the state: Complete() is release-stored after the
      // final Publish, so an acquire of kComplete makes published() final.
      if (next_index_ < stream_->published()) continue;
      if (!served_counted_) {
        served_counted_ = true;
        stream_->CountSubscriberServed();
        static obs::Counter& hits = obs::MetricsRegistry::Global().counter(
            obs::metric_names::kSharingHits);
        hits.Increment();
      }
      *done = true;
      return Status::OK();
    }
    if (state == SharedStream::State::kAborted) {
      CLOUDVIEWS_RETURN_NOT_OK(Detach());
      return NextFallbackBatch(batch, done);
    }
    // Producer still running and nothing new to read: wait. The injected
    // fault stands in for a stalled producer — the subscriber must give up
    // and detach exactly as on a real timeout.
    const bool injected_timeout =
        !fault::Inject(fault::sites::kSharingSubscriberTimeout).ok();
    SharedStream::State woke = SharedStream::State::kRunning;
    if (!injected_timeout) {
      woke = stream_->WaitForBatch(next_index_, kSharingWaitSeconds);
    }
    if (injected_timeout || (woke == SharedStream::State::kRunning &&
                             next_index_ >= stream_->published())) {
      CLOUDVIEWS_RETURN_NOT_OK(Detach());
      return NextFallbackBatch(batch, done);
    }
  }
}

Status SharedScanOp::Detach() {
  detached_ = true;
  if (stream_ != nullptr) {
    stream_->CountSubscriberDetached();
    stream_ = nullptr;
  }

  // Run the fallback plan privately: no sharing directory (a nested
  // SharedScan would deadlock on its own stream), no spool hooks (the
  // fallback plan is spool-free by construction).
  ExecContext context = *context_;
  context.sharing = nullptr;
  context.on_spool_complete = nullptr;
  context.on_spool_abort = nullptr;

  const LogicalOpPtr& plan = logical_->shared_fallback_plan;
  std::vector<PhysicalOp*> registry;
  auto built = BuildBatchPlan(context, batch_rows_, plan, &registry);
  if (!built.ok()) return built.status();
  BatchOpPtr root = std::move(built).value();
  if constexpr (verify::RuntimeChecksEnabled()) {
    CLOUDVIEWS_RETURN_NOT_OK(
        verify::PhysicalVerifier::VerifyWiring(*plan, registry));
  }
  CLOUDVIEWS_RETURN_NOT_OK(root->Open());
  Status drained = root->DrainToChunk(&fallback_);
  root->Close();
  CLOUDVIEWS_RETURN_NOT_OK(drained);
  if constexpr (verify::RuntimeChecksEnabled()) {
    CLOUDVIEWS_RETURN_NOT_OK(
        verify::PhysicalVerifier::VerifyPostRun(*plan, registry));
  }

  // The whole fallback compute lands on this node's account (honest: the
  // subscriber really did that work after detaching).
  for (PhysicalOp* op : registry) {
    op->ExportStats([&](const LogicalOp*, const OperatorStats& op_stats) {
      stats_.cpu_cost += op_stats.cpu_cost;
    });
  }

  // Deterministic, order-preserving execution means the rows already
  // forwarded from the stream are exactly the fallback's prefix: resume
  // right after it.
  fallback_pos_ = std::min(static_cast<size_t>(emitted_rows_),
                           fallback_.num_rows);
  return Status::OK();
}

Status SharedScanOp::NextFallbackBatch(ColumnBatch* batch, bool* done) {
  if (fallback_pos_ >= fallback_.num_rows) {
    *done = true;
    return Status::OK();
  }
  const size_t begin = fallback_pos_;
  const size_t end = std::min(begin + batch_rows_, fallback_.num_rows);
  fallback_pos_ = end;
  batch->columns.clear();
  batch->columns.reserve(fallback_.columns.size());
  for (const ColumnPtr& col : fallback_.columns) {
    batch->columns.push_back(SliceColumn(*col, begin, end));
  }
  batch->num_rows = end - begin;
  emitted_rows_ += batch->num_rows;
  stats_.rows_out += batch->num_rows;
  stats_.bytes_out += BatchByteSize(*batch);
  return Status::OK();
}

void SharedScanOp::Close() {}

}  // namespace cloudviews
