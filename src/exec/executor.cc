#include "exec/executor.h"

#include <chrono>
#include <vector>

#include "exec/batch_op.h"
#include "exec/physical_verifier.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "verify/plan_verifier.h"
#include "verify/verify.h"

namespace cloudviews {

namespace {

// Builds the serial row-engine tree, registering every operator in
// `registry` so statistics can be harvested after the run.
class PhysicalBuilder {
 public:
  PhysicalBuilder(const ExecContext* context,
                  std::vector<PhysicalOp*>* registry)
      : context_(context), registry_(registry) {}

  Result<PhysicalOpPtr> Build(const LogicalOpPtr& node) {
    auto op = BuildNode(node);
    if (op.ok()) registry_->push_back(op.value().get());
    return op;
  }

 private:
  Result<PhysicalOpPtr> BuildNode(const LogicalOpPtr& node) {
    switch (node->kind) {
      case LogicalOpKind::kScan:
      case LogicalOpKind::kViewScan: {
        // Shares version pinning with the batch builder, so both engines
        // bind — and fail — identically.
        bool is_view_scan = false;
        auto table = BindScanTable(*context_, *node, &is_view_scan);
        if (!table.ok()) return table.status();
        return PhysicalOpPtr(std::make_unique<TableScanOp>(
            node.get(), std::move(table).value(), is_view_scan));
      }
      case LogicalOpKind::kFilter: {
        auto child = Build(node->children[0]);
        if (!child.ok()) return child.status();
        return PhysicalOpPtr(
            std::make_unique<FilterOp>(node.get(), std::move(child).value()));
      }
      case LogicalOpKind::kProject: {
        auto child = Build(node->children[0]);
        if (!child.ok()) return child.status();
        return PhysicalOpPtr(
            std::make_unique<ProjectOp>(node.get(), std::move(child).value()));
      }
      case LogicalOpKind::kJoin: {
        auto left = Build(node->children[0]);
        if (!left.ok()) return left.status();
        auto right = Build(node->children[1]);
        if (!right.ok()) return right.status();
        switch (node->join_algorithm) {
          case JoinAlgorithm::kHash:
            if (node->equi_keys.empty()) {
              return Status::InvalidArgument(
                  "hash join requires at least one equi key");
            }
            return PhysicalOpPtr(std::make_unique<HashJoinOp>(
                node.get(), std::move(left).value(),
                std::move(right).value()));
          case JoinAlgorithm::kMerge:
            if (node->equi_keys.empty()) {
              return Status::InvalidArgument(
                  "merge join requires at least one equi key");
            }
            return PhysicalOpPtr(std::make_unique<MergeJoinOp>(
                node.get(), std::move(left).value(),
                std::move(right).value()));
          case JoinAlgorithm::kLoop:
            return PhysicalOpPtr(std::make_unique<LoopJoinOp>(
                node.get(), std::move(left).value(),
                std::move(right).value()));
        }
        return Status::Internal("unknown join algorithm");
      }
      case LogicalOpKind::kAggregate: {
        auto child = Build(node->children[0]);
        if (!child.ok()) return child.status();
        return PhysicalOpPtr(std::make_unique<HashAggregateOp>(
            node.get(), std::move(child).value()));
      }
      case LogicalOpKind::kSort: {
        auto child = Build(node->children[0]);
        if (!child.ok()) return child.status();
        return PhysicalOpPtr(
            std::make_unique<SortOp>(node.get(), std::move(child).value()));
      }
      case LogicalOpKind::kLimit: {
        auto child = Build(node->children[0]);
        if (!child.ok()) return child.status();
        return PhysicalOpPtr(
            std::make_unique<LimitOp>(node.get(), std::move(child).value()));
      }
      case LogicalOpKind::kUnionAll: {
        std::vector<PhysicalOpPtr> children;
        for (const LogicalOpPtr& child : node->children) {
          auto built = Build(child);
          if (!built.ok()) return built.status();
          children.push_back(std::move(built).value());
        }
        return PhysicalOpPtr(
            std::make_unique<UnionAllOp>(node.get(), std::move(children)));
      }
      case LogicalOpKind::kUdo: {
        auto child = Build(node->children[0]);
        if (!child.ok()) return child.status();
        return PhysicalOpPtr(std::make_unique<UdoOp>(
            node.get(), std::move(child).value(), context_->job_seed));
      }
      case LogicalOpKind::kSpool: {
        auto child = Build(node->children[0]);
        if (!child.ok()) return child.status();
        return PhysicalOpPtr(std::make_unique<SpoolOp>(
            node.get(), std::move(child).value(),
            context_->on_spool_complete, context_->on_spool_abort));
      }
      case LogicalOpKind::kSharedScan:
        // The sharing rewrite only runs for columnar windows; a SharedScan
        // reaching the row builder is a wiring error, not a fallback case.
        return Status::Internal("shared scan requires the columnar engine");
    }
    return Status::Internal("unhandled logical operator kind");
  }

  const ExecContext* context_;
  std::vector<PhysicalOp*>* registry_;
};

bool IsExchangeBoundary(LogicalOpKind kind) {
  switch (kind) {
    case LogicalOpKind::kJoin:
    case LogicalOpKind::kAggregate:
    case LogicalOpKind::kSort:
    case LogicalOpKind::kSpool:
      return true;
    default:
      return false;
  }
}

}  // namespace

Result<ExecResult> Executor::Execute(const LogicalOpPtr& plan) const {
  obs::Span exec_span("execute", "exec");
  const bool columnar = context_.engine == ExecEngine::kColumnar;

  if constexpr (verify::RuntimeChecksEnabled()) {
    // Fail before building anything: the executor trusts plan shape (child
    // arities, schema contracts) everywhere below.
    verify::PlanVerifyOptions options;
    options.catalog = context_.catalog;
    CLOUDVIEWS_RETURN_NOT_OK(verify::PlanVerifier(options).Verify(*plan));
  }

  std::vector<PhysicalOp*> registry;
  PhysicalOpPtr row_root;
  BatchOpPtr batch_root;
  {
    obs::Span span("build-physical", "exec");
    if (columnar) {
      auto built =
          BuildBatchPlan(context_, context_.batch_rows, plan, &registry);
      if (!built.ok()) return built.status();
      batch_root = std::move(built).value();
    } else {
      PhysicalBuilder builder(&context_, &registry);
      auto built = builder.Build(plan);
      if (!built.ok()) return built.status();
      row_root = std::move(built).value();
    }
  }
  PhysicalOp* root = columnar ? static_cast<PhysicalOp*>(batch_root.get())
                              : row_root.get();

  if constexpr (verify::RuntimeChecksEnabled()) {
    CLOUDVIEWS_RETURN_NOT_OK(
        verify::PhysicalVerifier::VerifyWiring(*plan, registry));
  }

  auto wall_start = std::chrono::steady_clock::now();
  {
    obs::Span span("open-operators", "exec");
    CLOUDVIEWS_RETURN_NOT_OK(root->Open());
  }
  auto output = std::make_shared<Table>("result", plan->output_schema);
  {
    obs::Span span("drain-output", "exec");
    if (columnar) {
      while (true) {
        ColumnBatch batch;
        bool done = false;
        CLOUDVIEWS_RETURN_NOT_OK(batch_root->NextBatch(&batch, &done));
        if (done) break;
        if constexpr (verify::RuntimeChecksEnabled()) {
          CLOUDVIEWS_RETURN_NOT_OK(
              verify::PhysicalVerifier::VerifyBatch(*plan, batch));
        }
        if (batch.num_rows == 0) continue;
        CLOUDVIEWS_RETURN_NOT_OK(output->AppendBatch(batch));
      }
    } else {
      while (true) {
        Row row;
        bool done = false;
        CLOUDVIEWS_RETURN_NOT_OK(root->Next(&row, &done));
        if (done) break;
        CLOUDVIEWS_RETURN_NOT_OK(output->Append(row));
      }
    }
  }
  root->Close();
  if constexpr (verify::RuntimeChecksEnabled()) {
    // The run completed: spool sealing must have fired exactly once per
    // spool, and per-operator row counts must respect operator contracts.
    CLOUDVIEWS_RETURN_NOT_OK(
        verify::PhysicalVerifier::VerifyPostRun(*plan, registry));
  }
  double wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();

  ExecResult result;
  result.output = output;
  ExecutionStats& stats = result.stats;
  stats.wall_seconds = wall_seconds;
  for (PhysicalOp* op : registry) {
    // A fused operator reports one (node, stats) pair per logical node it
    // implements, so per-node accounting matches the row engine's.
    op->ExportStats([&](const LogicalOp* node, const OperatorStats& op_stats) {
      stats.per_node[node] = op_stats;
      stats.total_cpu_cost += op_stats.cpu_cost;
      stats.num_operators += 1;
      switch (node->kind) {
        case LogicalOpKind::kScan:
          stats.input_rows += op_stats.rows_out;
          stats.input_bytes += op_stats.bytes_out;
          stats.total_bytes_read += op_stats.bytes_out;
          break;
        case LogicalOpKind::kViewScan:
          stats.view_rows += op_stats.rows_out;
          stats.view_bytes += op_stats.bytes_out;
          stats.total_bytes_read += op_stats.bytes_out;
          break;
        case LogicalOpKind::kSharedScan:
          // Forwarded batches are charged like view reads: the producer's
          // compute lands on the producer pipeline, not the subscriber.
          stats.view_rows += op_stats.rows_out;
          stats.view_bytes += op_stats.bytes_out;
          stats.total_bytes_read += op_stats.bytes_out;
          break;
        default:
          // Exchange boundaries persist intermediate outputs to the local
          // store; their outputs are re-read by the next stage.
          if (IsExchangeBoundary(node->kind)) {
            stats.total_bytes_read += op_stats.bytes_out;
          }
          break;
      }
    });
    if (auto* spool = dynamic_cast<SpoolOpIface*>(op)) {
      stats.bytes_spooled += spool->bytes_spooled();
      stats.spool_cpu_cost += spool->spool_cpu_cost();
    }
  }

  // Process-wide roll-up (one sharded-atomic add per metric per query).
  static obs::Counter& queries =
      obs::MetricsRegistry::Global().counter(obs::metric_names::kExecQueries);
  static obs::Counter& bytes_read =
      obs::MetricsRegistry::Global().counter(obs::metric_names::kExecBytesRead);
  static obs::Counter& bytes_spooled =
      obs::MetricsRegistry::Global().counter(
          obs::metric_names::kExecBytesSpooled);
  queries.Increment();
  bytes_read.Add(stats.total_bytes_read);
  bytes_spooled.Add(stats.bytes_spooled);
  exec_span.Arg("rows_out", static_cast<uint64_t>(output->num_rows()));
  return result;
}

}  // namespace cloudviews
