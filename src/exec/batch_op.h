#ifndef CLOUDVIEWS_EXEC_BATCH_OP_H_
#define CLOUDVIEWS_EXEC_BATCH_OP_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/status.h"
#include "exec/executor.h"
#include "exec/physical_op.h"
#include "exec/pooled_hash.h"
#include "plan/logical_plan.h"
#include "storage/column.h"
#include "storage/table.h"

namespace cloudviews {

// Vectorized (columnar batch-at-a-time) physical operators. The batch engine
// is the default execution path; the row operators in physical_op.h remain
// as the byte-identity reference (ExecEngine::kRow). Both run serially on
// the calling thread. Every operator here replicates its row counterpart's
// output — values, types, null-ness, row order — exactly, at any batch
// size, and keeps the same OperatorStats accounting (integer counters
// exactly; floating-point cost to accumulation-order rounding).

// A fully drained child output in columnar form (all batches concatenated).
using BatchChunk = ColumnBatch;

// The output ordinals an operator's consumer reads, one flag per column.
using ColumnMask = std::vector<bool>;

// Pull-based batch operator: Open() once, NextBatch() until *done, Close().
// Batches are dense (no selection vectors across operator boundaries) and
// hold 1..batch_rows rows; zero-row batches may appear and consumers must
// tolerate them. The row-granularity Next() inherited from PhysicalOp is a
// wiring error by construction.
//
// Required columns: BuildBatchPlan tells each operator which of its output
// ordinals its consumer reads. A batch carries at least those columns; a
// slot nothing above reads may stay null, its bytes carried per row in
// ColumnBatch::unread_bytes, so every OperatorStats::bytes_out still counts
// the full logical row (DESIGN.md, "Columnar execution").
class BatchOp : public PhysicalOp {
 public:
  using PhysicalOp::PhysicalOp;

  Status Next(Row* row, bool* done) final;
  virtual Status NextBatch(ColumnBatch* batch, bool* done) = 0;

  // Pulls the operator to completion and concatenates its batches into one
  // chunk, with the stats a NextBatch() drain records. A column is present
  // in the chunk when every batch carries it. A bare serial scan overrides
  // this to hand out its table's own columns without copying.
  virtual Status DrainToChunk(BatchChunk* chunk);
};

using BatchOpPtr = std::unique_ptr<BatchOp>;

// Resolves a scan leaf to its backing table, enforcing GUID version pinning
// (shared by the row and batch plan builders).
Result<TablePtr> BindScanTable(const ExecContext& context,
                               const LogicalOp& node, bool* is_view_scan);

// Builds the batch operator tree for `plan`, registering every operator in
// `registry` for stats harvesting and verifier bracketing — the columnar
// counterpart of the row engine's PhysicalBuilder, adding scan-pipeline
// fusion and required-column pruning. The root's batches are full width.
Result<BatchOpPtr> BuildBatchPlan(const ExecContext& context,
                                  size_t batch_rows, const LogicalOpPtr& plan,
                                  std::vector<PhysicalOp*>* registry);

// --- Leaf / fused pipeline --------------------------------------------------

// Columnar scan pipeline: a Scan/ViewScan plus the maximal fused chain of
// {Filter, Project, deterministic Udo} stages above it. Each NextBatch()
// runs the next batch_rows-row slice of the table through every stage, so
// a Limit above stops the scan as early as the row engine would, to within
// one batch. Per-stage stats replicate the discrete row operators. The
// table's columns are never copied unread: a whole-table range shares them,
// other ranges slice only the columns a stage above reads, and a first
// Filter reads only its predicate's columns before gathering the surviving
// rows.
class BatchScanPipelineOp : public BatchOp {
 public:
  // `chain` lists the fused logical nodes from the scan upward (the last
  // element is `logical`, the chain's top; a bare scan has a 1-chain).
  // `required` is the top's consumer's ColumnMask.
  BatchScanPipelineOp(const LogicalOp* logical,
                      std::vector<const LogicalOp*> chain, TablePtr table,
                      bool is_view_scan, size_t batch_rows,
                      ColumnMask required);

  Status Open() override;
  Status NextBatch(ColumnBatch* batch, bool* done) override;
  Status DrainToChunk(BatchChunk* chunk) override;
  void Close() override;

  void ExportStats(
      const std::function<void(const LogicalOp*, const OperatorStats&)>& fn)
      const override;

 private:
  struct Stage {
    const LogicalOp* op = nullptr;
    uint64_t udo_seed = 0;
    ColumnMask keep;  // the output ordinals the stage above reads
    OperatorStats stats;
  };

  // The table columns the scan emits: its pruned selection, or all.
  Status ScannedColumns(std::vector<ColumnPtr>* out) const;
  // Charges the scan stage for table rows [begin, end) of `scanned`.
  void CountScan(const std::vector<ColumnPtr>& scanned, size_t begin,
                 size_t end, OperatorStats* st) const;
  // Runs table rows [begin, end) through every stage into *out, charging
  // each stage's stats.
  Status RunRange(size_t begin, size_t end, ColumnBatch* out);

  std::vector<Stage> stages_;  // scan first, chain top last
  TablePtr table_;
  bool is_view_scan_;
  size_t batch_rows_;
  size_t pos_ = 0;  // next table row
};

// --- Unary operators --------------------------------------------------------

// Standalone vectorized filter (used when the filter cannot fuse into a scan
// pipeline, e.g. above a join).
class BatchFilterOp : public BatchOp {
 public:
  BatchFilterOp(const LogicalOp* logical, BatchOpPtr child,
                ColumnMask required);

  Status Open() override;
  Status NextBatch(ColumnBatch* batch, bool* done) override;
  void Close() override;

 private:
  BatchOpPtr child_;
  ColumnMask required_;
};

class BatchProjectOp : public BatchOp {
 public:
  BatchProjectOp(const LogicalOp* logical, BatchOpPtr child);

  Status Open() override;
  Status NextBatch(ColumnBatch* batch, bool* done) override;
  void Close() override;

 private:
  BatchOpPtr child_;
};

class BatchLimitOp : public BatchOp {
 public:
  BatchLimitOp(const LogicalOp* logical, BatchOpPtr child);

  Status Open() override;
  Status NextBatch(ColumnBatch* batch, bool* done) override;
  void Close() override;

 private:
  BatchOpPtr child_;
  int64_t produced_ = 0;
};

// Vectorized UDO filter: same per-row (seed, row content[, arrival counter])
// keep/drop hash as UdoOp, evaluated batch-at-a-time over full-width input.
// Rows arrive in global input order, so the non-deterministic counter
// sequence matches the row engine exactly.
class BatchUdoOp : public BatchOp {
 public:
  BatchUdoOp(const LogicalOp* logical, BatchOpPtr child,
             uint64_t instance_seed, ColumnMask required);

  Status Open() override;
  Status NextBatch(ColumnBatch* batch, bool* done) override;
  void Close() override;

 private:
  BatchOpPtr child_;
  ColumnMask required_;
  uint64_t seed_;
  uint64_t counter_ = 0;
};

// Materializing sort: drains the child into one chunk, argsorts row indices
// (stable, per-key CompareCells honoring ascending flags — exactly SortOp's
// comparator), gathers once, and emits batch_rows-row slices.
class BatchSortOp : public BatchOp {
 public:
  BatchSortOp(const LogicalOp* logical, BatchOpPtr child, size_t batch_rows,
              ColumnMask required);

  Status Open() override;
  Status NextBatch(ColumnBatch* batch, bool* done) override;
  void Close() override;

 private:
  BatchOpPtr child_;
  size_t batch_rows_;
  ColumnMask required_;
  BatchChunk sorted_;
  size_t pos_ = 0;
};

// Vectorized hash aggregation over an arena-pooled group table. Group keys
// and aggregate arguments are evaluated vectorized over the whole input
// chunk; rows then accumulate into their groups in global input order (so
// floating-point sums and DISTINCT discovery order match serial row
// execution bit for bit), and groups are emitted sorted by key — the same
// deterministic order HashAggregateOp::SortOutput produces.
class BatchAggregateOp : public BatchOp {
 public:
  BatchAggregateOp(const LogicalOp* logical, BatchOpPtr child,
                   size_t batch_rows);

  Status Open() override;
  Status NextBatch(ColumnBatch* batch, bool* done) override;
  void Close() override;

 private:
  struct AggState {
    double sum = 0.0;
    __int128 sum_int = 0;  // exact; see IntSumResult
    bool int_only = true;
    int64_t count = 0;
    // Row ordinals (into the evaluated argument column) of the current
    // min/max; -1 while unset. Avoids materializing per-group Values.
    int64_t min_row = -1;
    int64_t max_row = -1;
    std::vector<uint32_t> distinct_rows;  // linear set of representative rows
  };
  struct Group {
    uint32_t first_row = 0;  // representative key = key cells at this row
    std::vector<AggState> states;
  };

  BatchOpPtr child_;
  size_t batch_rows_;
  BatchChunk output_;
  size_t pos_ = 0;
};

// Columnar spool: streams batches through while appending them column-wise
// to the side table, with the same per-row exec.spool.write fault-injection
// sites, abort semantics, byte/cost accounting, and exactly-once completion
// latch as the row SpoolOp.
class BatchSpoolOp : public BatchOp, public SpoolOpIface {
 public:
  BatchSpoolOp(const LogicalOp* logical, BatchOpPtr child,
               SpoolOp::CompletionFn on_complete,
               SpoolOp::AbortFn on_abort = nullptr);

  Status Open() override;
  Status NextBatch(ColumnBatch* batch, bool* done) override;
  void Close() override;

  uint64_t bytes_spooled() const override { return bytes_spooled_; }
  double spool_cpu_cost() const override { return spool_cpu_cost_; }
  bool aborted() const override { return aborted_; }
  uint32_t completion_fires() const override {
    return completion_fires_.load(std::memory_order_acquire);
  }
  uint64_t sealed_rows() const override { return sealed_rows_; }

 private:
  BatchOpPtr child_;
  SpoolOp::CompletionFn on_complete_;
  SpoolOp::AbortFn on_abort_;
  std::shared_ptr<Table> side_table_;
  uint64_t bytes_spooled_ = 0;
  uint64_t sealed_rows_ = 0;
  double spool_cpu_cost_ = 0.0;
  bool aborted_ = false;
  Status abort_cause_;
  // atomic[seq_cst]: exactly-once latch; the winning exchange(true) must
  // be globally ordered before the losing observers' loads.
  std::atomic<bool> completed_{false};
  // atomic[acq_rel]: fires counted after winning the latch; acquire loads
  // in completion_fires() observe the matching callback's effects.
  std::atomic<uint32_t> completion_fires_{0};
};

// --- Binary operators -------------------------------------------------------

// Vectorized hash join over a PooledHashTable. The build side is inserted in
// global input order with head-inserted chains, which reproduces the row
// engine's unordered_multimap equal_range iteration (newest-first among
// equal keys) — so match emission order is byte-identical. The probe side
// streams batch-at-a-time.
class BatchHashJoinOp : public BatchOp {
 public:
  BatchHashJoinOp(const LogicalOp* logical, BatchOpPtr left, BatchOpPtr right,
                  ColumnMask required);

  Status Open() override;
  Status NextBatch(ColumnBatch* batch, bool* done) override;
  void Close() override;

 private:
  Status BuildRight();
  // Probes build-side matches for every row of `probe`, appending output
  // rows (and left-outer pads) to *out in probe-row order.
  Status Probe(const ColumnBatch& probe, ColumnBatch* out);

  BatchOpPtr left_;
  BatchOpPtr right_;
  ColumnMask required_;
  std::vector<int> left_keys_;
  std::vector<int> right_keys_;
  BatchChunk build_;
  PooledHashTable table_;
};

class BatchMergeJoinOp : public BatchOp {
 public:
  BatchMergeJoinOp(const LogicalOp* logical, BatchOpPtr left, BatchOpPtr right,
                   size_t batch_rows, ColumnMask required);

  Status Open() override;
  Status NextBatch(ColumnBatch* batch, bool* done) override;
  void Close() override;

 private:
  BatchOpPtr left_;
  BatchOpPtr right_;
  size_t batch_rows_;
  ColumnMask required_;
  BatchChunk output_;
  size_t pos_ = 0;
};

class BatchLoopJoinOp : public BatchOp {
 public:
  BatchLoopJoinOp(const LogicalOp* logical, BatchOpPtr left, BatchOpPtr right,
                  ColumnMask required);

  Status Open() override;
  Status NextBatch(ColumnBatch* batch, bool* done) override;
  void Close() override;

 private:
  BatchOpPtr left_;
  BatchOpPtr right_;
  ColumnMask required_;
  BatchChunk right_chunk_;
};

// --- N-ary ------------------------------------------------------------------

class BatchUnionAllOp : public BatchOp {
 public:
  BatchUnionAllOp(const LogicalOp* logical, std::vector<BatchOpPtr> children);

  Status Open() override;
  Status NextBatch(ColumnBatch* batch, bool* done) override;
  void Close() override;

 private:
  std::vector<BatchOpPtr> children_;
  size_t current_ = 0;
};

}  // namespace cloudviews

#endif  // CLOUDVIEWS_EXEC_BATCH_OP_H_
