#ifndef CLOUDVIEWS_EXEC_PHYSICAL_OP_H_
#define CLOUDVIEWS_EXEC_PHYSICAL_OP_H_

#include <atomic>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/exec_stats.h"
#include "common/status.h"
#include "plan/logical_plan.h"
#include "storage/table.h"

namespace cloudviews {

// Pull-based physical operator (Volcano iterator model, row granularity).
// Protocol: Open() once, then Next() until *done, then Close(), all on one
// thread. The row operators in this header are the reference engine
// (ExecEngine::kRow); the columnar operators live in exec/batch_op.h.
class PhysicalOp {
 public:
  explicit PhysicalOp(const LogicalOp* logical) : logical_(logical) {}
  virtual ~PhysicalOp() = default;

  PhysicalOp(const PhysicalOp&) = delete;
  PhysicalOp& operator=(const PhysicalOp&) = delete;

  virtual Status Open() = 0;
  // Produces the next row into *row. Sets *done=true (and leaves *row
  // untouched) at end of stream.
  virtual Status Next(Row* row, bool* done) = 0;
  virtual void Close() {}

  const LogicalOp* logical() const { return logical_; }
  const OperatorStats& stats() const { return stats_; }

  // Reports (logical node, stats) pairs for every logical operator this
  // physical operator implements. Fused operators (the columnar scan
  // pipeline) implement several logical nodes at once and override this.
  virtual void ExportStats(
      const std::function<void(const LogicalOp*, const OperatorStats&)>& fn)
      const {
    fn(logical_, stats_);
  }

 protected:
  void CountRow(const Row& row, double cpu_cost) {
    stats_.rows_out += 1;
    for (const Value& v : row) stats_.bytes_out += v.ByteSize();
    stats_.cpu_cost += cpu_cost;
  }
  void AddCost(double cpu_cost) { stats_.cpu_cost += cpu_cost; }

  const LogicalOp* logical_;
  OperatorStats stats_;
};

using PhysicalOpPtr = std::unique_ptr<PhysicalOp>;

// Drains `child` to completion into *out.
Status DrainChild(PhysicalOp* child, std::vector<Row>* out);

// --- Leaf operators ---------------------------------------------------------

// Scans an in-memory table (base dataset). Verifies the bound GUID still
// matches the catalog version when a `expected_guid` is provided.
class TableScanOp : public PhysicalOp {
 public:
  TableScanOp(const LogicalOp* logical, TablePtr table, bool is_view_scan);

  Status Open() override;
  Status Next(Row* row, bool* done) override;

 private:
  TablePtr table_;
  bool is_view_scan_;
  size_t index_ = 0;
};

// --- Unary operators --------------------------------------------------------

class FilterOp : public PhysicalOp {
 public:
  FilterOp(const LogicalOp* logical, PhysicalOpPtr child);

  Status Open() override;
  Status Next(Row* row, bool* done) override;
  void Close() override;

 private:
  PhysicalOpPtr child_;
};

class ProjectOp : public PhysicalOp {
 public:
  ProjectOp(const LogicalOp* logical, PhysicalOpPtr child);

  Status Open() override;
  Status Next(Row* row, bool* done) override;
  void Close() override;

 private:
  PhysicalOpPtr child_;
};

class LimitOp : public PhysicalOp {
 public:
  LimitOp(const LogicalOp* logical, PhysicalOpPtr child);

  Status Open() override;
  Status Next(Row* row, bool* done) override;
  void Close() override;

 private:
  PhysicalOpPtr child_;
  int64_t produced_ = 0;
};

// Opaque user-defined operator. The engine cannot see inside a UDO; we model
// it as a deterministic (keyed on udo_name) pseudo-random row filter with a
// per-row CPU charge. Non-deterministic UDOs draw from a per-instance seed
// instead, so repeated executions genuinely differ.
class UdoOp : public PhysicalOp {
 public:
  UdoOp(const LogicalOp* logical, PhysicalOpPtr child, uint64_t instance_seed);

  Status Open() override;
  Status Next(Row* row, bool* done) override;
  void Close() override;

 private:
  PhysicalOpPtr child_;
  uint64_t seed_;
  uint64_t counter_ = 0;
};

// Sorts the child's output (materializing it) by the logical sort keys;
// std::stable_sort keeps rows with equal keys in input order.
class SortOp : public PhysicalOp {
 public:
  SortOp(const LogicalOp* logical, PhysicalOpPtr child);

  Status Open() override;
  Status Next(Row* row, bool* done) override;
  void Close() override;

 private:
  PhysicalOpPtr child_;
  std::vector<Row> rows_;
  size_t index_ = 0;
};

// Hash aggregation (also implements DISTINCT when aggregates are empty).
// Each group accumulates its rows in input order; output is sorted by the
// group key.
class HashAggregateOp : public PhysicalOp {
 public:
  HashAggregateOp(const LogicalOp* logical, PhysicalOpPtr child);

  Status Open() override;
  Status Next(Row* row, bool* done) override;
  void Close() override;

 private:
  struct AggState {
    double sum = 0.0;
    __int128 sum_int = 0;  // exact; see IntSumResult
    bool int_only = true;
    int64_t count = 0;
    Value min;
    Value max;
    std::vector<Value> distinct_values;  // linear set; fine for small groups
  };
  struct Group {
    Row key;
    std::vector<AggState> states;
  };

  using GroupBuckets = std::unordered_map<uint64_t, std::vector<Group>>;

  // Finds `key`'s group in *buckets (hash-collision aware) or creates it,
  // bumping *num_groups.
  Group* FindOrCreateGroup(GroupBuckets* buckets, uint64_t hash, Row&& key,
                           size_t* num_groups) const;
  Status AccumulateRow(const Row& row, Group* group) const;
  Status EmitGroup(Group* group, std::vector<Row>* out) const;
  void SortOutput();

  PhysicalOpPtr child_;
  std::vector<Row> output_;
  size_t index_ = 0;
};

// Engine-neutral view of a spool operator. The Executor's stats harvest and
// the PhysicalVerifier's bracketing checks apply to both the row SpoolOp and
// the columnar BatchSpoolOp through this interface, so neither layer needs
// to know which engine produced the operator tree.
class SpoolOpIface {
 public:
  virtual ~SpoolOpIface() = default;
  virtual uint64_t bytes_spooled() const = 0;
  virtual double spool_cpu_cost() const = 0;
  virtual bool aborted() const = 0;
  virtual uint32_t completion_fires() const = 0;
  // Row count of the side table handed to the completion callback (valid
  // once the latch fired without an abort). The PhysicalVerifier checks it
  // against the spool's own rows_out: a sealed view must record exactly the
  // rows the scan streamed.
  virtual uint64_t sealed_rows() const = 0;
};

// The one call site for the exec.spool.write fault (the fault-site registry
// permits exactly one injection point per site); shared by both spool
// implementations.
Status InjectSpoolWriteFault();

// Dual-consumer spool: passes rows through to the parent while appending a
// copy to a side table. When the stream completes, invokes `on_complete`
// with the materialized contents — the hook the view manager uses to seal
// the CloudView (early sealing happens here, before the whole job ends).
class SpoolOp : public PhysicalOp, public SpoolOpIface {
 public:
  using CompletionFn =
      std::function<void(const LogicalOp& spool, TablePtr contents,
                         const OperatorStats& child_stats)>;
  // Fired (instead of the completion callback, still exactly once) when the
  // spool's write path failed mid-materialization: the view manager must
  // withdraw the materializing entry and release the creation lock so
  // another job can retry. The query itself keeps streaming — a failed
  // spool degrades to a pass-through, never a failed job.
  using AbortFn =
      std::function<void(const LogicalOp& spool, const Status& cause)>;

  SpoolOp(const LogicalOp* logical, PhysicalOpPtr child,
          CompletionFn on_complete, AbortFn on_abort = nullptr);

  Status Open() override;
  Status Next(Row* row, bool* done) override;
  void Close() override;

  uint64_t bytes_spooled() const override { return bytes_spooled_; }
  double spool_cpu_cost() const override { return spool_cpu_cost_; }
  // True once a write fault aborted materialization (partial side table
  // dropped, rows still pass through).
  bool aborted() const override { return aborted_; }
  // How many times the completion latch actually fired. The exchange makes
  // >1 impossible by construction; the PhysicalVerifier checks ==1 after a
  // successful run (0 means the spool was never drained — the view would
  // silently never seal). An aborted spool still fires the latch exactly
  // once, routed to `on_abort` instead of `on_complete`.
  uint32_t completion_fires() const override {
    return completion_fires_.load(std::memory_order_acquire);
  }
  uint64_t sealed_rows() const override { return sealed_rows_; }

 private:
  PhysicalOpPtr child_;
  CompletionFn on_complete_;
  AbortFn on_abort_;
  std::shared_ptr<Table> side_table_;
  uint64_t bytes_spooled_ = 0;
  uint64_t sealed_rows_ = 0;
  double spool_cpu_cost_ = 0.0;
  // Abort state is only touched from the driver thread that calls Next().
  bool aborted_ = false;
  Status abort_cause_;
  // Exactly-once completion latch: even if end-of-stream is observed from
  // more than one thread, only the first transition fires `on_complete_`.
  // atomic[seq_cst]: exactly-once latch; the winning exchange(true) must
  // be globally ordered before the losing observers' loads.
  std::atomic<bool> completed_{false};
  // atomic[acq_rel]: fires counted after winning the latch; acquire loads
  // in completion_fires() observe the matching callback's effects.
  std::atomic<uint32_t> completion_fires_{0};
};

// --- Binary operators -------------------------------------------------------

// Hash join: drains the build (right) side into one multimap, then streams
// the probe (left) side through it.
class HashJoinOp : public PhysicalOp {
 public:
  HashJoinOp(const LogicalOp* logical, PhysicalOpPtr left, PhysicalOpPtr right);

  Status Open() override;
  Status Next(Row* row, bool* done) override;
  void Close() override;

 private:
  using BuildMap = std::unordered_multimap<uint64_t, Row>;

  Status BuildRight();

  PhysicalOpPtr left_;
  PhysicalOpPtr right_;
  BuildMap build_;
  std::vector<int> left_keys_;
  std::vector<int> right_keys_;
  Row current_left_;
  bool have_left_ = false;
  bool left_matched_ = false;
  std::pair<BuildMap::const_iterator, BuildMap::const_iterator> probe_range_;
  size_t right_arity_ = 0;
};

class MergeJoinOp : public PhysicalOp {
 public:
  MergeJoinOp(const LogicalOp* logical, PhysicalOpPtr left,
              PhysicalOpPtr right);

  Status Open() override;
  Status Next(Row* row, bool* done) override;
  void Close() override;

 private:
  PhysicalOpPtr left_;
  PhysicalOpPtr right_;
  std::vector<Row> left_rows_;
  std::vector<Row> right_rows_;
  std::vector<Row> output_;
  size_t index_ = 0;
};

class LoopJoinOp : public PhysicalOp {
 public:
  LoopJoinOp(const LogicalOp* logical, PhysicalOpPtr left, PhysicalOpPtr right);

  Status Open() override;
  Status Next(Row* row, bool* done) override;
  void Close() override;

 private:
  PhysicalOpPtr left_;
  PhysicalOpPtr right_;
  std::vector<Row> right_rows_;
  Row current_left_;
  bool have_left_ = false;
  bool left_matched_ = false;
  size_t right_index_ = 0;
};

// --- N-ary ------------------------------------------------------------------

class UnionAllOp : public PhysicalOp {
 public:
  UnionAllOp(const LogicalOp* logical, std::vector<PhysicalOpPtr> children);

  Status Open() override;
  Status Next(Row* row, bool* done) override;
  void Close() override;

 private:
  std::vector<PhysicalOpPtr> children_;
  size_t current_ = 0;
};

// Evaluates a join's residual predicate plus computes combined rows; shared
// by the three join implementations.
Result<bool> EvalJoinResidual(const LogicalOp& join, const Row& combined);

}  // namespace cloudviews

#endif  // CLOUDVIEWS_EXEC_PHYSICAL_OP_H_
