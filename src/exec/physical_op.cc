#include "exec/physical_op.h"

#include <algorithm>
#include <cmath>

#include "common/hash.h"
#include "fault/fault.h"
#include "fault/fault_sites.h"
#include "obs/log.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace cloudviews {

Result<bool> EvalJoinResidual(const LogicalOp& join, const Row& combined) {
  if (join.predicate == nullptr) return true;
  auto v = join.predicate->Evaluate(combined);
  if (!v.ok()) return v.status();
  return !v.value().is_null() && v.value().type() == DataType::kBool &&
         v.value().AsBool();
}

Status DrainChild(PhysicalOp* child, std::vector<Row>* out) {
  while (true) {
    Row row;
    bool done = false;
    CLOUDVIEWS_RETURN_NOT_OK(child->Next(&row, &done));
    if (done) return Status::OK();
    out->push_back(std::move(row));
  }
}

// --- TableScanOp ------------------------------------------------------------

TableScanOp::TableScanOp(const LogicalOp* logical, TablePtr table,
                         bool is_view_scan)
    : PhysicalOp(logical), table_(std::move(table)),
      is_view_scan_(is_view_scan) {}

Status TableScanOp::Open() {
  if (table_ == nullptr) {
    return Status::NotFound("scan target not available: " +
                            (logical_->kind == LogicalOpKind::kScan
                                 ? logical_->dataset_name
                                 : logical_->view_path));
  }
  index_ = 0;
  return Status::OK();
}

Status TableScanOp::Next(Row* row, bool* done) {
  if (index_ >= table_->num_rows()) {
    *done = true;
    return Status::OK();
  }
  Row source = table_->row(index_);
  if (logical_->kind == LogicalOpKind::kScan &&
      !logical_->scan_columns.empty()) {
    // Pruned scan: emit only the selected columns.
    Row narrow;
    narrow.reserve(logical_->scan_columns.size());
    for (int col : logical_->scan_columns) {
      if (col < 0 || static_cast<size_t>(col) >= source.size()) {
        return Status::Internal("scan column " + std::to_string(col) +
                                " out of range for dataset " +
                                logical_->dataset_name);
      }
      narrow.push_back(source[static_cast<size_t>(col)]);
    }
    *row = std::move(narrow);
  } else {
    *row = std::move(source);
  }
  index_ += 1;
  *done = false;
  size_t row_bytes = 0;
  for (const Value& v : *row) row_bytes += v.ByteSize();
  double byte_weight =
      is_view_scan_ ? CostWeights::kViewScanByte : CostWeights::kScanByte;
  CountRow(*row, CostWeights::kScanRow +
                     byte_weight * static_cast<double>(row_bytes));
  return Status::OK();
}

// --- FilterOp ----------------------------------------------------------------

FilterOp::FilterOp(const LogicalOp* logical, PhysicalOpPtr child)
    : PhysicalOp(logical), child_(std::move(child)) {}

Status FilterOp::Open() { return child_->Open(); }

Status FilterOp::Next(Row* row, bool* done) {
  while (true) {
    bool child_done = false;
    CLOUDVIEWS_RETURN_NOT_OK(child_->Next(row, &child_done));
    if (child_done) {
      *done = true;
      return Status::OK();
    }
    AddCost(CostWeights::kFilterRow);
    auto v = logical_->predicate->Evaluate(*row);
    if (!v.ok()) return v.status();
    if (!v.value().is_null() && v.value().type() == DataType::kBool &&
        v.value().AsBool()) {
      *done = false;
      CountRow(*row, 0.0);
      return Status::OK();
    }
  }
}

void FilterOp::Close() { child_->Close(); }

// --- ProjectOp ----------------------------------------------------------------

ProjectOp::ProjectOp(const LogicalOp* logical, PhysicalOpPtr child)
    : PhysicalOp(logical), child_(std::move(child)) {}

Status ProjectOp::Open() { return child_->Open(); }

Status ProjectOp::Next(Row* row, bool* done) {
  Row input;
  bool child_done = false;
  CLOUDVIEWS_RETURN_NOT_OK(child_->Next(&input, &child_done));
  if (child_done) {
    *done = true;
    return Status::OK();
  }
  Row output;
  output.reserve(logical_->projections.size());
  for (const ExprPtr& expr : logical_->projections) {
    auto v = expr->Evaluate(input);
    if (!v.ok()) return v.status();
    output.push_back(std::move(v).value());
  }
  *row = std::move(output);
  *done = false;
  CountRow(*row, CostWeights::kProjectRow);
  return Status::OK();
}

void ProjectOp::Close() { child_->Close(); }

// --- LimitOp -------------------------------------------------------------------

LimitOp::LimitOp(const LogicalOp* logical, PhysicalOpPtr child)
    : PhysicalOp(logical), child_(std::move(child)) {}

Status LimitOp::Open() { return child_->Open(); }

Status LimitOp::Next(Row* row, bool* done) {
  if (produced_ >= logical_->limit) {
    *done = true;
    return Status::OK();
  }
  bool child_done = false;
  CLOUDVIEWS_RETURN_NOT_OK(child_->Next(row, &child_done));
  if (child_done) {
    *done = true;
    return Status::OK();
  }
  produced_ += 1;
  *done = false;
  CountRow(*row, 0.0);
  return Status::OK();
}

void LimitOp::Close() { child_->Close(); }

// --- UdoOp ---------------------------------------------------------------------

UdoOp::UdoOp(const LogicalOp* logical, PhysicalOpPtr child,
             uint64_t instance_seed)
    : PhysicalOp(logical), child_(std::move(child)) {
  // Deterministic UDOs key their behaviour purely on the UDO name, so the
  // same logical computation yields identical output row sets across jobs.
  uint64_t name_seed = HashString(logical->udo_name).lo;
  seed_ = logical->udo_deterministic ? name_seed
                                     : Mix64(name_seed ^ instance_seed);
}

Status UdoOp::Open() { return child_->Open(); }

Status UdoOp::Next(Row* row, bool* done) {
  while (true) {
    bool child_done = false;
    CLOUDVIEWS_RETURN_NOT_OK(child_->Next(row, &child_done));
    if (child_done) {
      *done = true;
      return Status::OK();
    }
    AddCost(logical_->udo_cost_per_row);
    counter_ += 1;
    // Deterministic pseudo-random keep/drop decision on (seed, row content).
    Hasher h(seed_);
    for (const Value& v : *row) v.HashInto(&h);
    if (!logical_->udo_deterministic) h.Update(counter_);
    double u = static_cast<double>(h.Finish().lo >> 11) *
               (1.0 / 9007199254740992.0);
    if (u < logical_->udo_selectivity) {
      *done = false;
      CountRow(*row, 0.0);
      return Status::OK();
    }
  }
}

void UdoOp::Close() { child_->Close(); }

// --- SortOp --------------------------------------------------------------------

SortOp::SortOp(const LogicalOp* logical, PhysicalOpPtr child)
    : PhysicalOp(logical), child_(std::move(child)) {}

Status SortOp::Open() {
  obs::Span span("sort", "operator");
  CLOUDVIEWS_RETURN_NOT_OK(child_->Open());
  rows_.clear();
  index_ = 0;
  CLOUDVIEWS_RETURN_NOT_OK(DrainChild(child_.get(), &rows_));
  // Precompute sort keys per row to keep the comparator cheap and fallible
  // evaluation out of std::sort.
  std::vector<std::vector<Value>> keys(rows_.size());
  for (size_t i = 0; i < rows_.size(); ++i) {
    for (const SortKey& key : logical_->sort_keys) {
      auto v = key.expr->Evaluate(rows_[i]);
      if (!v.ok()) return v.status();
      keys[i].push_back(std::move(v).value());
    }
  }
  std::vector<size_t> order(rows_.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    for (size_t k = 0; k < logical_->sort_keys.size(); ++k) {
      int cmp = keys[a][k].Compare(keys[b][k]);
      if (cmp != 0) return logical_->sort_keys[k].ascending ? cmp < 0 : cmp > 0;
    }
    return false;
  });
  std::vector<Row> sorted;
  sorted.reserve(rows_.size());
  for (size_t i : order) sorted.push_back(std::move(rows_[i]));
  rows_ = std::move(sorted);
  double n = static_cast<double>(rows_.size());
  AddCost(CostWeights::kSortRowLog * n * (n > 1 ? std::log2(n) : 1.0));
  return Status::OK();
}

Status SortOp::Next(Row* row, bool* done) {
  if (index_ >= rows_.size()) {
    *done = true;
    return Status::OK();
  }
  *row = std::move(rows_[index_]);
  index_ += 1;
  *done = false;
  CountRow(*row, 0.0);
  return Status::OK();
}

void SortOp::Close() {
  child_->Close();
  rows_.clear();
}

// --- HashAggregateOp -------------------------------------------------------------

HashAggregateOp::Group* HashAggregateOp::FindOrCreateGroup(
    GroupBuckets* buckets, uint64_t hash, Row&& key,
    size_t* num_groups) const {
  std::vector<Group>& bucket = (*buckets)[hash];
  for (Group& g : bucket) {
    bool equal = true;
    for (size_t i = 0; i < key.size(); ++i) {
      if (g.key[i].Compare(key[i]) != 0 ||
          g.key[i].is_null() != key[i].is_null()) {
        equal = false;
        break;
      }
    }
    if (equal) return &g;
  }
  bucket.push_back(
      {std::move(key), std::vector<AggState>(logical_->aggregates.size())});
  *num_groups += 1;
  return &bucket.back();
}

Status HashAggregateOp::AccumulateRow(const Row& row, Group* group) const {
  for (size_t i = 0; i < logical_->aggregates.size(); ++i) {
    const AggregateSpec& spec = logical_->aggregates[i];
    AggState& state = group->states[i];
    if (spec.func == AggFunc::kCountStar) {
      state.count += 1;
      continue;
    }
    auto v = spec.arg->Evaluate(row);
    if (!v.ok()) return v.status();
    const Value& val = v.value();
    if (val.is_null()) continue;  // SQL semantics: aggregates skip nulls
    if (spec.distinct) {
      bool seen = false;
      for (const Value& d : state.distinct_values) {
        if (d.Compare(val) == 0) {
          seen = true;
          break;
        }
      }
      if (seen) continue;
      state.distinct_values.push_back(val);
    }
    switch (spec.func) {
      case AggFunc::kCount:
        state.count += 1;
        break;
      case AggFunc::kSum:
      case AggFunc::kAvg:
        state.count += 1;
        state.sum += val.NumericValue();
        if (val.type() == DataType::kInt64) {
          state.sum_int += val.AsInt64();
        } else {
          state.int_only = false;
        }
        break;
      case AggFunc::kMin:
        if (state.min.is_null() || val.Compare(state.min) < 0) {
          state.min = val;
        }
        break;
      case AggFunc::kMax:
        if (state.max.is_null() || val.Compare(state.max) > 0) {
          state.max = val;
        }
        break;
      default:
        break;
    }
  }
  return Status::OK();
}

Status HashAggregateOp::EmitGroup(Group* group,
                                  std::vector<Row>* out) const {
  Row row = std::move(group->key);
  for (size_t i = 0; i < logical_->aggregates.size(); ++i) {
    const AggregateSpec& spec = logical_->aggregates[i];
    const AggState& state = group->states[i];
    switch (spec.func) {
      case AggFunc::kCountStar:
      case AggFunc::kCount:
        row.push_back(Value(state.count));
        break;
      case AggFunc::kSum:
        if (state.count == 0) {
          row.push_back(Value::Null());
        } else if (state.int_only) {
          int64_t sum = 0;
          CLOUDVIEWS_RETURN_NOT_OK(IntSumResult(state.sum_int, &sum));
          row.push_back(Value(sum));
        } else {
          row.push_back(Value(state.sum));
        }
        break;
      case AggFunc::kAvg:
        row.push_back(state.count == 0
                          ? Value::Null()
                          : Value(state.sum /
                                  static_cast<double>(state.count)));
        break;
      case AggFunc::kMin:
        row.push_back(state.min);
        break;
      case AggFunc::kMax:
        row.push_back(state.max);
        break;
    }
  }
  out->push_back(std::move(row));
  return Status::OK();
}

void HashAggregateOp::SortOutput() {
  // Deterministic output order regardless of hash-map iteration: sort by key
  // columns. Aggregation output order is not semantically meaningful, but
  // determinism keeps signatures honest when views are compared in tests.
  // Distinct groups always differ on some key column under Value::Compare,
  // so this order is total.
  size_t num_keys = logical_->group_by.size();
  std::stable_sort(output_.begin(), output_.end(),
                   [num_keys](const Row& a, const Row& b) {
                     for (size_t i = 0; i < num_keys; ++i) {
                       int cmp = a[i].Compare(b[i]);
                       if (cmp != 0) return cmp < 0;
                     }
                     return false;
                   });
}

Status HashAggregateOp::Open() {
  obs::Span span("aggregate", "operator");
  CLOUDVIEWS_RETURN_NOT_OK(child_->Open());
  output_.clear();
  index_ = 0;
  GroupBuckets buckets;
  size_t num_groups = 0;

  while (true) {
    Row row;
    bool done = false;
    CLOUDVIEWS_RETURN_NOT_OK(child_->Next(&row, &done));
    if (done) break;
    AddCost(CostWeights::kAggRow);

    Row key;
    key.reserve(logical_->group_by.size());
    for (const ExprPtr& expr : logical_->group_by) {
      auto v = expr->Evaluate(row);
      if (!v.ok()) return v.status();
      key.push_back(std::move(v).value());
    }
    Hasher h;
    for (const Value& v : key) v.HashInto(&h);
    uint64_t hash = h.Finish().lo;

    Group* group =
        FindOrCreateGroup(&buckets, hash, std::move(key), &num_groups);
    CLOUDVIEWS_RETURN_NOT_OK(AccumulateRow(row, group));
  }

  // Scalar aggregation (no GROUP BY) over empty input still produces one
  // row: COUNT = 0, other aggregates NULL (SQL semantics).
  if (num_groups == 0 && logical_->group_by.empty()) {
    buckets[0].push_back({Row{},
                          std::vector<AggState>(logical_->aggregates.size())});
    num_groups = 1;
  }

  // Emit one output row per group: keys then aggregate results.
  output_.reserve(num_groups);
  for (auto& [hash, bucket] : buckets) {
    for (Group& group : bucket) {
      CLOUDVIEWS_RETURN_NOT_OK(EmitGroup(&group, &output_));
    }
  }
  SortOutput();
  return Status::OK();
}

HashAggregateOp::HashAggregateOp(const LogicalOp* logical, PhysicalOpPtr child)
    : PhysicalOp(logical), child_(std::move(child)) {}

Status HashAggregateOp::Next(Row* row, bool* done) {
  if (index_ >= output_.size()) {
    *done = true;
    return Status::OK();
  }
  *row = std::move(output_[index_]);
  index_ += 1;
  *done = false;
  CountRow(*row, 0.0);
  return Status::OK();
}

void HashAggregateOp::Close() {
  child_->Close();
  output_.clear();
}

// --- SpoolOp -------------------------------------------------------------------

Status InjectSpoolWriteFault() {
  return fault::Inject(fault::sites::kSpoolWrite);
}

SpoolOp::SpoolOp(const LogicalOp* logical, PhysicalOpPtr child,
                 CompletionFn on_complete, AbortFn on_abort)
    : PhysicalOp(logical), child_(std::move(child)),
      on_complete_(std::move(on_complete)), on_abort_(std::move(on_abort)) {}

Status SpoolOp::Open() {
  CLOUDVIEWS_RETURN_NOT_OK(child_->Open());
  side_table_ = std::make_shared<Table>("spool", logical_->output_schema);
  return Status::OK();
}

Status SpoolOp::Next(Row* row, bool* done) {
  bool child_done = false;
  CLOUDVIEWS_RETURN_NOT_OK(child_->Next(row, &child_done));
  if (child_done) {
    // Exactly-once latch: the exchange makes concurrent end-of-stream
    // observers race safely — one wins, the rest see completed_ == true.
    if (!completed_.exchange(true)) {
      completion_fires_.fetch_add(1, std::memory_order_acq_rel);
      if (aborted_) {
        // Materialization failed mid-write: never seal. The abort hook
        // withdraws the half-registered view and releases the lock.
        if (on_abort_ != nullptr) on_abort_(*logical_, abort_cause_);
      } else {
        sealed_rows_ = side_table_->num_rows();
        if (on_complete_ != nullptr) {
          // The stream is exhausted: the common subexpression is fully
          // materialized. In production the job manager seals the view here —
          // before the rest of the job finishes ("early sealing").
          on_complete_(*logical_, side_table_, child_->stats());
        }
      }
    }
    *done = true;
    return Status::OK();
  }
  double cost = 0.0;
  if (!aborted_) {
    Status fault = InjectSpoolWriteFault();
    if (!fault.ok()) {
      // Abort cleanly: drop the partial output and keep streaming. The
      // consumer above never notices — reuse degrades, results don't.
      aborted_ = true;
      abort_cause_ = fault;
      side_table_.reset();
      static obs::Counter& aborts =
          obs::MetricsRegistry::Global().counter(
              obs::metric_names::kExecSpoolAborts);
      aborts.Increment();
      obs::LogWarn("exec", "spool_aborted",
                   {{"signature", logical_->view_signature.ToHex()},
                    {"cause", fault.ToString()}});
    } else {
      size_t row_bytes = 0;
      for (const Value& v : *row) row_bytes += v.ByteSize();
      bytes_spooled_ += row_bytes;
      cost = CostWeights::kSpoolRow +
             CostWeights::kSpoolByte * static_cast<double>(row_bytes);
      spool_cpu_cost_ += cost;
      Status append = side_table_->Append(*row);
      if (!append.ok()) return append;
    }
  }
  *done = false;
  CountRow(*row, cost);
  return Status::OK();
}

void SpoolOp::Close() { child_->Close(); }

// --- HashJoinOp ----------------------------------------------------------------

HashJoinOp::HashJoinOp(const LogicalOp* logical, PhysicalOpPtr left,
                       PhysicalOpPtr right)
    : PhysicalOp(logical), left_(std::move(left)), right_(std::move(right)) {
  for (const auto& [l, r] : logical->equi_keys) {
    left_keys_.push_back(l);
    right_keys_.push_back(r);
  }
}

Status HashJoinOp::BuildRight() {
  build_.clear();
  while (true) {
    Row row;
    bool done = false;
    CLOUDVIEWS_RETURN_NOT_OK(right_->Next(&row, &done));
    if (done) break;
    AddCost(CostWeights::kHashBuildRow);
    right_arity_ = row.size();
    uint64_t hash = HashRowKey(row, right_keys_);
    build_.emplace(hash, std::move(row));
  }
  return Status::OK();
}

Status HashJoinOp::Open() {
  obs::Span span("hash-join", "operator");
  CLOUDVIEWS_RETURN_NOT_OK(left_->Open());
  CLOUDVIEWS_RETURN_NOT_OK(right_->Open());
  if (right_arity_ == 0) {
    right_arity_ = logical_->children[1]->output_schema.num_columns();
  }
  obs::Span build_span("join-build", "operator");
  return BuildRight();
}

Status HashJoinOp::Next(Row* row, bool* done) {
  while (true) {
    if (!have_left_) {
      bool left_done = false;
      CLOUDVIEWS_RETURN_NOT_OK(left_->Next(&current_left_, &left_done));
      if (left_done) {
        *done = true;
        return Status::OK();
      }
      AddCost(CostWeights::kHashProbeRow);
      have_left_ = true;
      left_matched_ = false;
      uint64_t hash = HashRowKey(current_left_, left_keys_);
      probe_range_ = build_.equal_range(hash);
    }
    while (probe_range_.first != probe_range_.second) {
      const Row& right_row = probe_range_.first->second;
      ++probe_range_.first;
      // Verify key equality (hash collisions) then residual predicate.
      bool keys_equal = true;
      for (size_t i = 0; i < left_keys_.size(); ++i) {
        const Value& l = current_left_[static_cast<size_t>(left_keys_[i])];
        const Value& r = right_row[static_cast<size_t>(right_keys_[i])];
        if (l.is_null() || r.is_null() || l.Compare(r) != 0) {
          keys_equal = false;
          break;
        }
      }
      if (!keys_equal) continue;
      Row combined = current_left_;
      combined.insert(combined.end(), right_row.begin(), right_row.end());
      auto pass = EvalJoinResidual(*logical_, combined);
      if (!pass.ok()) return pass.status();
      if (!*pass) continue;
      left_matched_ = true;
      *row = std::move(combined);
      *done = false;
      CountRow(*row, 0.0);
      return Status::OK();
    }
    // Probe exhausted for this left row.
    if (logical_->join_kind == sql::JoinKind::kLeft && !left_matched_) {
      Row combined = current_left_;
      combined.resize(combined.size() + right_arity_);  // nulls
      have_left_ = false;
      *row = std::move(combined);
      *done = false;
      CountRow(*row, 0.0);
      return Status::OK();
    }
    have_left_ = false;
  }
}

void HashJoinOp::Close() {
  left_->Close();
  right_->Close();
  build_.clear();
}

// --- MergeJoinOp ------------------------------------------------------------------

MergeJoinOp::MergeJoinOp(const LogicalOp* logical, PhysicalOpPtr left,
                         PhysicalOpPtr right)
    : PhysicalOp(logical), left_(std::move(left)), right_(std::move(right)) {}

Status MergeJoinOp::Open() {
  CLOUDVIEWS_RETURN_NOT_OK(left_->Open());
  CLOUDVIEWS_RETURN_NOT_OK(right_->Open());
  left_rows_.clear();
  right_rows_.clear();
  output_.clear();
  index_ = 0;

  CLOUDVIEWS_RETURN_NOT_OK(DrainChild(left_.get(), &left_rows_));
  CLOUDVIEWS_RETURN_NOT_OK(DrainChild(right_.get(), &right_rows_));

  std::vector<int> lk, rk;
  for (const auto& [l, r] : logical_->equi_keys) {
    lk.push_back(l);
    rk.push_back(r);
  }
  auto key_less = [](const Row& a, const Row& b, const std::vector<int>& keys,
                     const std::vector<int>& keys_b) {
    for (size_t i = 0; i < keys.size(); ++i) {
      int cmp = a[static_cast<size_t>(keys[i])].Compare(
          b[static_cast<size_t>(keys_b[i])]);
      if (cmp != 0) return cmp < 0;
    }
    return false;
  };
  std::stable_sort(left_rows_.begin(), left_rows_.end(),
                   [&](const Row& a, const Row& b) {
                     return key_less(a, b, lk, lk);
                   });
  std::stable_sort(right_rows_.begin(), right_rows_.end(),
                   [&](const Row& a, const Row& b) {
                     return key_less(a, b, rk, rk);
                   });
  double ln = static_cast<double>(left_rows_.size());
  double rn = static_cast<double>(right_rows_.size());
  AddCost(CostWeights::kSortRowLog *
          (ln * (ln > 1 ? std::log2(ln) : 1.0) +
           rn * (rn > 1 ? std::log2(rn) : 1.0)));

  auto compare_lr = [&](const Row& l, const Row& r) {
    for (size_t i = 0; i < lk.size(); ++i) {
      const Value& lv = l[static_cast<size_t>(lk[i])];
      const Value& rv = r[static_cast<size_t>(rk[i])];
      int cmp = lv.Compare(rv);
      if (cmp != 0) return cmp;
    }
    return 0;
  };
  auto keys_non_null = [](const Row& row, const std::vector<int>& keys) {
    for (int k : keys) {
      if (row[static_cast<size_t>(k)].is_null()) return false;
    }
    return true;
  };

  size_t li = 0, ri = 0;
  size_t right_arity = logical_->children[1]->output_schema.num_columns();
  while (li < left_rows_.size()) {
    AddCost(CostWeights::kMergeRow);
    if (!keys_non_null(left_rows_[li], lk)) {
      if (logical_->join_kind == sql::JoinKind::kLeft) {
        Row combined = left_rows_[li];
        combined.resize(combined.size() + right_arity);
        output_.push_back(std::move(combined));
      }
      li += 1;
      continue;
    }
    // Advance right until >= left.
    while (ri < right_rows_.size() &&
           (!keys_non_null(right_rows_[ri], rk) ||
            compare_lr(left_rows_[li], right_rows_[ri]) > 0)) {
      ri += 1;
      AddCost(CostWeights::kMergeRow);
    }
    // Find the right group equal to left key.
    size_t group_end = ri;
    bool matched = false;
    while (group_end < right_rows_.size() &&
           compare_lr(left_rows_[li], right_rows_[group_end]) == 0) {
      Row combined = left_rows_[li];
      combined.insert(combined.end(), right_rows_[group_end].begin(),
                      right_rows_[group_end].end());
      auto pass = EvalJoinResidual(*logical_, combined);
      if (!pass.ok()) return pass.status();
      if (*pass) {
        matched = true;
        output_.push_back(std::move(combined));
      }
      group_end += 1;
      AddCost(CostWeights::kMergeRow);
    }
    if (!matched && logical_->join_kind == sql::JoinKind::kLeft) {
      Row combined = left_rows_[li];
      combined.resize(combined.size() + right_arity);
      output_.push_back(std::move(combined));
    }
    li += 1;
    // NOTE: ri stays at the group start — the next left row may share the key.
  }
  return Status::OK();
}

Status MergeJoinOp::Next(Row* row, bool* done) {
  if (index_ >= output_.size()) {
    *done = true;
    return Status::OK();
  }
  *row = std::move(output_[index_]);
  index_ += 1;
  *done = false;
  CountRow(*row, 0.0);
  return Status::OK();
}

void MergeJoinOp::Close() {
  left_->Close();
  right_->Close();
  left_rows_.clear();
  right_rows_.clear();
  output_.clear();
}

// --- LoopJoinOp ------------------------------------------------------------------

LoopJoinOp::LoopJoinOp(const LogicalOp* logical, PhysicalOpPtr left,
                       PhysicalOpPtr right)
    : PhysicalOp(logical), left_(std::move(left)), right_(std::move(right)) {}

Status LoopJoinOp::Open() {
  CLOUDVIEWS_RETURN_NOT_OK(left_->Open());
  CLOUDVIEWS_RETURN_NOT_OK(right_->Open());
  right_rows_.clear();
  CLOUDVIEWS_RETURN_NOT_OK(DrainChild(right_.get(), &right_rows_));
  return Status::OK();
}

Status LoopJoinOp::Next(Row* row, bool* done) {
  size_t right_arity = logical_->children[1]->output_schema.num_columns();
  while (true) {
    if (!have_left_) {
      bool left_done = false;
      CLOUDVIEWS_RETURN_NOT_OK(left_->Next(&current_left_, &left_done));
      if (left_done) {
        *done = true;
        return Status::OK();
      }
      have_left_ = true;
      left_matched_ = false;
      right_index_ = 0;
    }
    while (right_index_ < right_rows_.size()) {
      const Row& right_row = right_rows_[right_index_];
      right_index_ += 1;
      AddCost(CostWeights::kLoopJoinPair);
      // Equi keys (if any) then residual predicate.
      bool keys_equal = true;
      for (const auto& [l, r] : logical_->equi_keys) {
        const Value& lv = current_left_[static_cast<size_t>(l)];
        const Value& rv = right_row[static_cast<size_t>(r)];
        if (lv.is_null() || rv.is_null() || lv.Compare(rv) != 0) {
          keys_equal = false;
          break;
        }
      }
      if (!keys_equal) continue;
      Row combined = current_left_;
      combined.insert(combined.end(), right_row.begin(), right_row.end());
      auto pass = EvalJoinResidual(*logical_, combined);
      if (!pass.ok()) return pass.status();
      if (!*pass) continue;
      left_matched_ = true;
      *row = std::move(combined);
      *done = false;
      CountRow(*row, 0.0);
      return Status::OK();
    }
    if (logical_->join_kind == sql::JoinKind::kLeft && !left_matched_) {
      Row combined = current_left_;
      combined.resize(combined.size() + right_arity);
      have_left_ = false;
      *row = std::move(combined);
      *done = false;
      CountRow(*row, 0.0);
      return Status::OK();
    }
    have_left_ = false;
  }
}

void LoopJoinOp::Close() {
  left_->Close();
  right_->Close();
  right_rows_.clear();
}

// --- UnionAllOp ------------------------------------------------------------------

UnionAllOp::UnionAllOp(const LogicalOp* logical,
                       std::vector<PhysicalOpPtr> children)
    : PhysicalOp(logical), children_(std::move(children)) {}

Status UnionAllOp::Open() {
  for (PhysicalOpPtr& child : children_) {
    CLOUDVIEWS_RETURN_NOT_OK(child->Open());
  }
  current_ = 0;
  return Status::OK();
}

Status UnionAllOp::Next(Row* row, bool* done) {
  while (current_ < children_.size()) {
    bool child_done = false;
    CLOUDVIEWS_RETURN_NOT_OK(children_[current_]->Next(row, &child_done));
    if (!child_done) {
      *done = false;
      CountRow(*row, 0.0);
      return Status::OK();
    }
    current_ += 1;
  }
  *done = true;
  return Status::OK();
}

void UnionAllOp::Close() {
  for (PhysicalOpPtr& child : children_) child->Close();
}

}  // namespace cloudviews
