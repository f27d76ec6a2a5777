// Columnar batch-at-a-time execution. Every operator here replicates its row
// counterpart in physical_op.cc — values, types, null-ness, row order, and
// integer stats counters are identical at any batch size;
// floating-point cost totals agree to accumulation-order rounding. See
// DESIGN.md ("Columnar execution") for the sanctioned divergences (which
// error surfaces first when several rows of a batch would each error).

#include "exec/batch_op.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <string>
#include <utility>

#include "common/hash.h"
#include "exec/batch_kernels.h"
#include "exec/shared_scan_op.h"
#include "fault/fault.h"
#include "fault/fault_sites.h"
#include "obs/log.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace cloudviews {

namespace {

// Output-row index meaning "pad with null" (left-outer joins); also the
// aggregate's "no group yet" sentinel.
constexpr uint32_t kPadIndex = ColumnVector::kPadIndex;

EvalInput InputOf(const ColumnBatch& batch) {
  EvalInput in;
  in.columns = &batch.columns;
  in.num_rows = batch.num_rows;
  return in;
}

// The batch analogue of PhysicalOp::CountRow over a whole batch.
void CountBatch(OperatorStats* stats, const ColumnBatch& batch, double cpu) {
  stats->rows_out += batch.num_rows;
  stats->bytes_out += BatchByteSize(batch);
  stats->cpu_cost += cpu;
}

// Rows [begin, end) of `col`; the whole column is shared, not copied.
ColumnPtr SliceOrShare(const ColumnPtr& col, size_t begin, size_t end) {
  if (begin == 0 && end == col->size()) return col;
  return SliceColumn(*col, begin, end);
}

// Rows [begin, end) of `batch`; whole-batch slices share the column buffers
// zero-copy.
ColumnBatch SliceBatch(const ColumnBatch& batch, size_t begin, size_t end) {
  ColumnBatch out;
  out.columns.reserve(batch.columns.size());
  for (const ColumnPtr& col : batch.columns) {
    out.columns.push_back(col == nullptr ? nullptr
                                         : SliceOrShare(col, begin, end));
  }
  if (!batch.unread_bytes.empty()) {
    out.unread_bytes.assign(batch.unread_bytes.begin() + begin,
                            batch.unread_bytes.begin() + end);
  }
  out.uniform_unread_bytes = batch.uniform_unread_bytes;
  out.num_rows = end - begin;
  return out;
}

// Whether `mask` asks for ordinal `c` (ordinals past its end are kept).
bool Keeps(const ColumnMask& mask, size_t c) {
  return c >= mask.size() || mask[c];
}

// The ordinals of child `child` that `node` reads when its consumer reads
// `required`. A Filter or Sort adds its expressions' columns to `required`
// and a join adds its keys and residual to each side's share of it; a
// Project reads its projections' columns and an Aggregate its keys and
// arguments, whatever is required of them (both emit full width). A UDO,
// whose keep/drop hash reads every cell, and a spool read everything.
ColumnMask ChildReads(const LogicalOp& node, const ColumnMask& required,
                      size_t child) {
  const size_t arity = node.children[child]->output_schema.num_columns();
  // A join's right side starts after the left side's ordinals.
  const size_t offset =
      node.kind == LogicalOpKind::kJoin && child == 1
          ? node.children[0]->output_schema.num_columns()
          : 0;
  ColumnMask reads(arity, false);
  auto mark = [&](int ordinal) {
    const size_t c = static_cast<size_t>(ordinal) - offset;
    if (ordinal >= static_cast<int>(offset) && c < arity) reads[c] = true;
  };
  auto mark_expr = [&](const Expr& expr) {
    std::vector<int> refs;
    expr.CollectColumns(&refs);
    for (int ref : refs) mark(ref);
  };
  auto pass_required = [&] {
    for (size_t c = 0; c < arity; ++c) reads[c] = Keeps(required, offset + c);
  };
  switch (node.kind) {
    case LogicalOpKind::kFilter:
      pass_required();
      mark_expr(*node.predicate);
      break;
    case LogicalOpKind::kSort:
      pass_required();
      for (const SortKey& key : node.sort_keys) mark_expr(*key.expr);
      break;
    case LogicalOpKind::kLimit:
    case LogicalOpKind::kUnionAll:
      pass_required();
      break;
    case LogicalOpKind::kProject:
      for (const ExprPtr& expr : node.projections) mark_expr(*expr);
      break;
    case LogicalOpKind::kAggregate:
      for (const ExprPtr& expr : node.group_by) mark_expr(*expr);
      for (const AggregateSpec& spec : node.aggregates) {
        if (spec.func != AggFunc::kCountStar) mark_expr(*spec.arg);
      }
      break;
    case LogicalOpKind::kJoin:
      pass_required();
      for (const auto& [l, r] : node.equi_keys) {
        mark(child == 0 ? l : r + static_cast<int>(offset));
      }
      if (node.predicate != nullptr) mark_expr(*node.predicate);
      break;
    default:
      reads.assign(arity, true);
      break;
  }
  return reads;
}

// Gathers `rows` of one input into out slots [offset, offset + arity).
// `rows` may hold kPadIndex (a null pad) only when `pads` is set: only a
// left join's right side pads. The input's columns are null where pruned
// below, those columns' bytes travelling in its unread bytes. Slots `keep`
// marks get a gathered column; every other slot adds its bytes to out's
// unread bytes, read off the source cells without copying them: once for
// the batch when its cells share one byte size (a pad's 1 byte included),
// else per row (1 per pad). An empty build side drains to no columns: its
// rows are all pads.
void GatherInto(const ColumnBatch& in, size_t arity,
                const std::vector<uint32_t>& rows, bool pads,
                const ColumnMask& keep, size_t offset, ColumnBatch* out) {
  const ColumnVector none;
  auto unread_out = [&] {
    if (out->unread_bytes.empty()) out->unread_bytes.assign(rows.size(), 0);
    return out->unread_bytes.data();
  };
  uint32_t pruned = 0;  // unkept slots absent here: 1 byte per pad each
  for (size_t c = 0; c < arity; ++c) {
    const ColumnVector* src =
        c < in.columns.size() ? in.columns[c].get() : nullptr;
    if (Keeps(keep, offset + c)) {
      out->columns[offset + c] =
          GatherColumn(src != nullptr ? *src : none, rows, pads);
      continue;
    }
    if (src == nullptr) {
      pruned += 1;
      continue;
    }
    const size_t uniform = src->UniformCellByteSize();
    if (uniform == 1 || (uniform != 0 && !pads)) {
      out->uniform_unread_bytes += uniform;
    } else {
      src->AddCellByteSizes(rows, unread_out());
    }
  }
  const std::vector<uint32_t>& unread = in.unread_bytes;
  if (!pads) {
    // No row is a pad: the input's uniform bytes carry over whole.
    out->uniform_unread_bytes += in.uniform_unread_bytes;
    if (unread.empty()) return;
    uint32_t* bytes = unread_out();
    for (size_t k = 0; k < rows.size(); ++k) bytes[k] += unread[rows[k]];
    return;
  }
  const auto uniform = static_cast<uint32_t>(in.uniform_unread_bytes);
  if (pruned == 0 && uniform == 0 && unread.empty()) return;
  uint32_t* bytes = unread_out();
  for (size_t k = 0; k < rows.size(); ++k) {
    if (rows[k] == kPadIndex) {
      bytes[k] += pruned;
    } else {
      bytes[k] += uniform + (unread.empty() ? 0 : unread[rows[k]]);
    }
  }
}

// The `keep` slots of `in` at `rows`; the other slots' bytes go to the
// unread bytes.
ColumnBatch GatherRows(const ColumnBatch& in, const std::vector<uint32_t>& rows,
                       const ColumnMask& keep) {
  ColumnBatch out;
  out.columns.assign(in.columns.size(), nullptr);
  out.num_rows = rows.size();
  GatherInto(in, in.columns.size(), rows, /*pads=*/false, keep, 0, &out);
  return out;
}

// Join output: `left` at `out_left`, then `right` at `out_right`, where
// `right_pads` (a left join) lets kPadIndex pad with nulls, gathering only
// the `keep` slots.
ColumnBatch GatherJoinOutput(const ColumnBatch& left, size_t left_arity,
                             const std::vector<uint32_t>& out_left,
                             const ColumnBatch& right, size_t right_arity,
                             const std::vector<uint32_t>& out_right,
                             bool right_pads, const ColumnMask& keep) {
  ColumnBatch out;
  out.columns.assign(left_arity + right_arity, nullptr);
  out.num_rows = out_left.size();
  GatherInto(left, left_arity, out_left, /*pads=*/false, keep, 0, &out);
  GatherInto(right, right_arity, out_right, right_pads, keep, left_arity,
             &out);
  return out;
}

// The columns of `batch` at `ordinals`.
std::vector<ColumnPtr> ColumnsAt(const ColumnBatch& batch,
                                 const std::vector<int>& ordinals) {
  std::vector<ColumnPtr> out;
  out.reserve(ordinals.size());
  for (int k : ordinals) out.push_back(batch.columns[static_cast<size_t>(k)]);
  return out;
}

// The 64-bit key hash of each of the first `num_rows` rows of the key
// columns `keys` (ColumnVector::MixKeyHashes, column by column).
std::vector<uint64_t> KeyHashes(const std::vector<ColumnPtr>& keys,
                                size_t num_rows) {
  std::vector<uint64_t> hashes(num_rows, 0);
  for (const ColumnPtr& col : keys) col->MixKeyHashes(num_rows, hashes.data());
  return hashes;
}

// One typed equality per key pair: left[k] against right[k].
std::vector<KeyEquality> KeyEqualities(const std::vector<ColumnPtr>& left,
                                       const std::vector<ColumnPtr>& right) {
  std::vector<KeyEquality> out;
  out.reserve(left.size());
  for (size_t k = 0; k < left.size(); ++k) {
    out.emplace_back(*left[k], *right[k]);
  }
  return out;
}

// Whether every key pair's cells are equal at (i, j).
bool KeysEqual(const std::vector<KeyEquality>& equal, size_t i, size_t j) {
  for (const KeyEquality& eq : equal) {
    if (!eq(i, j)) return false;
  }
  return true;
}

// Whether row `i` of the key columns holds a null: SQL null never matches.
bool AnyNull(const std::vector<ColumnPtr>& keys, size_t i) {
  for (const ColumnPtr& col : keys) {
    if (col->IsNull(i)) return true;
  }
  return false;
}

// UdoOp's keep/drop draw over every row of full-width `batch`: a Hasher
// seeded with `seed` takes the row's cells, a column at a time (the bytes
// per-cell HashCellInto calls in column order would feed it) and, when
// `mix_counter`, the row's arrival number (counter + 1 for the first row);
// the row survives when the draw falls under `selectivity`.
Status UdoSelection(const ColumnBatch& batch, uint64_t seed, bool mix_counter,
                    uint64_t counter, double selectivity,
                    std::vector<uint32_t>* sel) {
  for (size_t c = 0; c < batch.columns.size(); ++c) {
    if (batch.columns[c] == nullptr) {
      return Status::Internal("UDO input column " + std::to_string(c) +
                              " not gathered");
    }
  }
  std::vector<Hasher> rows(batch.num_rows, Hasher(seed));
  for (const ColumnPtr& col : batch.columns) {
    col->HashCellsInto(0, batch.num_rows, rows.data());
  }
  for (size_t i = 0; i < batch.num_rows; ++i) {
    if (mix_counter) rows[i].Update(counter + i + 1);
    const double u = static_cast<double>(rows[i].Finish().lo >> 11) *
                     (1.0 / 9007199254740992.0);
    if (u < selectivity) sel->push_back(static_cast<uint32_t>(i));
  }
  return Status::OK();
}

// FilterOp's keep test over an evaluated predicate column.
bool KeepCell(const ColumnVector& v, size_t i) {
  return !v.IsNull(i) && v.CellType(i) == DataType::kBool && v.CellBool(i);
}

// A join residual over the candidate pairs (left_rows[c], right_rows[c]):
// only the columns the predicate reads are gathered, and (*pass)[c] is
// FilterOp's keep test of pair c.
Status EvalResidual(const Expr& predicate, const std::vector<ColumnPtr>& left,
                    const std::vector<uint32_t>& left_rows,
                    const std::vector<ColumnPtr>& right,
                    const std::vector<uint32_t>& right_rows,
                    std::vector<uint8_t>* pass) {
  std::vector<ColumnPtr> sparse;
  GatherReferenced(predicate, left, left_rows, right, right_rows, &sparse);
  ColumnPtr v;
  CLOUDVIEWS_RETURN_NOT_OK(
      EvalExprBatch(predicate, EvalInput{&sparse, left_rows.size()}, &v));
  for (size_t c = 0; c < pass->size(); ++c) {
    (*pass)[c] = KeepCell(*v, c) ? 1 : 0;
  }
  return Status::OK();
}

}  // namespace

Status BatchOp::Next(Row* row, bool* done) {
  (void)row;
  (void)done;
  return Status::Internal(
      "batch operator driven through row-at-a-time Next()");
}

Status BatchOp::DrainToChunk(BatchChunk* chunk) {
  std::vector<ColumnBatch> batches;
  while (true) {
    ColumnBatch batch;
    bool done = false;
    CLOUDVIEWS_RETURN_NOT_OK(NextBatch(&batch, &done));
    if (done) break;
    if (batch.num_rows > 0) batches.push_back(std::move(batch));
  }
  chunk->Clear();
  if (batches.empty()) return Status::OK();
  if (batches.size() == 1) {
    *chunk = std::move(batches[0]);
    return Status::OK();
  }
  const size_t arity = batches[0].columns.size();
  for (const ColumnBatch& b : batches) chunk->num_rows += b.num_rows;
  chunk->columns.assign(arity, nullptr);
  bool any_unread = false;
  for (size_t c = 0; c < arity; ++c) {
    const bool present =
        std::all_of(batches.begin(), batches.end(), [&](const ColumnBatch& b) {
          return b.columns[c] != nullptr;
        });
    if (present) {
      chunk->columns[c] = ConcatColumn(batches, c);
    } else {
      any_unread = true;
    }
  }
  if (!any_unread) return Status::OK();
  // Batches may differ in which unread columns they carry (a UNION ALL's
  // children): a column some batch lacks counts as unread throughout. Each
  // batch's uniform bytes add those of such columns whose cells share one
  // byte size; the chunk keeps one uniform count only when every batch has
  // the same, and otherwise folds each batch's into its rows.
  std::vector<size_t> uniform(batches.size());
  bool per_row = false;
  for (size_t b = 0; b < batches.size(); ++b) {
    uniform[b] = batches[b].uniform_unread_bytes;
    per_row = per_row || !batches[b].unread_bytes.empty();
    for (size_t c = 0; c < arity; ++c) {
      const ColumnPtr& col = batches[b].columns[c];
      if (chunk->columns[c] != nullptr || col == nullptr) continue;
      const size_t size = col->UniformCellByteSize();
      uniform[b] += size;
      per_row = per_row || size == 0;
    }
  }
  const bool one_uniform = std::all_of(
      uniform.begin(), uniform.end(), [&](size_t u) { return u == uniform[0]; });
  if (one_uniform) chunk->uniform_unread_bytes = uniform[0];
  if (one_uniform && !per_row) return Status::OK();
  chunk->unread_bytes.reserve(chunk->num_rows);
  for (size_t b = 0; b < batches.size(); ++b) {
    const ColumnBatch& batch = batches[b];
    const size_t base = chunk->unread_bytes.size();
    const auto folded = static_cast<uint32_t>(one_uniform ? 0 : uniform[b]);
    if (batch.unread_bytes.empty()) {
      chunk->unread_bytes.resize(base + batch.num_rows, folded);
    } else {
      for (uint32_t bytes : batch.unread_bytes) {
        chunk->unread_bytes.push_back(bytes + folded);
      }
    }
    for (size_t c = 0; c < arity; ++c) {
      const ColumnPtr& col = batch.columns[c];
      if (chunk->columns[c] == nullptr && col != nullptr &&
          col->UniformCellByteSize() == 0) {
        col->AddCellByteSizes(0, batch.num_rows,
                              chunk->unread_bytes.data() + base);
      }
    }
  }
  return Status::OK();
}

Result<TablePtr> BindScanTable(const ExecContext& context,
                               const LogicalOp& node, bool* is_view_scan) {
  if (node.kind == LogicalOpKind::kScan) {
    *is_view_scan = false;
    if (context.catalog == nullptr) {
      return Status::Internal("executor has no dataset catalog");
    }
    auto dataset = context.catalog->Lookup(node.dataset_name);
    if (!dataset.ok()) return dataset.status();
    if (!node.dataset_guid.empty() && dataset->guid != node.dataset_guid) {
      return Status::Aborted("dataset " + node.dataset_name +
                             " changed version since compilation (bound " +
                             node.dataset_guid + ", current " + dataset->guid +
                             ")");
    }
    return dataset->table;
  }
  *is_view_scan = true;
  if (context.view_store == nullptr) {
    return Status::Internal("plan reads a view but no view store set");
  }
  TablePtr table =
      context.view_store->ReadTable(node.view_signature, context.now);
  if (table == nullptr) {
    return Status::Aborted("materialized view vanished: " +
                           node.view_signature.ToHex());
  }
  return table;
}

// --- BatchScanPipelineOp -----------------------------------------------------

BatchScanPipelineOp::BatchScanPipelineOp(const LogicalOp* logical,
                                         std::vector<const LogicalOp*> chain,
                                         TablePtr table, bool is_view_scan,
                                         size_t batch_rows, ColumnMask required)
    : BatchOp(logical), table_(std::move(table)), is_view_scan_(is_view_scan),
      batch_rows_(batch_rows > 0 ? batch_rows : 1) {
  stages_.reserve(chain.size());
  for (const LogicalOp* op : chain) {
    Stage stage;
    stage.op = op;
    if (op->kind == LogicalOpKind::kUdo) {
      // Only deterministic UDOs are fused; they key purely on the UDO name
      // (same seeding as UdoOp).
      stage.udo_seed = HashString(op->udo_name).lo;
    }
    stages_.push_back(std::move(stage));
  }
  stages_.back().keep = std::move(required);
  for (size_t s = stages_.size() - 1; s > 0; --s) {
    stages_[s - 1].keep = ChildReads(*stages_[s].op, stages_[s].keep, 0);
  }
}

Status BatchScanPipelineOp::ScannedColumns(
    std::vector<ColumnPtr>* out) const {
  const LogicalOp* scan = stages_[0].op;
  out->clear();
  if (scan->kind == LogicalOpKind::kScan && !scan->scan_columns.empty()) {
    // Pruned scan: emit only the selected columns.
    out->reserve(scan->scan_columns.size());
    for (int col : scan->scan_columns) {
      if (col < 0 || static_cast<size_t>(col) >= table_->num_columns()) {
        return Status::Internal("scan column " + std::to_string(col) +
                                " out of range for dataset " +
                                scan->dataset_name);
      }
      out->push_back(table_->column(static_cast<size_t>(col)));
    }
    return Status::OK();
  }
  out->reserve(table_->num_columns());
  for (size_t c = 0; c < table_->num_columns(); ++c) {
    out->push_back(table_->column(c));
  }
  return Status::OK();
}

void BatchScanPipelineOp::CountScan(const std::vector<ColumnPtr>& scanned,
                                    size_t begin, size_t end,
                                    OperatorStats* st) const {
  const double byte_weight =
      is_view_scan_ ? CostWeights::kViewScanByte : CostWeights::kScanByte;
  size_t bytes = 0;
  for (const ColumnPtr& col : scanned) bytes += col->ByteSize(begin, end);
  st->rows_out += end - begin;
  st->bytes_out += bytes;
  st->cpu_cost += CostWeights::kScanRow * static_cast<double>(end - begin) +
                  byte_weight * static_cast<double>(bytes);
}

Status BatchScanPipelineOp::RunRange(size_t begin, size_t end,
                                     ColumnBatch* out) {
  ColumnBatch source;  // the scanned columns, every table row
  CLOUDVIEWS_RETURN_NOT_OK(ScannedColumns(&source.columns));
  const std::vector<ColumnPtr>& scanned = source.columns;
  CountScan(scanned, begin, end, &stages_[0].stats);

  ColumnBatch cur;
  cur.columns.assign(scanned.size(), nullptr);
  size_t first = 1;
  if (stages_.size() > 1 && stages_[1].op->kind == LogicalOpKind::kFilter) {
    // A first filter reads only its predicate's columns: slice just those,
    // then gather the surviving rows of the columns read above it straight
    // from the table.
    const Expr& predicate = *stages_[1].op->predicate;
    OperatorStats& st = stages_[1].stats;
    st.cpu_cost += CostWeights::kFilterRow * static_cast<double>(end - begin);
    std::vector<int> refs;
    predicate.CollectColumns(&refs);
    std::vector<ColumnPtr> sparse(scanned.size());
    for (int r : refs) {
      if (r >= 0 && static_cast<size_t>(r) < scanned.size()) {
        sparse[static_cast<size_t>(r)] =
            SliceOrShare(scanned[static_cast<size_t>(r)], begin, end);
      }
    }
    std::vector<uint32_t> sel;
    CLOUDVIEWS_RETURN_NOT_OK(
        FilterSelection(predicate, EvalInput{&sparse, end - begin}, &sel));
    for (uint32_t& row : sel) row += static_cast<uint32_t>(begin);
    cur.num_rows = sel.size();
    GatherInto(source, scanned.size(), sel, /*pads=*/false, stages_[1].keep,
               0, &cur);
    st.rows_out += cur.num_rows;
    st.bytes_out += BatchByteSize(cur);
    first = 2;
  } else {
    // A whole-table range shares every column; a smaller one slices the
    // columns the stage above reads and counts the others' bytes, once for
    // a column whose cells share one byte size.
    const bool whole = begin == 0 && end == table_->num_rows();
    cur.num_rows = end - begin;
    for (size_t c = 0; c < scanned.size(); ++c) {
      if (whole || Keeps(stages_[0].keep, c)) {
        cur.columns[c] = SliceOrShare(scanned[c], begin, end);
        continue;
      }
      const size_t uniform = scanned[c]->UniformCellByteSize();
      if (uniform != 0) {
        cur.uniform_unread_bytes += uniform;
        continue;
      }
      if (cur.unread_bytes.empty()) cur.unread_bytes.assign(cur.num_rows, 0);
      scanned[c]->AddCellByteSizes(begin, cur.num_rows,
                                   cur.unread_bytes.data());
    }
  }

  for (size_t s = first; s < stages_.size(); ++s) {
    if (cur.num_rows == 0) break;
    Stage& stage = stages_[s];
    const LogicalOp* op = stage.op;
    OperatorStats& st = stage.stats;
    std::vector<uint32_t> sel;
    switch (op->kind) {
      case LogicalOpKind::kFilter:
        st.cpu_cost +=
            CostWeights::kFilterRow * static_cast<double>(cur.num_rows);
        CLOUDVIEWS_RETURN_NOT_OK(
            FilterSelection(*op->predicate, InputOf(cur), &sel));
        cur = GatherRows(cur, sel, stage.keep);
        break;
      case LogicalOpKind::kProject: {
        ColumnBatch next;
        next.columns.reserve(op->projections.size());
        for (const ExprPtr& expr : op->projections) {
          ColumnPtr col;
          CLOUDVIEWS_RETURN_NOT_OK(EvalExprBatch(*expr, InputOf(cur), &col));
          next.columns.push_back(std::move(col));
        }
        next.num_rows = cur.num_rows;
        st.cpu_cost +=
            CostWeights::kProjectRow * static_cast<double>(next.num_rows);
        cur = std::move(next);
        break;
      }
      case LogicalOpKind::kUdo:
        st.cpu_cost +=
            op->udo_cost_per_row * static_cast<double>(cur.num_rows);
        // Deterministic UDOs never mix in an arrival counter.
        CLOUDVIEWS_RETURN_NOT_OK(UdoSelection(cur, stage.udo_seed,
                                              /*mix_counter=*/false, 0,
                                              op->udo_selectivity, &sel));
        cur = GatherRows(cur, sel, stage.keep);
        break;
      default:
        return Status::Internal("unsupported scan pipeline stage");
    }
    st.rows_out += cur.num_rows;
    st.bytes_out += BatchByteSize(cur);
  }
  *out = std::move(cur);
  return Status::OK();
}

Status BatchScanPipelineOp::Open() {
  pos_ = 0;
  if (table_ == nullptr) {
    const LogicalOp* scan = stages_[0].op;
    return Status::NotFound("scan target not available: " +
                            (scan->kind == LogicalOpKind::kScan
                                 ? scan->dataset_name
                                 : scan->view_path));
  }
  return Status::OK();
}

Status BatchScanPipelineOp::NextBatch(ColumnBatch* batch, bool* done) {
  const size_t n = table_->num_rows();
  while (pos_ < n) {
    const size_t begin = pos_;
    const size_t end = std::min(begin + batch_rows_, n);
    pos_ = end;
    ColumnBatch out;
    CLOUDVIEWS_RETURN_NOT_OK(RunRange(begin, end, &out));
    stats_ = stages_.back().stats;
    if (out.num_rows == 0) continue;
    *batch = std::move(out);
    *done = false;
    return Status::OK();
  }
  *done = true;
  return Status::OK();
}

Status BatchScanPipelineOp::DrainToChunk(BatchChunk* chunk) {
  // Fused stages drain batch by batch; only a bare scan hands out the table
  // itself, every column of it (sharing costs nothing).
  if (stages_.size() > 1) return BatchOp::DrainToChunk(chunk);
  chunk->Clear();
  const size_t n = table_->num_rows();
  if (pos_ >= n) return Status::OK();
  std::vector<ColumnPtr> scanned;
  CLOUDVIEWS_RETURN_NOT_OK(ScannedColumns(&scanned));
  // Charge the stats per batch_rows range, exactly as NextBatch() would.
  const size_t first = pos_;
  while (pos_ < n) {
    const size_t end = std::min(pos_ + batch_rows_, n);
    CountScan(scanned, pos_, end, &stages_[0].stats);
    pos_ = end;
  }
  stats_ = stages_[0].stats;
  for (const ColumnPtr& col : scanned) {
    chunk->columns.push_back(SliceOrShare(col, first, n));
  }
  chunk->num_rows = n - first;
  return Status::OK();
}

void BatchScanPipelineOp::Close() { pos_ = 0; }

void BatchScanPipelineOp::ExportStats(
    const std::function<void(const LogicalOp*, const OperatorStats&)>& fn)
    const {
  for (const Stage& stage : stages_) fn(stage.op, stage.stats);
}

// --- BatchFilterOp -----------------------------------------------------------

BatchFilterOp::BatchFilterOp(const LogicalOp* logical, BatchOpPtr child,
                             ColumnMask required)
    : BatchOp(logical), child_(std::move(child)),
      required_(std::move(required)) {}

Status BatchFilterOp::Open() { return child_->Open(); }

Status BatchFilterOp::NextBatch(ColumnBatch* batch, bool* done) {
  while (true) {
    ColumnBatch input;
    bool child_done = false;
    CLOUDVIEWS_RETURN_NOT_OK(child_->NextBatch(&input, &child_done));
    if (child_done) {
      *done = true;
      return Status::OK();
    }
    AddCost(CostWeights::kFilterRow * static_cast<double>(input.num_rows));
    std::vector<uint32_t> sel;
    CLOUDVIEWS_RETURN_NOT_OK(
        FilterSelection(*logical_->predicate, InputOf(input), &sel));
    if (sel.empty()) continue;
    ColumnBatch out = GatherRows(input, sel, required_);
    CountBatch(&stats_, out, 0.0);
    *batch = std::move(out);
    *done = false;
    return Status::OK();
  }
}

void BatchFilterOp::Close() { child_->Close(); }

// --- BatchProjectOp ----------------------------------------------------------

BatchProjectOp::BatchProjectOp(const LogicalOp* logical, BatchOpPtr child)
    : BatchOp(logical), child_(std::move(child)) {}

Status BatchProjectOp::Open() { return child_->Open(); }

Status BatchProjectOp::NextBatch(ColumnBatch* batch, bool* done) {
  while (true) {
    ColumnBatch input;
    bool child_done = false;
    CLOUDVIEWS_RETURN_NOT_OK(child_->NextBatch(&input, &child_done));
    if (child_done) {
      *done = true;
      return Status::OK();
    }
    if (input.num_rows == 0) continue;
    ColumnBatch out;
    out.columns.reserve(logical_->projections.size());
    for (const ExprPtr& expr : logical_->projections) {
      ColumnPtr col;
      CLOUDVIEWS_RETURN_NOT_OK(EvalExprBatch(*expr, InputOf(input), &col));
      out.columns.push_back(std::move(col));
    }
    out.num_rows = input.num_rows;
    CountBatch(&stats_, out,
               CostWeights::kProjectRow * static_cast<double>(out.num_rows));
    *batch = std::move(out);
    *done = false;
    return Status::OK();
  }
}

void BatchProjectOp::Close() { child_->Close(); }

// --- BatchLimitOp ------------------------------------------------------------

BatchLimitOp::BatchLimitOp(const LogicalOp* logical, BatchOpPtr child)
    : BatchOp(logical), child_(std::move(child)) {}

Status BatchLimitOp::Open() { return child_->Open(); }

Status BatchLimitOp::NextBatch(ColumnBatch* batch, bool* done) {
  while (true) {
    if (produced_ >= logical_->limit) {
      *done = true;
      return Status::OK();
    }
    ColumnBatch input;
    bool child_done = false;
    CLOUDVIEWS_RETURN_NOT_OK(child_->NextBatch(&input, &child_done));
    if (child_done) {
      *done = true;
      return Status::OK();
    }
    if (input.num_rows == 0) continue;
    const size_t remaining =
        static_cast<size_t>(logical_->limit - produced_);
    const size_t take = std::min(input.num_rows, remaining);
    ColumnBatch out =
        take == input.num_rows ? std::move(input) : SliceBatch(input, 0, take);
    produced_ += static_cast<int64_t>(take);
    CountBatch(&stats_, out, 0.0);
    *batch = std::move(out);
    *done = false;
    return Status::OK();
  }
}

void BatchLimitOp::Close() { child_->Close(); }

// --- BatchUdoOp --------------------------------------------------------------

BatchUdoOp::BatchUdoOp(const LogicalOp* logical, BatchOpPtr child,
                       uint64_t instance_seed, ColumnMask required)
    : BatchOp(logical), child_(std::move(child)),
      required_(std::move(required)) {
  // Deterministic UDOs key their behaviour purely on the UDO name, so the
  // same logical computation yields identical output row sets across jobs.
  uint64_t name_seed = HashString(logical->udo_name).lo;
  seed_ = logical->udo_deterministic ? name_seed
                                     : Mix64(name_seed ^ instance_seed);
}

Status BatchUdoOp::Open() { return child_->Open(); }

Status BatchUdoOp::NextBatch(ColumnBatch* batch, bool* done) {
  while (true) {
    ColumnBatch input;
    bool child_done = false;
    CLOUDVIEWS_RETURN_NOT_OK(child_->NextBatch(&input, &child_done));
    if (child_done) {
      *done = true;
      return Status::OK();
    }
    AddCost(logical_->udo_cost_per_row * static_cast<double>(input.num_rows));
    // Deterministic pseudo-random keep/drop decision on (seed, row content);
    // non-deterministic UDOs additionally mix the global arrival counter —
    // batches stream in global input order, so the counter sequence matches
    // the row engine exactly.
    std::vector<uint32_t> sel;
    CLOUDVIEWS_RETURN_NOT_OK(UdoSelection(
        input, seed_, !logical_->udo_deterministic, counter_,
        logical_->udo_selectivity, &sel));
    counter_ += input.num_rows;
    if (sel.empty()) continue;
    ColumnBatch out = GatherRows(input, sel, required_);
    CountBatch(&stats_, out, 0.0);
    *batch = std::move(out);
    *done = false;
    return Status::OK();
  }
}

void BatchUdoOp::Close() { child_->Close(); }

// --- BatchSortOp -------------------------------------------------------------

BatchSortOp::BatchSortOp(const LogicalOp* logical, BatchOpPtr child,
                         size_t batch_rows, ColumnMask required)
    : BatchOp(logical), child_(std::move(child)),
      batch_rows_(batch_rows > 0 ? batch_rows : 1),
      required_(std::move(required)) {}

Status BatchSortOp::Open() {
  obs::Span span("sort", "operator");
  CLOUDVIEWS_RETURN_NOT_OK(child_->Open());
  sorted_.Clear();
  pos_ = 0;
  BatchChunk input;
  CLOUDVIEWS_RETURN_NOT_OK(child_->DrainToChunk(&input));
  const size_t n = input.num_rows;
  // Precompute sort-key columns to keep the comparator cheap and fallible
  // evaluation out of std::stable_sort (exactly SortOp's precomputed keys).
  std::vector<ColumnPtr> keys;
  keys.reserve(logical_->sort_keys.size());
  for (const SortKey& key : logical_->sort_keys) {
    ColumnPtr col;
    CLOUDVIEWS_RETURN_NOT_OK(EvalExprBatch(*key.expr, InputOf(input), &col));
    keys.push_back(std::move(col));
  }
  std::vector<uint32_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = static_cast<uint32_t>(i);
  std::stable_sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    for (size_t k = 0; k < logical_->sort_keys.size(); ++k) {
      int cmp = CompareCells(*keys[k], a, *keys[k], b);
      if (cmp != 0) return logical_->sort_keys[k].ascending ? cmp < 0 : cmp > 0;
    }
    return false;
  });
  sorted_ = GatherRows(input, order, required_);
  double dn = static_cast<double>(n);
  AddCost(CostWeights::kSortRowLog * dn * (dn > 1 ? std::log2(dn) : 1.0));
  return Status::OK();
}

Status BatchSortOp::NextBatch(ColumnBatch* batch, bool* done) {
  if (pos_ >= sorted_.num_rows) {
    *done = true;
    return Status::OK();
  }
  const size_t end = std::min(pos_ + batch_rows_, sorted_.num_rows);
  ColumnBatch out = SliceBatch(sorted_, pos_, end);
  pos_ = end;
  CountBatch(&stats_, out, 0.0);
  *batch = std::move(out);
  *done = false;
  return Status::OK();
}

void BatchSortOp::Close() {
  child_->Close();
  sorted_.Clear();
}

// --- BatchAggregateOp --------------------------------------------------------

BatchAggregateOp::BatchAggregateOp(const LogicalOp* logical, BatchOpPtr child,
                                   size_t batch_rows)
    : BatchOp(logical), child_(std::move(child)),
      batch_rows_(batch_rows > 0 ? batch_rows : 1) {}

Status BatchAggregateOp::Open() {
  obs::Span span("aggregate", "operator");
  CLOUDVIEWS_RETURN_NOT_OK(child_->Open());
  output_.Clear();
  pos_ = 0;
  const size_t num_keys = logical_->group_by.size();
  const size_t num_aggs = logical_->aggregates.size();
  // The child was built to carry only the key and argument columns.
  BatchChunk input;
  CLOUDVIEWS_RETURN_NOT_OK(child_->DrainToChunk(&input));
  const size_t n = input.num_rows;
  AddCost(CostWeights::kAggRow * static_cast<double>(n));

  // Group keys and aggregate arguments, evaluated vectorized over the whole
  // input (the row engine evaluates the same expressions for every row; only
  // which row's error surfaces first differs — see DESIGN.md).
  std::vector<ColumnPtr> key_cols;
  key_cols.reserve(num_keys);
  for (const ExprPtr& expr : logical_->group_by) {
    ColumnPtr col;
    CLOUDVIEWS_RETURN_NOT_OK(EvalExprBatch(*expr, InputOf(input), &col));
    key_cols.push_back(std::move(col));
  }
  std::vector<ColumnPtr> arg_cols(num_aggs);
  for (size_t s = 0; s < num_aggs; ++s) {
    if (logical_->aggregates[s].func == AggFunc::kCountStar) continue;
    CLOUDVIEWS_RETURN_NOT_OK(EvalExprBatch(*logical_->aggregates[s].arg,
                                           InputOf(input), &arg_cols[s]));
  }

  // Group hashes place rows in chains only: a group is found by key
  // equality, "equal under Value::Compare" (two nulls are equal), exactly
  // the row engine's group-equality test, so no output depends on them.
  const std::vector<uint64_t> hashes = KeyHashes(key_cols, n);
  const std::vector<KeyEquality> key_equal = KeyEqualities(key_cols, key_cols);
  // COUNT(DISTINCT) tests an argument cell against its group's.
  // COUNT(DISTINCT *) has no argument and counts rows, as COUNT(*) does.
  std::vector<std::optional<KeyEquality>> distinct_equal(num_aggs);
  for (size_t s = 0; s < num_aggs; ++s) {
    if (logical_->aggregates[s].distinct &&
        logical_->aggregates[s].func != AggFunc::kCountStar) {
      distinct_equal[s].emplace(*arg_cols[s], *arg_cols[s]);
    }
  }

  // Accumulate every row into its group in input order, so per-group
  // accumulation order — floating-point sums, DISTINCT discovery, MIN/MAX
  // ties, representative key — matches the row engine bit for bit.
  PooledHashTable table;
  table.Reserve(n / 4 + 16);
  std::vector<Group> groups;
  for (size_t i = 0; i < n; ++i) {
    const uint64_t hash = hashes[i];
    uint32_t g = kPadIndex;
    for (uint32_t e = table.First(hash); e != PooledHashTable::kNil;
         e = table.NextMatch(e)) {
      const uint32_t cand = table.payload(e);
      if (KeysEqual(key_equal, i, groups[cand].first_row)) {
        g = cand;
        break;
      }
    }
    if (g == kPadIndex) {
      g = static_cast<uint32_t>(groups.size());
      Group group;
      group.first_row = static_cast<uint32_t>(i);
      group.states.resize(num_aggs);
      groups.push_back(std::move(group));
      table.Insert(hash, g);
    }
    Group& group = groups[g];
    for (size_t s = 0; s < num_aggs; ++s) {
      const AggregateSpec& spec = logical_->aggregates[s];
      AggState& state = group.states[s];
      if (spec.func == AggFunc::kCountStar) {
        state.count += 1;
        continue;
      }
      const ColumnVector& arg = *arg_cols[s];
      if (arg.IsNull(i)) continue;  // SQL semantics: aggregates skip nulls
      if (spec.distinct) {
        const KeyEquality& same = *distinct_equal[s];
        bool seen = false;
        for (uint32_t d : state.distinct_rows) {
          if (same(d, i)) {
            seen = true;
            break;
          }
        }
        if (seen) continue;
        state.distinct_rows.push_back(static_cast<uint32_t>(i));
      }
      switch (spec.func) {
        case AggFunc::kCount:
          state.count += 1;
          break;
        case AggFunc::kSum:
        case AggFunc::kAvg:
          state.count += 1;
          state.sum += arg.CellNumeric(i);
          if (arg.CellType(i) == DataType::kInt64) {
            state.sum_int += arg.CellInt64(i);
          } else {
            state.int_only = false;
          }
          break;
        case AggFunc::kMin:
          if (state.min_row < 0 ||
              CompareCells(arg, i, arg,
                           static_cast<size_t>(state.min_row)) < 0) {
            state.min_row = static_cast<int64_t>(i);
          }
          break;
        case AggFunc::kMax:
          if (state.max_row < 0 ||
              CompareCells(arg, i, arg,
                           static_cast<size_t>(state.max_row)) > 0) {
            state.max_row = static_cast<int64_t>(i);
          }
          break;
        default:
          break;
      }
    }
  }

  // Scalar aggregation (no GROUP BY) over empty input still produces one
  // row: COUNT = 0, other aggregates NULL (SQL semantics).
  if (groups.empty() && num_keys == 0) {
    Group group;
    group.states.resize(num_aggs);
    groups.push_back(std::move(group));
  }

  // Deterministic output order: groups sorted by representative key, the
  // same total order HashAggregateOp::SortOutput produces (distinct groups
  // always differ on some key column under Compare).
  std::vector<uint32_t> order(groups.size());
  for (size_t g = 0; g < groups.size(); ++g) order[g] = static_cast<uint32_t>(g);
  std::stable_sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    for (size_t k = 0; k < num_keys; ++k) {
      int cmp = CompareCells(*key_cols[k], groups[a].first_row, *key_cols[k],
                             groups[b].first_row);
      if (cmp != 0) return cmp < 0;
    }
    return false;
  });

  // Emit columns: keys (the representative row's cells) then one column per
  // aggregate — no per-row Value construction anywhere.
  output_.columns.reserve(num_keys + num_aggs);
  for (size_t k = 0; k < num_keys; ++k) {
    auto col = std::make_shared<ColumnVector>();
    col->Reserve(groups.size());
    for (uint32_t g : order) {
      col->AppendCellFrom(*key_cols[k], groups[g].first_row);
    }
    output_.columns.push_back(std::move(col));
  }
  for (size_t s = 0; s < num_aggs; ++s) {
    const AggregateSpec& spec = logical_->aggregates[s];
    auto col = std::make_shared<ColumnVector>();
    col->Reserve(groups.size());
    for (uint32_t g : order) {
      const AggState& state = groups[g].states[s];
      switch (spec.func) {
        case AggFunc::kCountStar:
        case AggFunc::kCount:
          col->AppendInt64(state.count);
          break;
        case AggFunc::kSum:
          if (state.count == 0) {
            col->AppendNull();
          } else if (state.int_only) {
            int64_t sum = 0;
            CLOUDVIEWS_RETURN_NOT_OK(IntSumResult(state.sum_int, &sum));
            col->AppendInt64(sum);
          } else {
            col->AppendDouble(state.sum);
          }
          break;
        case AggFunc::kAvg:
          if (state.count == 0) {
            col->AppendNull();
          } else {
            col->AppendDouble(state.sum / static_cast<double>(state.count));
          }
          break;
        case AggFunc::kMin:
          if (state.min_row < 0) {
            col->AppendNull();
          } else {
            col->AppendCellFrom(*arg_cols[s],
                                static_cast<size_t>(state.min_row));
          }
          break;
        case AggFunc::kMax:
          if (state.max_row < 0) {
            col->AppendNull();
          } else {
            col->AppendCellFrom(*arg_cols[s],
                                static_cast<size_t>(state.max_row));
          }
          break;
      }
    }
    output_.columns.push_back(std::move(col));
  }
  output_.num_rows = groups.size();
  return Status::OK();
}

Status BatchAggregateOp::NextBatch(ColumnBatch* batch, bool* done) {
  if (pos_ >= output_.num_rows) {
    *done = true;
    return Status::OK();
  }
  const size_t end = std::min(pos_ + batch_rows_, output_.num_rows);
  ColumnBatch out = SliceBatch(output_, pos_, end);
  pos_ = end;
  CountBatch(&stats_, out, 0.0);
  *batch = std::move(out);
  *done = false;
  return Status::OK();
}

void BatchAggregateOp::Close() {
  child_->Close();
  output_.Clear();
}

// --- BatchSpoolOp ------------------------------------------------------------

BatchSpoolOp::BatchSpoolOp(const LogicalOp* logical, BatchOpPtr child,
                           SpoolOp::CompletionFn on_complete,
                           SpoolOp::AbortFn on_abort)
    : BatchOp(logical), child_(std::move(child)),
      on_complete_(std::move(on_complete)), on_abort_(std::move(on_abort)) {}

Status BatchSpoolOp::Open() {
  CLOUDVIEWS_RETURN_NOT_OK(child_->Open());
  side_table_ = std::make_shared<Table>("spool", logical_->output_schema);
  return Status::OK();
}

Status BatchSpoolOp::NextBatch(ColumnBatch* batch, bool* done) {
  bool child_done = false;
  CLOUDVIEWS_RETURN_NOT_OK(child_->NextBatch(batch, &child_done));
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
  const size_t n = batch->num_rows;
  std::vector<uint32_t> row_bytes;
  RowByteSizes(*batch, &row_bytes);
  double cost_total = 0.0;
  uint64_t bytes_total = 0;
  for (size_t i = 0; i < n; ++i) {
    bytes_total += row_bytes[i];
    if (aborted_) continue;
    // One injection check per row, exactly like the row spool — fault seeds
    // that fire on the k-th write fire on the same row in both engines.
    Status fault = InjectSpoolWriteFault();
    if (!fault.ok()) {
      // Abort cleanly: drop the partial output and keep streaming. The
      // consumer above never notices — reuse degrades, results don't.
      aborted_ = true;
      abort_cause_ = fault;
      side_table_.reset();
      static obs::Counter& aborts = obs::MetricsRegistry::Global().counter(
          obs::metric_names::kExecSpoolAborts);
      aborts.Increment();
      obs::LogWarn("exec", "spool_aborted",
                   {{"signature", logical_->view_signature.ToHex()},
                    {"cause", fault.ToString()}});
    } else {
      bytes_spooled_ += row_bytes[i];
      double cost = CostWeights::kSpoolRow +
                    CostWeights::kSpoolByte * static_cast<double>(row_bytes[i]);
      spool_cpu_cost_ += cost;
      cost_total += cost;
    }
  }
  if (!aborted_) {
    CLOUDVIEWS_RETURN_NOT_OK(side_table_->AppendBatch(*batch));
  }
  stats_.rows_out += n;
  stats_.bytes_out += bytes_total;
  stats_.cpu_cost += cost_total;
  *done = false;
  return Status::OK();
}

void BatchSpoolOp::Close() { child_->Close(); }

// --- BatchHashJoinOp ---------------------------------------------------------

BatchHashJoinOp::BatchHashJoinOp(const LogicalOp* logical, BatchOpPtr left,
                                 BatchOpPtr right, ColumnMask required)
    : BatchOp(logical), left_(std::move(left)), right_(std::move(right)),
      required_(std::move(required)) {
  for (const auto& [l, r] : logical->equi_keys) {
    left_keys_.push_back(l);
    right_keys_.push_back(r);
  }
}

Status BatchHashJoinOp::BuildRight() {
  BatchChunk rows;
  CLOUDVIEWS_RETURN_NOT_OK(right_->DrainToChunk(&rows));
  const size_t n = rows.num_rows;
  AddCost(CostWeights::kHashBuildRow * static_cast<double>(n));
  // Rows are inserted in input order, and head-inserted chains iterated
  // newest-first among equal hashes reproduce unordered_multimap::
  // equal_range exactly: equal keys hash equally under any key hash, so
  // the 64-bit key hash only places rows in chains.
  const std::vector<uint64_t> hashes = KeyHashes(
      n > 0 ? ColumnsAt(rows, right_keys_) : std::vector<ColumnPtr>(), n);
  table_ = PooledHashTable();
  table_.Reserve(n);
  for (size_t i = 0; i < n; ++i) {
    table_.Insert(hashes[i], static_cast<uint32_t>(i));
  }
  build_ = std::move(rows);
  return Status::OK();
}

Status BatchHashJoinOp::Probe(const ColumnBatch& probe, ColumnBatch* out) {
  const size_t n = probe.num_rows;
  if (n == 0) return Status::OK();
  AddCost(CostWeights::kHashProbeRow * static_cast<double>(n));
  // Pass 1: collect match candidates per probe row, in build-chain order
  // (newest-first among equal hashes = the row engine's emission order).
  std::vector<uint32_t> cand_left;
  std::vector<uint32_t> cand_right;
  std::vector<uint32_t> cand_count(n, 0);
  const std::vector<ColumnPtr> keys = ColumnsAt(probe, left_keys_);
  const std::vector<uint64_t> hashes = KeyHashes(keys, n);
  // An empty build side drained to no columns and matches nothing.
  std::vector<KeyEquality> key_equal;
  if (build_.num_rows > 0) {
    key_equal = KeyEqualities(keys, ColumnsAt(build_, right_keys_));
  }
  for (size_t i = 0; i < n; ++i) {
    // SQL null never matches, not even null; a non-null probe key equals
    // no null build key.
    if (AnyNull(keys, i)) continue;
    for (uint32_t e = table_.First(hashes[i]); e != PooledHashTable::kNil;
         e = table_.NextMatch(e)) {
      const uint32_t b = table_.payload(e);
      // Verify key equality (hash collisions).
      if (!KeysEqual(key_equal, i, b)) continue;
      cand_left.push_back(static_cast<uint32_t>(i));
      cand_right.push_back(b);
      cand_count[i] += 1;
    }
  }
  // Pass 2: residual predicate over all candidates at once.
  std::vector<uint8_t> pass(cand_left.size(), 1);
  if (logical_->predicate != nullptr && !cand_left.empty()) {
    CLOUDVIEWS_RETURN_NOT_OK(EvalResidual(*logical_->predicate, probe.columns,
                                          cand_left, build_.columns,
                                          cand_right, &pass));
  }
  // Pass 3: emit surviving matches per probe row in order, padding
  // unmatched left-outer rows.
  std::vector<uint32_t> out_left;
  std::vector<uint32_t> out_right;
  size_t c = 0;
  for (size_t i = 0; i < n; ++i) {
    bool matched = false;
    for (uint32_t k = 0; k < cand_count[i]; ++k, ++c) {
      if (!pass[c]) continue;
      matched = true;
      out_left.push_back(static_cast<uint32_t>(i));
      out_right.push_back(cand_right[c]);
    }
    if (logical_->join_kind == sql::JoinKind::kLeft && !matched) {
      out_left.push_back(static_cast<uint32_t>(i));
      out_right.push_back(kPadIndex);
    }
  }
  if (out_left.empty()) return Status::OK();
  *out = GatherJoinOutput(
      probe, logical_->children[0]->output_schema.num_columns(), out_left,
      build_, logical_->children[1]->output_schema.num_columns(), out_right,
      logical_->join_kind == sql::JoinKind::kLeft, required_);
  stats_.rows_out += out->num_rows;
  stats_.bytes_out += BatchByteSize(*out);
  return Status::OK();
}

Status BatchHashJoinOp::Open() {
  obs::Span span("hash-join", "operator");
  CLOUDVIEWS_RETURN_NOT_OK(left_->Open());
  CLOUDVIEWS_RETURN_NOT_OK(right_->Open());
  obs::Span build_span("join-build", "operator");
  return BuildRight();
}

Status BatchHashJoinOp::NextBatch(ColumnBatch* batch, bool* done) {
  while (true) {
    ColumnBatch input;
    bool child_done = false;
    CLOUDVIEWS_RETURN_NOT_OK(left_->NextBatch(&input, &child_done));
    if (child_done) {
      *done = true;
      return Status::OK();
    }
    ColumnBatch out;
    CLOUDVIEWS_RETURN_NOT_OK(Probe(input, &out));
    if (out.num_rows == 0) continue;
    *batch = std::move(out);
    *done = false;
    return Status::OK();
  }
}

void BatchHashJoinOp::Close() {
  left_->Close();
  right_->Close();
  table_ = PooledHashTable();
  build_.Clear();
}

// --- BatchMergeJoinOp --------------------------------------------------------

BatchMergeJoinOp::BatchMergeJoinOp(const LogicalOp* logical, BatchOpPtr left,
                                   BatchOpPtr right, size_t batch_rows,
                                   ColumnMask required)
    : BatchOp(logical), left_(std::move(left)), right_(std::move(right)),
      batch_rows_(batch_rows > 0 ? batch_rows : 1),
      required_(std::move(required)) {}

Status BatchMergeJoinOp::Open() {
  CLOUDVIEWS_RETURN_NOT_OK(left_->Open());
  CLOUDVIEWS_RETURN_NOT_OK(right_->Open());
  output_.Clear();
  pos_ = 0;

  BatchChunk left;
  BatchChunk right;
  CLOUDVIEWS_RETURN_NOT_OK(left_->DrainToChunk(&left));
  CLOUDVIEWS_RETURN_NOT_OK(right_->DrainToChunk(&right));

  std::vector<int> lk, rk;
  for (const auto& [l, r] : logical_->equi_keys) {
    lk.push_back(l);
    rk.push_back(r);
  }
  // Argsort each side by its own keys (stable — ties keep input order,
  // exactly MergeJoinOp's std::stable_sort over rows).
  auto sort_side = [](const BatchChunk& chunk, const std::vector<int>& keys) {
    std::vector<uint32_t> order(chunk.num_rows);
    for (size_t i = 0; i < order.size(); ++i) {
      order[i] = static_cast<uint32_t>(i);
    }
    std::stable_sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
      for (int k : keys) {
        const ColumnVector& col = *chunk.columns[static_cast<size_t>(k)];
        int cmp = CompareCells(col, a, col, b);
        if (cmp != 0) return cmp < 0;
      }
      return false;
    });
    return order;
  };
  std::vector<uint32_t> lorder = sort_side(left, lk);
  std::vector<uint32_t> rorder = sort_side(right, rk);
  double ln = static_cast<double>(left.num_rows);
  double rn = static_cast<double>(right.num_rows);
  AddCost(CostWeights::kSortRowLog *
          (ln * (ln > 1 ? std::log2(ln) : 1.0) +
           rn * (rn > 1 ? std::log2(rn) : 1.0)));

  auto compare_lr = [&](uint32_t l, uint32_t r) {
    for (size_t k = 0; k < lk.size(); ++k) {
      int cmp = CompareCells(*left.columns[static_cast<size_t>(lk[k])], l,
                             *right.columns[static_cast<size_t>(rk[k])], r);
      if (cmp != 0) return cmp;
    }
    return 0;
  };
  auto keys_non_null = [](const BatchChunk& chunk, const std::vector<int>& keys,
                          uint32_t row) {
    for (int k : keys) {
      if (chunk.columns[static_cast<size_t>(k)]->IsNull(row)) return false;
    }
    return true;
  };

  // The merge loop, over sorted index vectors. Candidates are gathered
  // first so the residual can evaluate vectorized; `units` replays the row
  // engine's per-event kMergeRow charges.
  struct Event {
    uint32_t left_row = 0;
    uint32_t cand_begin = 0;
    uint32_t cand_end = 0;
    bool null_pad = false;
  };
  std::vector<Event> events;
  std::vector<uint32_t> cand_left;
  std::vector<uint32_t> cand_right;
  uint64_t units = 0;
  size_t li = 0, ri = 0;
  const bool left_outer = logical_->join_kind == sql::JoinKind::kLeft;
  while (li < lorder.size()) {
    units += 1;
    const uint32_t lrow = lorder[li];
    if (!keys_non_null(left, lk, lrow)) {
      // Null join keys never match; a left-outer join still pads the row.
      if (left_outer) events.push_back(Event{lrow, 0, 0, true});
      li += 1;
      continue;
    }
    // Advance right until >= left.
    while (ri < rorder.size() &&
           (!keys_non_null(right, rk, rorder[ri]) ||
            compare_lr(lrow, rorder[ri]) > 0)) {
      ri += 1;
      units += 1;
    }
    // Collect the right group equal to the left key. `ri` stays at the
    // group start — the next left row may share the key.
    Event ev;
    ev.left_row = lrow;
    ev.cand_begin = static_cast<uint32_t>(cand_left.size());
    size_t group_end = ri;
    while (group_end < rorder.size() &&
           compare_lr(lrow, rorder[group_end]) == 0) {
      cand_left.push_back(lrow);
      cand_right.push_back(rorder[group_end]);
      group_end += 1;
      units += 1;
    }
    ev.cand_end = static_cast<uint32_t>(cand_left.size());
    events.push_back(ev);
    li += 1;
  }
  AddCost(CostWeights::kMergeRow * static_cast<double>(units));

  std::vector<uint8_t> pass(cand_left.size(), 1);
  if (logical_->predicate != nullptr && !cand_left.empty()) {
    CLOUDVIEWS_RETURN_NOT_OK(EvalResidual(*logical_->predicate, left.columns,
                                          cand_left, right.columns,
                                          cand_right, &pass));
  }

  std::vector<uint32_t> out_left;
  std::vector<uint32_t> out_right;
  for (const Event& ev : events) {
    if (ev.null_pad) {
      out_left.push_back(ev.left_row);
      out_right.push_back(kPadIndex);
      continue;
    }
    bool matched = false;
    for (uint32_t c = ev.cand_begin; c < ev.cand_end; ++c) {
      if (!pass[c]) continue;
      matched = true;
      out_left.push_back(ev.left_row);
      out_right.push_back(cand_right[c]);
    }
    if (left_outer && !matched) {
      out_left.push_back(ev.left_row);
      out_right.push_back(kPadIndex);
    }
  }
  if (out_left.empty()) return Status::OK();
  output_ = GatherJoinOutput(
      left, logical_->children[0]->output_schema.num_columns(), out_left,
      right, logical_->children[1]->output_schema.num_columns(), out_right,
      left_outer, required_);
  return Status::OK();
}

Status BatchMergeJoinOp::NextBatch(ColumnBatch* batch, bool* done) {
  if (pos_ >= output_.num_rows) {
    *done = true;
    return Status::OK();
  }
  const size_t end = std::min(pos_ + batch_rows_, output_.num_rows);
  ColumnBatch out = SliceBatch(output_, pos_, end);
  pos_ = end;
  CountBatch(&stats_, out, 0.0);
  *batch = std::move(out);
  *done = false;
  return Status::OK();
}

void BatchMergeJoinOp::Close() {
  left_->Close();
  right_->Close();
  output_.Clear();
}

// --- BatchLoopJoinOp ---------------------------------------------------------

BatchLoopJoinOp::BatchLoopJoinOp(const LogicalOp* logical, BatchOpPtr left,
                                 BatchOpPtr right, ColumnMask required)
    : BatchOp(logical), left_(std::move(left)), right_(std::move(right)),
      required_(std::move(required)) {}

Status BatchLoopJoinOp::Open() {
  CLOUDVIEWS_RETURN_NOT_OK(left_->Open());
  CLOUDVIEWS_RETURN_NOT_OK(right_->Open());
  right_chunk_.Clear();
  return right_->DrainToChunk(&right_chunk_);
}

Status BatchLoopJoinOp::NextBatch(ColumnBatch* batch, bool* done) {
  const bool left_outer = logical_->join_kind == sql::JoinKind::kLeft;
  while (true) {
    ColumnBatch input;
    bool child_done = false;
    CLOUDVIEWS_RETURN_NOT_OK(left_->NextBatch(&input, &child_done));
    if (child_done) {
      *done = true;
      return Status::OK();
    }
    const size_t n = input.num_rows;
    const size_t rn = right_chunk_.num_rows;
    // Every (left, right) pair is scanned — the row engine never exits the
    // inner loop early.
    AddCost(CostWeights::kLoopJoinPair * static_cast<double>(n) *
            static_cast<double>(rn));
    std::vector<uint32_t> cand_left;
    std::vector<uint32_t> cand_right;
    std::vector<uint32_t> cand_count(n, 0);
    // Equi keys (if any; empty = pure theta/cross join) with SQL null
    // semantics, then the residual below. An empty side may have drained
    // to no columns.
    std::vector<ColumnPtr> left_keys;
    std::vector<ColumnPtr> right_keys;
    if (n > 0 && rn > 0) {
      for (const auto& [l, r] : logical_->equi_keys) {
        left_keys.push_back(input.columns[static_cast<size_t>(l)]);
        right_keys.push_back(right_chunk_.columns[static_cast<size_t>(r)]);
      }
    }
    const std::vector<KeyEquality> key_equal =
        KeyEqualities(left_keys, right_keys);
    for (size_t i = 0; i < n; ++i) {
      if (AnyNull(left_keys, i)) continue;
      for (size_t j = 0; j < rn; ++j) {
        if (!KeysEqual(key_equal, i, j)) continue;
        cand_left.push_back(static_cast<uint32_t>(i));
        cand_right.push_back(static_cast<uint32_t>(j));
        cand_count[i] += 1;
      }
    }
    std::vector<uint8_t> pass(cand_left.size(), 1);
    if (logical_->predicate != nullptr && !cand_left.empty()) {
      CLOUDVIEWS_RETURN_NOT_OK(EvalResidual(*logical_->predicate,
                                            input.columns, cand_left,
                                            right_chunk_.columns, cand_right,
                                            &pass));
    }
    std::vector<uint32_t> out_left;
    std::vector<uint32_t> out_right;
    size_t c = 0;
    for (size_t i = 0; i < n; ++i) {
      bool matched = false;
      for (uint32_t k = 0; k < cand_count[i]; ++k, ++c) {
        if (!pass[c]) continue;
        matched = true;
        out_left.push_back(static_cast<uint32_t>(i));
        out_right.push_back(cand_right[c]);
      }
      if (left_outer && !matched) {
        out_left.push_back(static_cast<uint32_t>(i));
        out_right.push_back(kPadIndex);
      }
    }
    if (out_left.empty()) continue;
    ColumnBatch out = GatherJoinOutput(
        input, logical_->children[0]->output_schema.num_columns(), out_left,
        right_chunk_, logical_->children[1]->output_schema.num_columns(),
        out_right, left_outer, required_);
    CountBatch(&stats_, out, 0.0);
    *batch = std::move(out);
    *done = false;
    return Status::OK();
  }
}

void BatchLoopJoinOp::Close() {
  left_->Close();
  right_->Close();
  right_chunk_.Clear();
}

// --- BatchUnionAllOp ---------------------------------------------------------

BatchUnionAllOp::BatchUnionAllOp(const LogicalOp* logical,
                                 std::vector<BatchOpPtr> children)
    : BatchOp(logical), children_(std::move(children)) {}

Status BatchUnionAllOp::Open() {
  for (BatchOpPtr& child : children_) {
    CLOUDVIEWS_RETURN_NOT_OK(child->Open());
  }
  current_ = 0;
  return Status::OK();
}

Status BatchUnionAllOp::NextBatch(ColumnBatch* batch, bool* done) {
  while (current_ < children_.size()) {
    bool child_done = false;
    CLOUDVIEWS_RETURN_NOT_OK(
        children_[current_]->NextBatch(batch, &child_done));
    if (!child_done) {
      if (batch->num_rows == 0) continue;
      CountBatch(&stats_, *batch, 0.0);
      *done = false;
      return Status::OK();
    }
    current_ += 1;
  }
  *done = true;
  return Status::OK();
}

void BatchUnionAllOp::Close() {
  for (BatchOpPtr& child : children_) child->Close();
}

// --- Batch plan builder ------------------------------------------------------

namespace {

// True for operators a scan pipeline can absorb: row-preserving, stateless
// per row, and deterministic. Non-deterministic UDOs are excluded — their
// keep/drop decision depends on global row arrival order.
bool BatchFusable(const LogicalOp& node) {
  switch (node.kind) {
    case LogicalOpKind::kFilter:
    case LogicalOpKind::kProject:
      return true;
    case LogicalOpKind::kUdo:
      return node.udo_deterministic;
    default:
      return false;
  }
}

// The columnar counterpart of PhysicalBuilder (identical error messages).
// Scan-rooted fusable chains always become a BatchScanPipelineOp. Each node
// is built for the ColumnMask its parent reads (ChildReads); spools read,
// and the root emits, full width.
class BatchBuilder {
 public:
  BatchBuilder(const ExecContext* context, size_t batch_rows,
               std::vector<PhysicalOp*>* registry)
      : context_(context), batch_rows_(batch_rows > 0 ? batch_rows : 1),
        registry_(registry) {}

  // `required` is the node's output ordinals its parent reads.
  Result<BatchOpPtr> Build(const LogicalOpPtr& node, ColumnMask required) {
    auto op = BuildNode(node, std::move(required));
    if (op.ok()) registry_->push_back(op.value().get());
    return op;
  }

 private:
  Result<BatchOpPtr> TryBuildPipeline(const LogicalOpPtr& node,
                                      const ColumnMask& required) {
    const LogicalOp* cur = node.get();
    std::vector<const LogicalOp*> top_down;
    while (BatchFusable(*cur)) {
      top_down.push_back(cur);
      cur = cur->children[0].get();
    }
    if (cur->kind != LogicalOpKind::kScan &&
        cur->kind != LogicalOpKind::kViewScan) {
      return BatchOpPtr();
    }
    bool is_view_scan = false;
    auto table = BindScanTable(*context_, *cur, &is_view_scan);
    if (!table.ok()) return table.status();
    std::vector<const LogicalOp*> chain;
    chain.reserve(top_down.size() + 1);
    chain.push_back(cur);
    for (auto it = top_down.rbegin(); it != top_down.rend(); ++it) {
      chain.push_back(*it);
    }
    return BatchOpPtr(std::make_unique<BatchScanPipelineOp>(
        node.get(), std::move(chain), std::move(table).value(), is_view_scan,
        batch_rows_, required));
  }

  // Builds child `i` of `node` for what `node` reads of it.
  Result<BatchOpPtr> BuildChild(const LogicalOp& node, size_t i,
                                const ColumnMask& required) {
    return Build(node.children[i], ChildReads(node, required, i));
  }

  Result<BatchOpPtr> BuildNode(const LogicalOpPtr& node, ColumnMask required) {
    auto pipeline = TryBuildPipeline(node, required);
    if (!pipeline.ok()) return pipeline.status();
    if (*pipeline != nullptr) return pipeline;
    switch (node->kind) {
      case LogicalOpKind::kScan:
      case LogicalOpKind::kViewScan:
        // TryBuildPipeline handles every scan (a bare scan is a 1-chain).
        return Status::Internal("scan not fused into a batch pipeline");
      case LogicalOpKind::kFilter: {
        auto child = BuildChild(*node, 0, required);
        if (!child.ok()) return child.status();
        return BatchOpPtr(std::make_unique<BatchFilterOp>(
            node.get(), std::move(child).value(), std::move(required)));
      }
      case LogicalOpKind::kProject: {
        auto child = BuildChild(*node, 0, required);
        if (!child.ok()) return child.status();
        return BatchOpPtr(std::make_unique<BatchProjectOp>(
            node.get(), std::move(child).value()));
      }
      case LogicalOpKind::kJoin: {
        auto left = BuildChild(*node, 0, required);
        if (!left.ok()) return left.status();
        auto right = BuildChild(*node, 1, required);
        if (!right.ok()) return right.status();
        switch (node->join_algorithm) {
          case JoinAlgorithm::kHash:
            if (node->equi_keys.empty()) {
              return Status::InvalidArgument(
                  "hash join requires at least one equi key");
            }
            return BatchOpPtr(std::make_unique<BatchHashJoinOp>(
                node.get(), std::move(left).value(), std::move(right).value(),
                std::move(required)));
          case JoinAlgorithm::kMerge:
            if (node->equi_keys.empty()) {
              return Status::InvalidArgument(
                  "merge join requires at least one equi key");
            }
            return BatchOpPtr(std::make_unique<BatchMergeJoinOp>(
                node.get(), std::move(left).value(), std::move(right).value(),
                batch_rows_, std::move(required)));
          case JoinAlgorithm::kLoop:
            return BatchOpPtr(std::make_unique<BatchLoopJoinOp>(
                node.get(), std::move(left).value(), std::move(right).value(),
                std::move(required)));
        }
        return Status::Internal("unknown join algorithm");
      }
      case LogicalOpKind::kAggregate: {
        auto child = BuildChild(*node, 0, required);
        if (!child.ok()) return child.status();
        return BatchOpPtr(std::make_unique<BatchAggregateOp>(
            node.get(), std::move(child).value(), batch_rows_));
      }
      case LogicalOpKind::kSort: {
        auto child = BuildChild(*node, 0, required);
        if (!child.ok()) return child.status();
        return BatchOpPtr(std::make_unique<BatchSortOp>(
            node.get(), std::move(child).value(), batch_rows_,
            std::move(required)));
      }
      case LogicalOpKind::kLimit: {
        auto child = BuildChild(*node, 0, required);
        if (!child.ok()) return child.status();
        return BatchOpPtr(std::make_unique<BatchLimitOp>(
            node.get(), std::move(child).value()));
      }
      case LogicalOpKind::kUnionAll: {
        std::vector<BatchOpPtr> children;
        for (size_t i = 0; i < node->children.size(); ++i) {
          auto built = BuildChild(*node, i, required);
          if (!built.ok()) return built.status();
          children.push_back(std::move(built).value());
        }
        return BatchOpPtr(std::make_unique<BatchUnionAllOp>(
            node.get(), std::move(children)));
      }
      case LogicalOpKind::kUdo: {
        auto child = BuildChild(*node, 0, required);
        if (!child.ok()) return child.status();
        return BatchOpPtr(std::make_unique<BatchUdoOp>(
            node.get(), std::move(child).value(), context_->job_seed,
            std::move(required)));
      }
      case LogicalOpKind::kSpool: {
        auto child = BuildChild(*node, 0, required);
        if (!child.ok()) return child.status();
        return BatchOpPtr(std::make_unique<BatchSpoolOp>(
            node.get(), std::move(child).value(), context_->on_spool_complete,
            context_->on_spool_abort));
      }
      case LogicalOpKind::kSharedScan:
        return BatchOpPtr(std::make_unique<SharedScanOp>(
            node.get(), context_, batch_rows_));
    }
    return Status::Internal("unhandled logical operator kind");
  }

  const ExecContext* context_;
  size_t batch_rows_;
  std::vector<PhysicalOp*>* registry_;
};

}  // namespace

Result<BatchOpPtr> BuildBatchPlan(const ExecContext& context,
                                  size_t batch_rows, const LogicalOpPtr& plan,
                                  std::vector<PhysicalOp*>* registry) {
  BatchBuilder builder(&context, batch_rows, registry);
  return builder.Build(plan,
                       ColumnMask(plan->output_schema.num_columns(), true));
}

}  // namespace cloudviews
