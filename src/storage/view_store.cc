#include "storage/view_store.h"

#include <algorithm>

#include "fault/fault.h"
#include "fault/fault_sites.h"
#include "obs/log.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"

namespace cloudviews {

Hash128 ComputeTableChecksum(const Table& table) {
  // The row count, then per row the arity and each cell in column order.
  // ColumnVector::HashCellInto feeds the hasher the same bytes as
  // Value::HashInto, so this is the hash of the table's rows.
  Hasher hasher;
  hasher.Update(static_cast<uint64_t>(table.num_rows()));
  const size_t num_columns = table.num_columns();
  std::vector<ColumnPtr> columns;
  columns.reserve(num_columns);
  for (size_t c = 0; c < num_columns; ++c) columns.push_back(table.column(c));
  for (size_t i = 0; i < table.num_rows(); ++i) {
    hasher.Update(static_cast<uint64_t>(num_columns));
    for (const ColumnPtr& col : columns) col->HashCellInto(i, &hasher);
  }
  return hasher.Finish();
}

const char* ViewStateName(ViewState state) {
  switch (state) {
    case ViewState::kMaterializing:
      return "MATERIALIZING";
    case ViewState::kSealed:
      return "SEALED";
    case ViewState::kExpired:
      return "EXPIRED";
  }
  return "UNKNOWN";
}

Status ViewStore::BeginMaterialize(const Hash128& strict_signature,
                                   const Hash128& recurring_signature,
                                   const std::string& virtual_cluster,
                                   int64_t producer_job_id, double now) {
  MutexLock lock(mu_);
  auto it = views_.find(strict_signature);
  if (it != views_.end() && it->second.state != ViewState::kExpired) {
    return Status::AlreadyExists("view already materializing or sealed: " +
                                 strict_signature.ToHex());
  }
  MaterializedView view;
  view.strict_signature = strict_signature;
  view.recurring_signature = recurring_signature;
  view.virtual_cluster = virtual_cluster;
  view.output_path = "/cloudviews/" + virtual_cluster + "/" +
                     strict_signature.ToHex() + ".ss";
  view.state = ViewState::kMaterializing;
  view.created_at = now;
  view.expires_at = now + ttl_seconds_;
  view.producer_job_id = producer_job_id;
  views_[strict_signature] = std::move(view);
  return Status::OK();
}

Status ViewStore::Seal(const Hash128& strict_signature, TablePtr contents,
                       uint64_t observed_rows, uint64_t observed_bytes,
                       double now) {
  MutexLock lock(mu_);
  auto it = views_.find(strict_signature);
  if (it == views_.end()) {
    return Status::NotFound("no view being materialized for signature " +
                            strict_signature.ToHex());
  }
  MaterializedView& view = it->second;
  if (view.state != ViewState::kMaterializing) {
    return Status::InvalidArgument("view not in MATERIALIZING state: " +
                                   strict_signature.ToHex());
  }
  view.table = std::move(contents);
  view.state = ViewState::kSealed;
  view.sealed_at = now;
  view.observed_rows = observed_rows;
  view.observed_bytes = observed_bytes;
  view.byte_size = view.table != nullptr ? view.table->byte_size()
                                         : static_cast<size_t>(observed_bytes);
  // Write the integrity footer: readers re-validate content against it.
  if (view.table != nullptr) {
    view.checksum = ComputeTableChecksum(*view.table);
    view.footer_rows = view.table->num_rows();
  }
  view.validated = false;
  total_created_ += 1;
  static obs::Counter& sealed =
      obs::MetricsRegistry::Global().counter(obs::metric_names::kViewsSealed);
  sealed.Increment();
  if (obs::Logger::Global().ShouldLog(obs::LogLevel::kDebug)) {
    obs::LogDebug("views", "sealed",
                  {{"signature", strict_signature.ToHex()},
                   {"rows", observed_rows},
                   {"bytes", observed_bytes},
                   {"sealed_at", now}});
  }
  return Status::OK();
}

const MaterializedView* ViewStore::Find(const Hash128& strict_signature,
                                        double now) const {
  MutexLock lock(mu_);
  return FindLocked(strict_signature, now);
}

TablePtr ViewStore::ReadTable(const Hash128& strict_signature,
                              double now) const {
  MutexLock lock(mu_);
  const MaterializedView* view = FindLocked(strict_signature, now);
  return view != nullptr ? view->table : nullptr;
}

const MaterializedView* ViewStore::FindLocked(
    const Hash128& strict_signature, double now) const {
  static obs::Counter& hits = obs::MetricsRegistry::Global().counter(
      obs::metric_names::kViewsLookupHit);
  static obs::Counter& misses = obs::MetricsRegistry::Global().counter(
      obs::metric_names::kViewsLookupMiss);
  auto it = views_.find(strict_signature);
  const MaterializedView* found = nullptr;
  if (it != views_.end()) {
    MaterializedView& view = it->second;
    if (view.state == ViewState::kSealed && now >= view.sealed_at &&
        now < view.expires_at && ValidateOnRead(&view, now)) {
      found = &view;
    }
  }
  (found != nullptr ? hits : misses).Increment();
  return found;
}

bool ViewStore::ValidateOnRead(MaterializedView* view, double now) const {
  // An injected read fault models bit rot the checksum would catch: treat
  // it exactly like a real mismatch.
  Status fault = fault::Inject(fault::sites::kViewRead);
  bool corrupt = !fault.ok();
  std::string detail = corrupt ? fault.ToString() : "";
  if (!corrupt && !view->validated && view->table != nullptr) {
    // Full footer validation on the first read after seal (or after the
    // stored bytes changed). A truncated file shows up as a row-count
    // mismatch; flipped bytes as a checksum mismatch.
    if (view->table->num_rows() != view->footer_rows) {
      corrupt = true;
      detail = "row count " + std::to_string(view->table->num_rows()) +
               " != footer " + std::to_string(view->footer_rows);
    } else if (ComputeTableChecksum(*view->table) != view->checksum) {
      corrupt = true;
      detail = "content checksum mismatch";
    } else {
      view->validated = true;
    }
  }
  if (!corrupt) return true;
  // Quarantine: the entry stops being served immediately and is removed by
  // the next PurgeExpired sweep. Callers see a miss and fall back to base
  // scans; the query is unaffected.
  view->state = ViewState::kExpired;
  view->table = nullptr;
  total_quarantined_ += 1;
  static obs::Counter& quarantined = obs::MetricsRegistry::Global().counter(
      obs::metric_names::kViewsQuarantined);
  static obs::Counter& invalidations = obs::MetricsRegistry::Global().counter(
      obs::metric_names::kViewsInvalidations);
  quarantined.Increment();
  invalidations.Increment();
  if (provenance_ != nullptr) {
    provenance_->RecordQuarantined(view->strict_signature, now, detail);
  }
  obs::LogWarn("views", "quarantined",
               {{"signature", view->strict_signature.ToHex()},
                {"detail", detail}});
  return false;
}

Status ViewStore::CorruptForTest(const Hash128& strict_signature,
                                 size_t keep_rows) {
  MutexLock lock(mu_);
  auto it = views_.find(strict_signature);
  if (it == views_.end() || it->second.table == nullptr) {
    return Status::NotFound("no sealed view to corrupt: " +
                            strict_signature.ToHex());
  }
  MaterializedView& view = it->second;
  const Table& full = *view.table;
  const size_t keep = std::min(keep_rows, full.num_rows());
  std::vector<ColumnVector> columns(full.num_columns());
  for (size_t c = 0; c < columns.size(); ++c) {
    columns[c].AppendRangeFrom(*full.column(c), 0, keep);
  }
  auto truncated = std::make_shared<Table>(full.name(), full.schema());
  CLOUDVIEWS_RETURN_NOT_OK(truncated->AdoptColumns(std::move(columns)));
  view.table = std::move(truncated);
  view.validated = false;  // force re-validation on the next read
  return Status::OK();
}

const MaterializedView* ViewStore::FindAny(
    const Hash128& strict_signature) const {
  MutexLock lock(mu_);
  auto it = views_.find(strict_signature);
  return it == views_.end() ? nullptr : &it->second;
}

Status ViewStore::RecordReuse(const Hash128& strict_signature) {
  MutexLock lock(mu_);
  auto it = views_.find(strict_signature);
  if (it == views_.end()) {
    return Status::NotFound("view not found: " + strict_signature.ToHex());
  }
  it->second.reuse_count += 1;
  total_reused_ += 1;
  return Status::OK();
}

Status ViewStore::Invalidate(const Hash128& strict_signature, double now) {
  MutexLock lock(mu_);
  auto it = views_.find(strict_signature);
  if (it == views_.end()) {
    return Status::NotFound("view not found: " + strict_signature.ToHex());
  }
  if (provenance_ != nullptr) {
    // A materializing entry dies as an abort (the spool never became a
    // view); a sealed one as an invalidation. Quarantined entries already
    // recorded their fate at quarantine time.
    const MaterializedView& view = it->second;
    if (view.state == ViewState::kMaterializing) {
      provenance_->RecordAborted(strict_signature, view.producer_job_id, now,
                                 "invalidated");
    } else if (view.state == ViewState::kSealed) {
      provenance_->RecordInvalidated(strict_signature, now, "");
    }
  }
  views_.erase(it);
  static obs::Counter& invalidations = obs::MetricsRegistry::Global().counter(
      obs::metric_names::kViewsInvalidations);
  invalidations.Increment();
  return Status::OK();
}

void ViewStore::InvalidateAll() {
  MutexLock lock(mu_);
  static obs::Counter& invalidations = obs::MetricsRegistry::Global().counter(
      obs::metric_names::kViewsInvalidations);
  invalidations.Add(views_.size());
  if (provenance_ != nullptr) {
    for (const auto& [sig, view] : views_) {
      if (view.state == ViewState::kMaterializing) {
        provenance_->RecordAborted(sig, view.producer_job_id, /*now=*/-1.0,
                                   "runtime_version_change");
      } else if (view.state == ViewState::kSealed) {
        provenance_->RecordInvalidated(sig, /*now=*/-1.0,
                                       "runtime_version_change");
      }
    }
  }
  views_.clear();
}

size_t ViewStore::PurgeExpired(double now) {
  MutexLock lock(mu_);
  size_t removed = 0;
  for (auto it = views_.begin(); it != views_.end();) {
    if (now >= it->second.expires_at ||
        it->second.state == ViewState::kExpired) {
      if (provenance_ != nullptr) {
        provenance_->RecordReclaimed(it->second.strict_signature, now);
      }
      it = views_.erase(it);
      removed += 1;
    } else {
      ++it;
    }
  }
  return removed;
}

size_t ViewStore::TotalBytes() const {
  MutexLock lock(mu_);
  size_t total = 0;
  for (const auto& [sig, view] : views_) {
    if (view.state == ViewState::kSealed) total += view.byte_size;
  }
  return total;
}

size_t ViewStore::NumLive() const {
  MutexLock lock(mu_);
  size_t n = 0;
  for (const auto& [sig, view] : views_) {
    if (view.state != ViewState::kExpired) n += 1;
  }
  return n;
}

std::vector<const MaterializedView*> ViewStore::LiveViews() const {
  MutexLock lock(mu_);
  std::vector<const MaterializedView*> out;
  for (const auto& [sig, view] : views_) {
    if (view.state == ViewState::kSealed) out.push_back(&view);
  }
  return out;
}

}  // namespace cloudviews
