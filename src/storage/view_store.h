#ifndef CLOUDVIEWS_STORAGE_VIEW_STORE_H_
#define CLOUDVIEWS_STORAGE_VIEW_STORE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/hash.h"
#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "obs/provenance.h"
#include "storage/table.h"

namespace cloudviews {

// State of a materialized view in stable storage.
enum class ViewState {
  kMaterializing,  // a producer job holds the creation lock; bytes in flight
  kSealed,         // available for reuse (possibly sealed early, before the
                   // producing job finished)
  kExpired,        // past TTL or invalidated; pending purge
};

const char* ViewStateName(ViewState state);

// A single materialized common subexpression. The strict signature is the
// identity; the output path encodes it (paper Figure 5: "encode the strict
// signature in output path").
struct MaterializedView {
  Hash128 strict_signature;
  Hash128 recurring_signature;
  std::string output_path;
  std::string virtual_cluster;
  TablePtr table;                // nullptr until sealed
  ViewState state = ViewState::kMaterializing;
  double created_at = 0.0;       // sim time the spool started writing
  double sealed_at = 0.0;        // sim time the view became readable
  double expires_at = 0.0;       // created_at + TTL
  size_t byte_size = 0;
  int64_t reuse_count = 0;
  int64_t producer_job_id = -1;
  // Observed statistics from the producing execution; fed back to the
  // optimizer on reuse ("update statistics from materialized view").
  uint64_t observed_rows = 0;
  uint64_t observed_bytes = 0;
  // Integrity footer written at seal time: content checksum plus row count.
  // Readers re-validate against it — a truncated or bit-rotted view file is
  // detected (and quarantined) instead of silently scanned short.
  Hash128 checksum;
  uint64_t footer_rows = 0;
  // Set once a reader validated the footer; cleared when the stored bytes
  // change underneath it (CorruptForTest).
  bool validated = false;
};

// Deterministic content checksum over a table's rows (the view file's
// integrity footer). Exposed so tests can forge/verify footers directly.
Hash128 ComputeTableChecksum(const Table& table);

// Stable storage for CloudViews outputs. Views are throwaway: they expire
// after a fixed TTL (one week in production) and are invalidated wholesale
// when their inputs or the engine's signature version change.
//
// Thread safety: every method is internally mutex-guarded, so concurrent
// reads from the tasks of a sharing window are safe. Executors read through
// ReadTable, which copies the table out under the lock. Returned
// MaterializedView pointers stay valid across concurrent inserts (the map is
// node-based) but NOT across erasure, and their table may be reset by a
// concurrent read that quarantines the view — callers that hold one while
// other threads read the store must not interleave with
// Invalidate/PurgeExpired/InvalidateAll, which the engine guarantees by
// deferring those to after a window's tasks have joined.
class ViewStore {
 public:
  // `ttl_seconds`: views expire this long after creation (paper: one week).
  explicit ViewStore(double ttl_seconds = 7 * 86400.0)
      : ttl_seconds_(ttl_seconds) {}

  ViewStore(const ViewStore&) = delete;
  ViewStore& operator=(const ViewStore&) = delete;

  // Begins materializing a view; the entry is visible but not yet readable.
  // Fails if a live (materializing or sealed) entry already exists.
  Status BeginMaterialize(const Hash128& strict_signature,
                          const Hash128& recurring_signature,
                          const std::string& virtual_cluster,
                          int64_t producer_job_id, double now)
      EXCLUDES(mu_);

  // Seals the view, making it readable. Early sealing: this may happen well
  // before the producing job completes.
  Status Seal(const Hash128& strict_signature, TablePtr contents,
              uint64_t observed_rows, uint64_t observed_bytes, double now)
      EXCLUDES(mu_);

  // Returns the sealed view for this signature, if present, not expired,
  // and its integrity footer validates. Validation runs on the first read
  // after seal (and again after the stored bytes change): a checksum or
  // row-count mismatch — or an injected `storage.view.read` fault —
  // quarantines the view (state -> kExpired, pending purge) and reports a
  // miss, so callers fall back to the base-scan plan.
  const MaterializedView* Find(const Hash128& strict_signature,
                               double now) const EXCLUDES(mu_);

  // The executor's read: the table of the view Find would return, copied
  // under the lock, or null on a miss. A pointer from Find is only safe
  // while no other thread reads the view: a concurrent read may quarantine
  // it and reset its table the moment the lock drops.
  TablePtr ReadTable(const Hash128& strict_signature, double now) const
      EXCLUDES(mu_);

  // Returns the entry regardless of state (for tests / the view manager).
  const MaterializedView* FindAny(const Hash128& strict_signature) const
      EXCLUDES(mu_);

  // Records one reuse of the view.
  Status RecordReuse(const Hash128& strict_signature) EXCLUDES(mu_);

  // Drops a specific view (e.g. invalidated by input GUID rotation).
  // `now` tags the provenance event; pass -1 when no simulated timestamp is
  // available (the event inherits the stream's last time).
  Status Invalidate(const Hash128& strict_signature, double now = -1.0)
      EXCLUDES(mu_);

  // Drops every view (signature-version bump invalidates the world).
  void InvalidateAll() EXCLUDES(mu_);

  // Purges expired entries; returns the number removed.
  size_t PurgeExpired(double now) EXCLUDES(mu_);

  // Total bytes across live sealed views (storage-budget accounting).
  size_t TotalBytes() const EXCLUDES(mu_);

  size_t NumLive() const EXCLUDES(mu_);
  int64_t total_views_created() const EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return total_created_;
  }
  int64_t total_views_reused() const EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return total_reused_;
  }
  int64_t total_views_quarantined() const EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return total_quarantined_;
  }
  double ttl_seconds() const { return ttl_seconds_; }

  std::vector<const MaterializedView*> LiveViews() const EXCLUDES(mu_);

  // Test hook: truncates the stored table to `keep_rows` rows WITHOUT
  // updating the integrity footer — the simulated "file truncated after a
  // partial write" corruption that reads must detect.
  Status CorruptForTest(const Hash128& strict_signature, size_t keep_rows)
      EXCLUDES(mu_);

  // Attaches the reuse provenance ledger this store reports lifecycle
  // events (quarantine, invalidation, reclaim) to. Not owned; may be null.
  void set_provenance(obs::ProvenanceLedger* ledger) EXCLUDES(mu_) {
    MutexLock lock(mu_);
    provenance_ = ledger;
  }

 private:
  // Find's lookup, validation and hit/miss count, under the caller's lock.
  const MaterializedView* FindLocked(const Hash128& strict_signature,
                                     double now) const REQUIRES(mu_);

  // Validates `view` against its footer, quarantining on mismatch (or on an
  // injected read fault). Returns true if the view is safe to serve. `now`
  // tags the quarantine provenance event.
  bool ValidateOnRead(MaterializedView* view, double now) const
      REQUIRES(mu_);

  double ttl_seconds_;
  // Guards every member below (the tasks of a sharing window read, and may
  // quarantine, views concurrently).
  mutable Mutex mu_;
  // `mutable`: Find() is logically const (a lookup) but quarantines corrupt
  // entries as a side effect; every caller holds the store via const
  // pointer, so bookkeeping happens through the mutable map.
  mutable std::unordered_map<Hash128, MaterializedView, Hash128Hasher> views_
      GUARDED_BY(mu_);
  int64_t total_created_ GUARDED_BY(mu_) = 0;
  int64_t total_reused_ GUARDED_BY(mu_) = 0;
  mutable int64_t total_quarantined_ GUARDED_BY(mu_) = 0;
  obs::ProvenanceLedger* provenance_ GUARDED_BY(mu_) = nullptr;
};

}  // namespace cloudviews

#endif  // CLOUDVIEWS_STORAGE_VIEW_STORE_H_
