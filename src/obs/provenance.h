#ifndef CLOUDVIEWS_OBS_PROVENANCE_H_
#define CLOUDVIEWS_OBS_PROVENANCE_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/hash.h"
#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"

namespace cloudviews {
namespace obs {

// Accounting rate for storage occupancy: one "cost unit" of rent per this
// many byte-seconds. Calibrated so a ~10 KB view held for a simulated day
// costs a few units — comparable to a single hit's savings, so net utility
// actually turns negative for views that stop being hit.
inline constexpr double kDefaultStorageRentPerByteSecond = 1e-8;

// Lifecycle of one materialized view, as an append-only event stream. The
// legal transitions form the state machine AuditStreams() checks:
//
//   (start) ──► candidate ──► lock-acquired ──► spool-started ──► sealed
//                   ▲              │   ▲             │              │
//                   │              ▼   │             ▼              ▼
//                   │            aborted ◄───── (write/seal fault)  hit ⟲
//                   │              │                                │
//                   └──────────────┴──── invalidated / quarantined /
//                                        reclaimed ◄────────────────┘
//
// Terminal events (aborted, invalidated, quarantined, reclaimed) re-open the
// stream: a later incarnation of the same strict signature appends a fresh
// candidate/lock-acquired and the machine runs again.
enum class ViewEventKind {
  kCandidate = 0,     // the selector published this subexpression
  kLockAcquired,      // a compiling job won the creation lock
  kSpoolStarted,      // the producing job began writing the view
  kSealed,            // early-sealed: readable by other jobs
  kAborted,           // materialization failed; entry withdrawn
  kHit,               // a compiled job answered a subtree from the view
  kInvalidated,       // inputs changed / runtime version bump / fallback
  kQuarantined,       // integrity validation failed on read
  kReclaimed,         // purged (TTL expiry or post-quarantine sweep)
};

const char* ViewEventKindName(ViewEventKind kind);

// One provenance event. `sim_time` is the simulated clock (seconds since
// day 0); events within a stream are nondecreasing in it. Payload fields are
// meaningful only for the kinds noted.
struct ViewEvent {
  ViewEventKind kind = ViewEventKind::kCandidate;
  double sim_time = 0.0;
  int64_t job_id = -1;
  // kCandidate: the selector's expected utility for the subexpression.
  double expected_utility = 0.0;
  // kSealed: materialization cost.
  uint64_t rows = 0;
  uint64_t bytes = 0;
  double build_cost = 0.0;            // spool cost (rows/bytes x CostWeights)
  double spool_latency_seconds = 0.0; // spool start -> published
  // kHit: attributed savings for this one reuse.
  double saved_cost = 0.0;            // SubtreeCost avoided - scan cost
  double rows_avoided = 0.0;          // base-table rows not scanned
  double bytes_avoided = 0.0;         // base-table bytes not scanned
  double queue_wait_seconds = 0.0;    // queue-time delta context for the hit
  // kAborted / kInvalidated / kQuarantined: cause.
  std::string detail;
};

// The full event stream for one strict signature.
struct ViewStream {
  Hash128 strict;
  Hash128 recurring;
  std::string virtual_cluster;
  std::vector<ViewEvent> events;
};

// Aggregates derived by folding one stream's events (the single source of
// truth — the report and the time-series sampler both reduce the same
// events, which is what makes the ledger "balance" by construction).
struct ViewAggregates {
  int64_t hits = 0;
  int64_t seals = 0;
  int64_t aborts = 0;
  uint64_t rows = 0;                  // rows spooled across seals
  uint64_t bytes = 0;                 // bytes spooled across seals
  double build_cost = 0.0;
  double spool_latency_seconds = 0.0;
  double attributed_savings = 0.0;    // sum of per-hit saved_cost
  double rows_avoided = 0.0;
  double bytes_avoided = 0.0;
  double storage_byte_seconds = 0.0;  // occupancy integral over sealed windows
  double storage_rent = 0.0;          // storage_byte_seconds x rent rate
  double first_event_at = 0.0;
  double last_event_at = 0.0;
  bool sealed = false;                // ever sealed
  bool live = false;                  // sealed and not yet retired at `now`
  // Net utility of the view: what it saved minus what it cost to build and
  // to keep around (the paper's per-view savings attribution).
  double NetUtility() const {
    return attributed_savings - build_cost - storage_rent;
  }
};

// Grand totals across every stream (feeds the hourly time series).
struct LedgerTotals {
  int64_t streams = 0;
  int64_t sealed_views = 0;       // streams that ever sealed
  int64_t live_views = 0;
  int64_t reused_views = 0;       // streams with at least one hit
  int64_t hits = 0;
  int64_t aborts = 0;
  uint64_t bytes_spooled = 0;
  double build_cost = 0.0;
  double attributed_savings = 0.0;
  double rows_avoided = 0.0;
  double bytes_avoided = 0.0;
  double storage_rent = 0.0;
  double net_savings = 0.0;       // savings - build cost - rent
  int64_t negative_utility_views = 0;
};

// Append-only reuse provenance ledger: one event stream per strict
// signature, recorded by the engine/view-manager/view-store/simulator as a
// view moves through its lifecycle. One instance per ReuseEngine, so
// side-by-side arms (baseline vs CloudViews) never share streams.
//
// Disabled by default: every Record* call starts with exactly one relaxed
// atomic load and touches nothing else (the Tracer discipline; verified by
// bench/micro_obs_overhead). Enable programmatically or via the
// CLOUDVIEWS_OBS_PROVENANCE environment variable (checked once, at first
// ledger construction). Recording never feeds back into engine decisions,
// so results are identical with the ledger on or off.
//
// Thread safety: recording is mutex-guarded (spool completions fire from
// executor driver threads); the gate itself is lock-free.
class ProvenanceLedger {
 public:
  ProvenanceLedger();

  ProvenanceLedger(const ProvenanceLedger&) = delete;
  ProvenanceLedger& operator=(const ProvenanceLedger&) = delete;

  // Hot-path gate for all emission sites (class-wide, like the tracer: a
  // fleet flips provenance on everywhere or nowhere).
  static bool Enabled() { return enabled_.load(std::memory_order_relaxed); }
  static void Enable() { enabled_.store(true, std::memory_order_relaxed); }
  static void Disable() { enabled_.store(false, std::memory_order_relaxed); }

  // --- Recording (no-ops when disabled) ------------------------------------
  // Pass `now` < 0 when the caller has no simulated timestamp; the event is
  // clamped to the stream's last time (streams stay monotone either way).
  // Candidate/lock events may open a stream; every other kind requires one
  // (events about views that predate enabling the ledger are dropped and
  // counted, never recorded as an illegal half-stream).
  void RecordCandidate(const Hash128& strict, const Hash128& recurring,
                       const std::string& virtual_cluster,
                       double expected_utility, double now) EXCLUDES(mu_);
  void RecordLockAcquired(const Hash128& strict, int64_t job_id, double now)
      EXCLUDES(mu_);
  void RecordSpoolStarted(const Hash128& strict, const Hash128& recurring,
                          const std::string& virtual_cluster, int64_t job_id,
                          double now) EXCLUDES(mu_);
  void RecordSealed(const Hash128& strict, int64_t job_id, double now,
                    uint64_t rows, uint64_t bytes, double build_cost,
                    double spool_latency_seconds) EXCLUDES(mu_);
  void RecordAborted(const Hash128& strict, int64_t job_id, double now,
                     const std::string& detail) EXCLUDES(mu_);
  void RecordHit(const Hash128& strict, int64_t job_id, double now,
                 double saved_cost, double rows_avoided, double bytes_avoided,
                 double queue_wait_seconds) EXCLUDES(mu_);
  void RecordInvalidated(const Hash128& strict, double now,
                         const std::string& detail) EXCLUDES(mu_);
  void RecordQuarantined(const Hash128& strict, double now,
                         const std::string& detail) EXCLUDES(mu_);
  void RecordReclaimed(const Hash128& strict, double now) EXCLUDES(mu_);

  // --- Inspection ----------------------------------------------------------

  size_t num_streams() const EXCLUDES(mu_);

  // Streams in first-recorded order (deterministic for a deterministic
  // engine run — the export order of the insights report).
  std::vector<ViewStream> Streams() const EXCLUDES(mu_);

  // Folds one stream into its aggregates. Open occupancy windows (sealed,
  // not yet retired) accrue rent up to `now`.
  static ViewAggregates Aggregate(const ViewStream& stream, double now,
                                  double rent_per_byte_second);

  LedgerTotals Totals(double now,
                      double rent_per_byte_second =
                          kDefaultStorageRentPerByteSecond) const;

  // Validates every stream against the lifecycle state machine and checks
  // event times are nondecreasing. Returns the first violation found.
  Status AuditStreams() const EXCLUDES(mu_);

  // Full ledger as JSON (streams + per-view aggregates + totals), rendered
  // via obs::JsonWriter — byte-identical across reruns of the same seed.
  std::string ExportJson(double now,
                         double rent_per_byte_second =
                             kDefaultStorageRentPerByteSecond) const;

  // Events dropped because their stream predates the ledger being enabled.
  int64_t dropped_events() const EXCLUDES(mu_);

  void Clear() EXCLUDES(mu_);

 private:
  struct StreamState {
    ViewStream stream;
    double last_time = 0.0;
  };

  // Returns the stream for `strict`, creating it if `create`; null when
  // absent and !create.
  StreamState* GetStream(const Hash128& strict, bool create) REQUIRES(mu_);
  void Append(StreamState* state, ViewEvent event, double now) REQUIRES(mu_);
  void CountDropped() REQUIRES(mu_);

  // atomic[relaxed]: single-flag enable gate, same discipline as
  // Tracer::enabled_; no ordered payload behind it.
  static std::atomic<bool> enabled_;

  mutable Mutex mu_;
  std::vector<StreamState> streams_ GUARDED_BY(mu_);  // insertion order
  std::unordered_map<Hash128, size_t, Hash128Hasher> index_ GUARDED_BY(mu_);
  int64_t dropped_ GUARDED_BY(mu_) = 0;
};

}  // namespace obs
}  // namespace cloudviews

#endif  // CLOUDVIEWS_OBS_PROVENANCE_H_
