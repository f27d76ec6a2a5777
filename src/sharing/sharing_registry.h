#ifndef CLOUDVIEWS_SHARING_SHARING_REGISTRY_H_
#define CLOUDVIEWS_SHARING_SHARING_REGISTRY_H_

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/hash.h"
#include "exec/shared_stream.h"

namespace cloudviews {
namespace sharing {

// Aggregate outcome of sharing windows, kept per engine and surfaced through
// the insights report next to the view-reuse savings.
struct SharingStats {
  int64_t windows = 0;            // sharing windows executed
  int64_t streams = 0;            // producer streams launched
  int64_t fanout = 0;             // subscriber scan instances wired up
  int64_t hits = 0;               // subscribers served entirely from a stream
  int64_t detaches = 0;           // subscribers that fell back mid-stream
  int64_t producer_aborts = 0;    // streams that died before completing
  int64_t batches_produced = 0;   // batches published across all streams
  uint64_t rows_shared = 0;       // rows published across all streams
  uint64_t bytes_shared = 0;      // bytes published across all streams
  // CPU cost the producer pipelines spent computing the shared subtrees
  // (each counted once per window; subscribers are only charged stream
  // reads). Lets a total-cycles comparison against unshared execution
  // include the producers' side of the ledger.
  double producer_cpu_cost = 0.0;
  // Optimizer-estimated cost (SubtreeCost) of the subscriber subtrees that
  // were answered from a stream instead of recomputed (the sharing analogue
  // of per-hit view savings).
  double saved_cost = 0.0;
};

// The producer streams of one sharing window, one per signature elected
// for sharing, and the directory its SharedScans look them up in.
//
// Threading contract: streams are created serially, on the thread that
// runs the window, before any producer starts; during the concurrent phase
// the registry is frozen and FindStream() is a read of immutable state. The
// registry must outlive every task of the window.
class SharingRegistry : public StreamDirectory {
 public:
  SharingRegistry() = default;

  SharingRegistry(const SharingRegistry&) = delete;
  SharingRegistry& operator=(const SharingRegistry&) = delete;

  // Creates (and owns) the stream for `signature`; `fanout` is the number of
  // subscriber scan instances that will be wired to it. Returns null if a
  // stream for the signature already exists.
  SharedStream* CreateStream(const Hash128& signature, size_t fanout);

  SharedStream* FindStream(const Hash128& signature) const override;

  const std::vector<std::unique_ptr<SharedStream>>& streams() const {
    return streams_;
  }

 private:
  std::vector<std::unique_ptr<SharedStream>> streams_;
  std::unordered_map<Hash128, SharedStream*, Hash128Hasher> by_signature_;
};

}  // namespace sharing
}  // namespace cloudviews

#endif  // CLOUDVIEWS_SHARING_SHARING_REGISTRY_H_
