#ifndef CLOUDVIEWS_PLAN_VIEW_INDEX_H_
#define CLOUDVIEWS_PLAN_VIEW_INDEX_H_

#include <cstddef>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/hash.h"
#include "plan/containment.h"
#include "plan/logical_plan.h"
#include "plan/signature.h"

namespace cloudviews {

// Candidate index for generalized view matching. Spooled view definitions
// are registered with their match-class key (filter-stripped skeleton hash)
// and stage-1 feature vector; the optimizer asks for the candidates in a
// query subtree's class and runs the cheap feature filter before the exact
// containment checker. This keeps matching O(candidates-in-class) feature
// comparisons instead of O(total views) exact checks.
//
// Not internally synchronized: like WorkloadRepository, callers serialize
// access (the engine mutates it only during PrepareJob / version changes).
class GeneralizedViewIndex {
 public:
  struct Entry {
    Hash128 strict;             // exact-match signature of the definition
    Hash128 recurring;
    Hash128 class_key;
    SubsumptionFeatures features;
    LogicalOpPtr definition;    // the spooled subtree (sealed, shared)
  };

  explicit GeneralizedViewIndex(SignatureOptions options = {})
      : computer_(options) {}

  // Registers a spooled view definition. Deduplicates by strict signature
  // (the same template recurs every day; one definition per instance is
  // enough to prove containment for all of them).
  void Register(const Hash128& strict, const Hash128& recurring,
                LogicalOpPtr definition);

  // All registered definitions whose match class equals `class_key`.
  const std::vector<Entry>& CandidatesFor(const Hash128& class_key) const;

  // Drops everything (runtime version changes invalidate all signatures).
  void Clear();

  // Re-keys the index under new signature options (class keys embed the
  // runtime version, so the index must hash exactly like the optimizer
  // that queries it). Clears all entries.
  void SetSignatureOptions(SignatureOptions options);

  size_t size() const { return registered_.size(); }
  const SignatureComputer& computer() const { return computer_; }

 private:
  SignatureComputer computer_;
  std::unordered_set<Hash128, Hash128Hasher> registered_;
  std::unordered_map<Hash128, std::vector<Entry>, Hash128Hasher> by_class_;
  std::vector<Entry> empty_;
};

}  // namespace cloudviews

#endif  // CLOUDVIEWS_PLAN_VIEW_INDEX_H_
