#ifndef CLOUDVIEWS_SHARING_SHARING_REWRITE_H_
#define CLOUDVIEWS_SHARING_SHARING_REWRITE_H_

#include <cstddef>
#include <utility>
#include <vector>

#include "common/hash.h"
#include "obs/decision.h"
#include "plan/logical_plan.h"
#include "plan/signature.h"
#include "sharing/sharing_policy.h"

namespace cloudviews {
namespace sharing {

// One producer stream the rewrite decided to launch.
struct StreamPlan {
  Hash128 strict;
  Hash128 recurring;
  // The elected instance's subtree with its spools stripped (a path copy);
  // executed once by the window's producer task, publishing batches to
  // every subscriber.
  LogicalOpPtr producer_plan;
  // Index (into the window's job list) of the job whose instance was
  // elected as the producer source.
  size_t elected_job = 0;
  // SharedScan instances wired to this stream across all jobs.
  size_t fanout = 0;
  ShareMode mode = ShareMode::kShareNow;
  // Optimizer-estimated cost the subscribers avoid recomputing: the shared
  // subtree costs SubtreeCost once (the producer) instead of `fanout` times.
  double saved_cost = 0.0;
};

struct RewriteResult {
  std::vector<StreamPlan> streams;
  // Spool materializations that disappeared from a job's plan — nested
  // inside a replaced subtree, or stripped by a kShareNow decision. Nothing
  // will seal these; the engine must withdraw them (AbandonJob) so the
  // creation locks release and the half-registered entries drop.
  std::vector<std::pair<size_t, Hash128>> dropped_spools;
};

// The shared-subexpression scheduler's plan rewrite. Scans the sealed,
// optimized plans of one window's jobs for eligible subtrees whose strict
// signature is covered by >= 2 in-flight jobs, elects one producer per
// signature (largest subtrees first; overlapping or nested regions are never
// shared twice), and replaces every instance with a SharedScan subscribed to
// the producer's stream. Each SharedScan carries a spool-free fallback of the
// subtree it replaced (for the elected instance, the producer plan itself),
// so a subscriber can always detach and answer the query alone. No node is
// written: `*plans[i]` becomes a sealed path copy.
//
// Spools interact per the policy decision:
//  - kBoth: a spool directly above an instance stays in its job's plan, fed
//    by the SharedScan — the single shared execution doubles as the view
//    writer, inside the lock-holder's own job;
//  - kShareNow: that spool is stripped (and reported in dropped_spools);
//  - kMaterializeOnly: the signature is not shared at all.
// Spools nested strictly inside a replaced subtree always drop (the
// producer plan is spool-free), and are reported likewise.
//
// Deterministic: iteration follows job order and post-order signature
// enumeration; ties in candidate ordering break on the signature hex.
//
// `decision_sinks` (optional; parallel to `plans`) receives one kSharing
// DecisionEvent per covered job for every policy verdict on a signature at
// least two jobs cover, carrying the fan-out / subtree-size / net-utility
// inputs the policy consulted. Recording never alters the rewrite.
RewriteResult RewriteForSharing(
    const std::vector<LogicalOpPtr*>& plans,
    const SignatureComputer& signatures, const SharingPolicy& policy,
    const std::vector<obs::DecisionSink>* decision_sinks = nullptr);

}  // namespace sharing
}  // namespace cloudviews

#endif  // CLOUDVIEWS_SHARING_SHARING_REWRITE_H_
