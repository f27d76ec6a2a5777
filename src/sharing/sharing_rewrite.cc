#include "sharing/sharing_rewrite.h"

#include <algorithm>
#include <string>
#include <unordered_map>
#include <unordered_set>

#include "optimizer/cost_model.h"

namespace cloudviews {
namespace sharing {

namespace {

struct Instance {
  size_t job = 0;
  LogicalOpPtr node;
  // The spool directly above that materializes this very subtree, if any.
  const LogicalOp* spool = nullptr;
};

struct Candidate {
  Hash128 strict;
  Hash128 recurring;
  size_t subtree_size = 0;
  std::vector<Instance> instances;  // job order, post-order within a job
};

// Every node of one plan, in post-order (the order ComputeAll lists
// signatures in).
void CollectInstances(size_t job, const LogicalOpPtr& node,
                      const LogicalOp* parent, std::vector<Instance>* out) {
  for (const LogicalOpPtr& child : node->children) {
    CollectInstances(job, child, node.get(), out);
  }
  const bool spooled = parent != nullptr &&
                       parent->kind == LogicalOpKind::kSpool &&
                       parent->view_signature == node->strict_signature;
  out->push_back({job, node, spooled ? parent : nullptr});
}

void CollectNodes(const LogicalOp* node,
                  std::unordered_set<const LogicalOp*>* out) {
  out->insert(node);
  for (const LogicalOpPtr& child : node->children) {
    CollectNodes(child.get(), out);
  }
}

bool Overlaps(const LogicalOp* node,
              const std::unordered_set<const LogicalOp*>& covered) {
  if (covered.count(node) != 0) return true;
  for (const LogicalOpPtr& child : node->children) {
    if (Overlaps(child.get(), covered)) return true;
  }
  return false;
}

void CollectSpoolSignatures(const LogicalOp* node,
                            std::vector<Hash128>* out) {
  if (node->kind == LogicalOpKind::kSpool) {
    out->push_back(node->view_signature);
  }
  for (const LogicalOpPtr& child : node->children) {
    CollectSpoolSignatures(child.get(), out);
  }
}

// `node` without its spools — a spool forwards its single child unchanged,
// so this never alters the rows produced. A path copy; a spool is
// transparent to signatures and estimates, so copied parents keep theirs.
LogicalOpPtr StripSpools(const LogicalOpPtr& node) {
  return RewritePaths(node,
                      [](const LogicalOpPtr& original, LogicalOpPtr rebuilt) {
                        return original->kind == LogicalOpKind::kSpool
                                   ? rebuilt->children[0]
                                   : rebuilt;
                      });
}

}  // namespace

RewriteResult RewriteForSharing(
    const std::vector<LogicalOpPtr*>& plans,
    const SignatureComputer& signatures, const SharingPolicy& policy,
    const std::vector<obs::DecisionSink>* decision_sinks) {
  RewriteResult result;

  // Enumerate eligible subtree instances across the window's plans.
  std::vector<Hash128> order;  // first-seen candidate order
  std::unordered_map<Hash128, Candidate, Hash128Hasher> candidates;
  std::vector<Instance> nodes;
  for (size_t job = 0; job < plans.size(); ++job) {
    nodes.clear();
    CollectInstances(job, *plans[job], nullptr, &nodes);
    for (Instance& instance : nodes) {
      const LogicalOp& node = *instance.node;
      if (!node.eligible ||
          node.subtree_size < policy.options().min_subtree_size) {
        continue;
      }
      auto [it, inserted] = candidates.try_emplace(node.strict_signature);
      Candidate& candidate = it->second;
      if (inserted) {
        candidate.strict = node.strict_signature;
        candidate.recurring = node.recurring_signature;
        candidate.subtree_size = node.subtree_size;
        order.push_back(node.strict_signature);
      }
      candidate.instances.push_back(std::move(instance));
    }
  }

  // Largest subtrees first: a bigger shared region subsumes the smaller
  // duplicates inside it. Hex tie-break keeps the pass deterministic.
  std::stable_sort(order.begin(), order.end(),
                   [&](const Hash128& a, const Hash128& b) {
                     const Candidate& ca = candidates.at(a);
                     const Candidate& cb = candidates.at(b);
                     if (ca.subtree_size != cb.subtree_size) {
                       return ca.subtree_size > cb.subtree_size;
                     }
                     return a.ToHex() < b.ToHex();
                   });

  // Claim pass: pick the instances to share, never overlapping a region
  // already claimed by a larger signature.
  struct Claim {
    const Candidate* candidate = nullptr;
    std::vector<Instance> instances;
    ShareMode mode = ShareMode::kShareNow;
  };
  std::vector<Claim> claims;
  std::vector<std::unordered_set<const LogicalOp*>> covered(plans.size());
  CostModel cost_model;
  for (const Hash128& strict : order) {
    const Candidate& candidate = candidates.at(strict);
    Claim claim;
    claim.candidate = &candidate;
    bool has_spool = false;
    for (const Instance& instance : candidate.instances) {
      if (Overlaps(instance.node.get(), covered[instance.job])) continue;
      has_spool = has_spool || instance.spool != nullptr;
      claim.instances.push_back(instance);
    }
    std::unordered_set<size_t> jobs;
    for (const Instance& instance : claim.instances) jobs.insert(instance.job);
    claim.mode = policy.Decide(strict, jobs.size(), candidate.subtree_size,
                               has_spool);
    // Record the verdict into every covered job's trace (ascending job
    // order for determinism) when >= 2 jobs actually shared the signature —
    // single-job candidates are not sharing decisions.
    if (decision_sinks != nullptr && jobs.size() >= 2) {
      std::vector<size_t> covered(jobs.begin(), jobs.end());
      std::sort(covered.begin(), covered.end());
      for (size_t job : covered) {
        const obs::DecisionSink& sink = (*decision_sinks)[job];
        if (!sink.Active()) continue;
        obs::DecisionEvent event;
        event.stage = obs::DecisionStage::kSharing;
        event.reason =
            claim.mode == ShareMode::kShareNow
                ? obs::DecisionReason::kShareNow
                : claim.mode == ShareMode::kBoth
                      ? obs::DecisionReason::kShareBoth
                      : obs::DecisionReason::kShareMaterializeOnly;
        event.node_strict = strict;
        event.candidate_strict = strict;
        event.fanout = static_cast<int64_t>(jobs.size());
        event.subtree_size = static_cast<int64_t>(candidate.subtree_size);
        event.net_utility = policy.NetUtilityFor(strict);
        sink.Record(std::move(event));
      }
    }
    if (claim.mode == ShareMode::kMaterializeOnly) continue;
    for (const Instance& instance : claim.instances) {
      CollectNodes(instance.node.get(), &covered[instance.job]);
    }
    claims.push_back(std::move(claim));
  }

  // Replacement pass: swap every claimed instance for a SharedScan, and run
  // the elected instance (spool-free) as the producer pipeline. Each plan is
  // path-copied once around its SharedScans.
  std::vector<std::unordered_map<const LogicalOp*, LogicalOpPtr>> replaced(
      plans.size());
  for (const Claim& claim : claims) {
    const Candidate& candidate = *claim.candidate;
    const Instance& elected = claim.instances.front();

    StreamPlan stream;
    stream.strict = candidate.strict;
    stream.recurring = candidate.recurring;
    stream.elected_job = elected.job;
    stream.producer_plan = StripSpools(elected.node);
    stream.fanout = claim.instances.size();
    stream.mode = claim.mode;
    stream.saved_cost = cost_model.SubtreeCost(*elected.node) *
                        static_cast<double>(claim.instances.size() - 1);

    for (const Instance& instance : claim.instances) {
      // Spools nested inside the replaced region have no executor left to
      // run them; report them so the engine withdraws the materializations.
      std::vector<Hash128> nested;
      CollectSpoolSignatures(instance.node.get(), &nested);
      for (const Hash128& sig : nested) {
        result.dropped_spools.emplace_back(instance.job, sig);
      }

      // The elected instance's detach path runs the producer's own nodes.
      LogicalOpPtr shared = LogicalOp::SharedScan(
          candidate.strict, candidate.recurring, instance.node->output_schema,
          &instance == &elected ? stream.producer_plan
                                : StripSpools(instance.node));
      shared->estimated_rows = instance.node->estimated_rows;
      shared->estimated_bytes = instance.node->estimated_bytes;
      shared->stats_from_view = true;  // inherited estimates are authoritative
      signatures.Seal(shared.get());
      const LogicalOp* replace_target = instance.node.get();
      if (instance.spool != nullptr && claim.mode == ShareMode::kShareNow) {
        // Policy says the view is not worth rebuilding: drop the spool and
        // subscribe its parent directly.
        result.dropped_spools.emplace_back(instance.job,
                                           instance.spool->view_signature);
        replace_target = instance.spool;
      }
      replaced[instance.job].emplace(replace_target, std::move(shared));
    }
    result.streams.push_back(std::move(stream));
  }
  for (size_t job = 0; job < plans.size(); ++job) {
    if (replaced[job].empty()) continue;
    *plans[job] = RewritePaths(
        *plans[job], [&](const LogicalOpPtr& original, LogicalOpPtr rebuilt) {
          auto it = replaced[job].find(original.get());
          if (it != replaced[job].end()) return it->second;
          if (rebuilt != original) signatures.Seal(rebuilt.get());
          return rebuilt;
        });
  }
  return result;
}

}  // namespace sharing
}  // namespace cloudviews
