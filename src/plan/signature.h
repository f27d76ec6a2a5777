#ifndef CLOUDVIEWS_PLAN_SIGNATURE_H_
#define CLOUDVIEWS_PLAN_SIGNATURE_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/hash.h"
#include "plan/logical_plan.h"

namespace cloudviews {

// Controls signature computation (paper sections 2.3 and 4).
struct SignatureOptions {
  // Engine/runtime version. Compilation or optimizer-representation changes
  // alter signatures in production; we model that with an explicit version
  // that participates in every hash. Bumping it invalidates all views.
  uint64_t runtime_version = 1;

  // UDOs whose library dependency chains exceed this depth are skipped for
  // reuse ("we skip any computation reuse if the dependency chain is too
  // long") — traversing them would slow compilation unacceptably.
  int max_udo_dependency_depth = 16;
};

// Per-node signature output.
struct NodeSignature {
  const LogicalOp* node = nullptr;
  // Strict signature: uniquely captures the subexpression instance,
  // including the exact inputs (dataset GUIDs) used.
  Hash128 strict;
  // Recurring signature: discards time-varying attributes (parameter
  // literal values, input GUIDs); stable across recurrences of a template.
  Hash128 recurring;
  // Reuse eligibility (false for subtrees with non-deterministic UDOs,
  // over-deep dependency chains, or spool/view internals).
  bool eligible = true;
  std::string ineligible_reason;
  // Size of this subexpression in operators; selection prefers big subtrees.
  size_t subtree_size = 1;
};

// Computes strict + recurring signatures for every node of a plan,
// bottom-up. The returned vector is in post-order (children before parents);
// the final element is the plan root.
//
// Two paths produce the same values. Seal stores a node's signature on the
// node from its children's stored ones, so a compiled plan hashes each node
// once (DESIGN.md "Sealed plans"); ComputeAll and Compute recompute from
// scratch and stay the reference that tests and verification compare with.
//
// Not internally synchronized: like the optimizer that owns one, a computer
// is used by one thread at a time.
class SignatureComputer {
 public:
  explicit SignatureComputer(SignatureOptions options = {})
      : options_(options) {}

  std::vector<NodeSignature> ComputeAll(const LogicalOp& root) const;

  // Signature of a single subtree root (convenience; recomputes children).
  NodeSignature Compute(const LogicalOp& node) const;

  // Stores `node`'s signature on it from its children's sealed signatures,
  // which must already be in place. O(node parameters).
  void Seal(LogicalOp* node) const;

  // Seals every node under `root`, children first (freshly bound plans).
  void SealTree(LogicalOp* root) const;

  // Node signatures computed, by either path, since the last call; restarts
  // the count. Compile-path cost accounting reads it; it never feeds a
  // decision.
  uint64_t TakeNodesHashed() const { return std::exchange(nodes_hashed_, 0); }

  // Match-class key for generalized (containment) matching: a strict-style
  // hash of the filter-stripped operator skeleton. Filters and spools are
  // transparent; Aggregate/Project contribute only their kind (their
  // parameters may legally diverge at the root of a subsumed pair); every
  // other operator hashes its strict parameters. Two subtrees the
  // containment checker could ever pair always share a class key, so the
  // workload repository can bucket candidates by it.
  Hash128 ComputeMatchClass(const LogicalOp& node) const;

  const SignatureOptions& options() const { return options_; }

 private:
  NodeSignature ComputeNode(const LogicalOp& node,
                            std::vector<NodeSignature>* out) const;
  template <typename ChildSig>
  NodeSignature Combine(const LogicalOp& node, const ChildSig& child_sig,
                        NodeSignature* own) const;

  SignatureOptions options_;
  mutable uint64_t nodes_hashed_ = 0;
};

// A sealed node's stored signature, as ComputeAll reports it (without the
// ineligibility reason, which is not stored).
NodeSignature SealedSignature(const LogicalOp& node);

// ComputeAll's post-order list for a sealed plan, read from the stored
// signatures without hashing anything.
std::vector<NodeSignature> SealedSignatures(const LogicalOp& root);

}  // namespace cloudviews

#endif  // CLOUDVIEWS_PLAN_SIGNATURE_H_
