#include "plan/signature.h"

namespace cloudviews {

namespace {

// Contributes the node-local parameters (not children) to `hasher`.
// `strict` selects strict vs recurring hashing of literals and GUIDs.
void HashNodeParams(const LogicalOp& node, bool strict, Hasher* hasher) {
  hasher->Update(static_cast<uint64_t>(node.kind) + 0x5EED);
  switch (node.kind) {
    case LogicalOpKind::kScan:
      hasher->Update(std::string_view(node.dataset_name));
      hasher->Update(uint64_t{node.scan_columns.size()});
      for (int col : node.scan_columns) {
        hasher->Update(static_cast<uint64_t>(col));
      }
      if (strict) {
        // The strict signature pins the exact input version: a bulk update
        // (or GDPR forget) rotates the GUID and changes every signature above.
        hasher->Update(std::string_view(node.dataset_guid));
      }
      break;
    case LogicalOpKind::kViewScan:
      hasher->Update(node.view_signature);
      break;
    case LogicalOpKind::kSharedScan:
      hasher->Update(node.view_signature);
      break;
    case LogicalOpKind::kFilter:
      node.predicate->HashInto(hasher, strict);
      break;
    case LogicalOpKind::kProject:
      hasher->Update(uint64_t{node.projections.size()});
      for (const ExprPtr& e : node.projections) {
        e->HashInto(hasher, strict);
      }
      break;
    case LogicalOpKind::kJoin:
      hasher->Update(static_cast<uint64_t>(node.join_kind));
      hasher->Update(uint64_t{node.equi_keys.size()});
      for (const auto& [l, r] : node.equi_keys) {
        hasher->Update(static_cast<uint64_t>(l));
        hasher->Update(static_cast<uint64_t>(r));
      }
      if (node.predicate != nullptr) {
        node.predicate->HashInto(hasher, strict);
      }
      break;
    case LogicalOpKind::kAggregate:
      hasher->Update(uint64_t{node.group_by.size()});
      for (const ExprPtr& e : node.group_by) e->HashInto(hasher, strict);
      hasher->Update(uint64_t{node.aggregates.size()});
      for (const AggregateSpec& agg : node.aggregates) {
        hasher->Update(static_cast<uint64_t>(agg.func));
        hasher->Update(agg.distinct);
        if (agg.arg != nullptr) agg.arg->HashInto(hasher, strict);
      }
      break;
    case LogicalOpKind::kSort:
      hasher->Update(uint64_t{node.sort_keys.size()});
      for (const SortKey& key : node.sort_keys) {
        key.expr->HashInto(hasher, strict);
        hasher->Update(key.ascending);
      }
      break;
    case LogicalOpKind::kLimit:
      if (strict) {
        hasher->Update(static_cast<uint64_t>(node.limit));
      }
      break;
    case LogicalOpKind::kUnionAll:
      break;
    case LogicalOpKind::kUdo:
      // UDO identity is its (versioned) name; the engine cannot inspect the
      // code, so two UDOs with the same registered name are assumed equal.
      hasher->Update(std::string_view(node.udo_name));
      hasher->Update(node.udo_deterministic);
      break;
    case LogicalOpKind::kSpool:
      break;
  }
}

}  // namespace

// Signs `node` over its children's signatures as ancestors see them, which
// `child_sig(child)` supplies. Returns what `node` contributes to its parent
// and writes what ComputeAll reports for the node itself into `*own`.
//
// The two differ only for reuse-infrastructure operators, which are
// signature-TRANSPARENT: a spool's signature is its child's, and a view
// scan's is the signature of the subexpression it replaced. Ancestors
// therefore hash identically whether or not reuse machinery sits below
// them, which is what lets a bigger candidate materialize on top of a
// smaller reused view.
template <typename ChildSig>
NodeSignature SignatureComputer::Combine(const LogicalOp& node,
                                         const ChildSig& child_sig,
                                         NodeSignature* own) const {
  nodes_hashed_ += 1;
  if (node.kind == LogicalOpKind::kSpool) {
    NodeSignature inner = child_sig(*node.children[0]);
    *own = inner;
    own->node = &node;
    own->eligible = false;
    own->ineligible_reason = "reuse infrastructure operator";
    own->subtree_size = 1;  // never a reuse unit of its own
    return inner;
  }
  if (node.kind == LogicalOpKind::kViewScan ||
      node.kind == LogicalOpKind::kSharedScan) {
    NodeSignature sig;
    sig.node = &node;
    sig.strict = node.view_signature;
    sig.recurring = node.view_recurring_signature;
    // The replaced subtree was eligible (it was materialized or shared);
    // stay transparent for ancestors but do not offer the scan itself for
    // reuse.
    sig.eligible = true;
    sig.subtree_size = 1;
    *own = sig;
    own->eligible = false;
    own->ineligible_reason = "reuse infrastructure operator";
    return sig;
  }

  NodeSignature sig;
  sig.node = &node;

  Hasher strict_hasher(options_.runtime_version);
  Hasher recurring_hasher(options_.runtime_version ^ 0xA5A5A5A5ULL);

  // Children first (post-order).
  for (const LogicalOpPtr& child : node.children) {
    NodeSignature child_sig_value = child_sig(*child);
    strict_hasher.Update(child_sig_value.strict);
    recurring_hasher.Update(child_sig_value.recurring);
    sig.subtree_size += child_sig_value.subtree_size;
    if (!child_sig_value.eligible) {
      sig.eligible = false;
      sig.ineligible_reason = std::move(child_sig_value.ineligible_reason);
    }
  }

  HashNodeParams(node, /*strict=*/true, &strict_hasher);
  HashNodeParams(node, /*strict=*/false, &recurring_hasher);
  sig.strict = strict_hasher.Finish();
  sig.recurring = recurring_hasher.Finish();

  // Eligibility guards (paper section 4, "Signature correctness").
  if (node.kind == LogicalOpKind::kUdo) {
    if (!node.udo_deterministic) {
      sig.eligible = false;
      sig.ineligible_reason =
          "non-deterministic UDO: " + node.udo_name;
    } else if (node.udo_dependency_depth >
               options_.max_udo_dependency_depth) {
      sig.eligible = false;
      sig.ineligible_reason =
          "UDO dependency chain too deep: " + node.udo_name + " (" +
          std::to_string(node.udo_dependency_depth) + " > " +
          std::to_string(options_.max_udo_dependency_depth) + ")";
    }
  }
  *own = sig;
  return sig;
}

NodeSignature SignatureComputer::ComputeNode(
    const LogicalOp& node, std::vector<NodeSignature>* out) const {
  NodeSignature own;
  NodeSignature sig = Combine(
      node, [&](const LogicalOp& child) { return ComputeNode(child, out); },
      &own);
  if (out != nullptr) out->push_back(std::move(own));
  return sig;
}

std::vector<NodeSignature> SignatureComputer::ComputeAll(
    const LogicalOp& root) const {
  std::vector<NodeSignature> out;
  out.reserve(root.TreeSize());
  ComputeNode(root, &out);
  return out;
}

NodeSignature SignatureComputer::Compute(const LogicalOp& node) const {
  return ComputeNode(node, nullptr);
}

namespace {

// What a parent folds in from the sealed `child`: the transparent view
// Combine returns, rebuilt from the stored (ComputeAll-style) values.
NodeSignature Folded(const LogicalOp& child) {
  if (child.kind == LogicalOpKind::kSpool) return Folded(*child.children[0]);
  NodeSignature sig = SealedSignature(child);
  if (child.kind == LogicalOpKind::kViewScan ||
      child.kind == LogicalOpKind::kSharedScan) {
    sig.eligible = true;
  }
  return sig;
}

void AppendSealed(const LogicalOp& node, std::vector<NodeSignature>* out) {
  for (const LogicalOpPtr& child : node.children) AppendSealed(*child, out);
  out->push_back(SealedSignature(node));
}

}  // namespace

void SignatureComputer::Seal(LogicalOp* node) const {
  NodeSignature own;
  Combine(*node, Folded, &own);
  node->strict_signature = own.strict;
  node->recurring_signature = own.recurring;
  node->eligible = own.eligible;
  node->subtree_size = own.subtree_size;
}

void SignatureComputer::SealTree(LogicalOp* root) const {
  for (const LogicalOpPtr& child : root->children) SealTree(child.get());
  Seal(root);
}

NodeSignature SealedSignature(const LogicalOp& node) {
  NodeSignature sig;
  sig.node = &node;
  sig.strict = node.strict_signature;
  sig.recurring = node.recurring_signature;
  sig.eligible = node.eligible;
  sig.subtree_size = node.subtree_size;
  return sig;
}

std::vector<NodeSignature> SealedSignatures(const LogicalOp& root) {
  std::vector<NodeSignature> out;
  AppendSealed(root, &out);
  return out;
}

namespace {

void HashMatchClass(const LogicalOp& node, Hasher* hasher) {
  // Filters and spools are fully transparent: the containment checker
  // tolerates arbitrary conjunctive-filter divergence at any level, so the
  // class key must not see them at all.
  if (node.kind == LogicalOpKind::kSpool ||
      node.kind == LogicalOpKind::kFilter) {
    HashMatchClass(*node.children[0], hasher);
    return;
  }
  hasher->Update(static_cast<uint64_t>(node.kind) + 0xC1A5);
  switch (node.kind) {
    case LogicalOpKind::kAggregate:
    case LogicalOpKind::kProject:
      // Kind marker only: rollup / projection-subset pairs differ in
      // parameters yet must land in the same class. (Non-root divergence is
      // rejected by the checker, but over-grouping here only costs an extra
      // stage-1 comparison — never a missed match.)
      break;
    default:
      HashNodeParams(node, /*strict=*/true, hasher);
      break;
  }
  hasher->Update(uint64_t{node.children.size()});
  for (const LogicalOpPtr& child : node.children) {
    HashMatchClass(*child, hasher);
  }
}

}  // namespace

Hash128 SignatureComputer::ComputeMatchClass(const LogicalOp& node) const {
  Hasher hasher(options_.runtime_version ^ 0xC1A55C1A55ULL);
  HashMatchClass(node, &hasher);
  return hasher.Finish();
}

}  // namespace cloudviews
