#ifndef CLOUDVIEWS_VERIFY_PLAN_VERIFIER_H_
#define CLOUDVIEWS_VERIFY_PLAN_VERIFIER_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "plan/logical_plan.h"
#include "plan/signature.h"
#include "storage/catalog.h"

namespace cloudviews {
namespace verify {

// What the PlanVerifier checks. The defaults hold for every plan the engine
// ever holds — straight out of the builder, after normalization, and after
// every optimizer rewrite. The opt-in flags add invariants that only
// normalized or optimizer-produced plans must satisfy.
struct PlanVerifyOptions {
  // When set, scan leaves are resolved against the catalog: the dataset must
  // exist and the scan's output schema must be the dataset schema (or, for
  // pruned scans, the selected column subset of it).
  const DatasetCatalog* catalog = nullptr;

  // When set, every spool's view_signature must equal the recomputed strict
  // signature of its child — a forged or stale signature (e.g. the plan
  // mutated after spool injection) is rejected. The computer must use the
  // same SignatureOptions the optimizer used.
  const SignatureComputer* signatures = nullptr;

  // Require spool/view-scan signatures to be non-zero and, when
  // `signatures` is set, every node's sealed signature (SignatureComputer::
  // Seal) to equal a fresh recomputation, so a node re-parented or given a
  // new child without being re-sealed is rejected. On for optimizer output
  // (the rules always stamp and seal); off for hand-built plans in tests
  // and benches that exercise bare spools.
  bool require_reuse_signatures = false;

  // After the optimizer has chosen join algorithms, every non-loop join must
  // carry at least one equi key (keyless joins fall back to loop). Off for
  // builder output, where the default algorithm is a placeholder.
  bool algorithms_chosen = false;

  // Invariants PlanNormalizer establishes: no filter-over-filter cascades,
  // and top-level AND conjuncts in canonical (ascending strict-hash) order,
  // so commutative predicate children have a deterministic order and equal
  // subexpressions cannot hash apart.
  bool expect_normalized = false;
};

// Validates a logical plan bottom to top: DAG acyclicity, per-kind child
// arity, column-reference resolution against child schemas, output-schema
// contracts (filter/sort/limit/UDO/spool preserve, project matches its
// expression list, join concatenates, aggregate is keys-then-aggregates,
// union branches agree), expression type consistency, reuse-operator
// signature integrity, sealed signatures included. Every failure is a Status::Corruption whose message
// names the offending operator and its path from the root.
class PlanVerifier {
 public:
  explicit PlanVerifier(PlanVerifyOptions options = {}) : options_(options) {}

  Status Verify(const LogicalOp& root) const;

  // Verify() with rule context prepended to any failure, so a violation
  // introduced by an optimizer rewrite names the rule that fired.
  Status VerifyAfterRule(const char* rule, const LogicalOp& root) const;

  const PlanVerifyOptions& options() const { return options_; }

 private:
  Status VerifyNode(const LogicalOp& node, const std::string& path,
                    std::vector<const LogicalOp*>* stack) const;
  // Compares each node's sealed signature with `expected` (ComputeAll's
  // post-order list, consumed through `*next`).
  Status VerifySealed(const LogicalOp& node, const std::string& path,
                      const std::vector<NodeSignature>& expected,
                      size_t* next) const;
  Status VerifySchemaContract(const LogicalOp& node,
                              const std::string& where) const;
  Status VerifyExpressions(const LogicalOp& node,
                           const std::string& where) const;

  PlanVerifyOptions options_;
};

}  // namespace verify
}  // namespace cloudviews

#endif  // CLOUDVIEWS_VERIFY_PLAN_VERIFIER_H_
