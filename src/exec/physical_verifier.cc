#include "exec/physical_verifier.h"

#include <string>
#include <unordered_map>

#include "verify/verify.h"

namespace cloudviews {
namespace verify {

namespace {

void CollectPlanNodes(
    const LogicalOp& node,
    std::unordered_map<const LogicalOp*, std::string>* paths,
    const std::string& path) {
  paths->emplace(&node, path);
  for (size_t i = 0; i < node.children.size(); ++i) {
    CollectPlanNodes(*node.children[i],
                     paths,
                     path.empty() ? std::to_string(i)
                                  : path + "." + std::to_string(i));
  }
}

std::string Describe(
    const std::unordered_map<const LogicalOp*, std::string>& paths,
    const LogicalOp* node) {
  auto it = paths.find(node);
  return NodePath(LogicalOpKindName(node->kind),
                  it == paths.end() ? "<not in plan>" : it->second);
}

}  // namespace

Status PhysicalVerifier::VerifyWiring(
    const LogicalOp& root, const std::vector<PhysicalOp*>& registry) {
  std::unordered_map<const LogicalOp*, std::string> paths;
  CollectPlanNodes(root, &paths, "");

  // Coverage: every physical operator maps onto plan nodes (ExportStats
  // enumerates the logical nodes it implements — several for a fused scan
  // pipeline), and every plan node is implemented by exactly one operator.
  std::unordered_map<const LogicalOp*, int> covered;
  for (const PhysicalOp* op : registry) {
    if (op == nullptr) {
      return Status::Corruption("physical wiring: null operator in registry");
    }
    if (op->logical() == nullptr) {
      return Status::Corruption(
          "physical wiring: operator with no logical node");
    }
    op->ExportStats([&](const LogicalOp* node, const OperatorStats&) {
      covered[node] += 1;
    });
  }
  for (const auto& [node, count] : covered) {
    if (paths.find(node) == paths.end()) {
      return Status::Corruption(
          "physical wiring: operator implements " +
          std::string(LogicalOpKindName(node->kind)) +
          " that is not part of the plan");
    }
    if (count != 1) {
      return Status::Corruption("physical wiring: " + Describe(paths, node) +
                                " implemented by " + std::to_string(count) +
                                " physical operators (want exactly 1)");
    }
  }
  for (const auto& [node, path] : paths) {
    if (covered.find(node) == covered.end()) {
      return Status::Corruption("physical wiring: " + Describe(paths, node) +
                                " has no physical operator");
    }
  }

  // Spools must be real spool operators (row or columnar) — fusing one away
  // would skip materialization and the view would never seal.
  for (PhysicalOp* op : registry) {
    if (op->logical()->kind == LogicalOpKind::kSpool &&
        dynamic_cast<SpoolOpIface*>(op) == nullptr) {
      return Status::Corruption("physical wiring: " +
                                Describe(paths, op->logical()) +
                                " is not backed by a spool operator");
    }
  }
  return Status::OK();
}

namespace {

// Nodes with a Limit ancestor may legitimately stop streaming before end of
// stream, so a spool below one is allowed to never seal.
void CollectBelowLimit(const LogicalOp& node, bool below_limit,
                       std::unordered_map<const LogicalOp*, bool>* out) {
  (*out)[&node] = below_limit;
  bool child_below = below_limit || node.kind == LogicalOpKind::kLimit;
  for (const LogicalOpPtr& child : node.children) {
    CollectBelowLimit(*child, child_below, out);
  }
}

}  // namespace

Status PhysicalVerifier::VerifyPostRun(
    const LogicalOp& root, const std::vector<PhysicalOp*>& registry) {
  std::unordered_map<const LogicalOp*, std::string> paths;
  CollectPlanNodes(root, &paths, "");
  std::unordered_map<const LogicalOp*, bool> below_limit;
  CollectBelowLimit(root, false, &below_limit);

  std::unordered_map<const LogicalOp*, OperatorStats> per_node;
  for (const PhysicalOp* op : registry) {
    op->ExportStats([&](const LogicalOp* node, const OperatorStats& stats) {
      per_node[node] = stats;
    });
  }

  for (PhysicalOp* op : registry) {
    const LogicalOp* node = op->logical();
    const std::string where = Describe(paths, node);

    if (auto* spool = dynamic_cast<SpoolOpIface*>(op)) {
      uint32_t fires = spool->completion_fires();
      if (fires > 1 || (fires == 0 && !below_limit[node])) {
        return Status::Corruption(
            where + ": spool completion fired " + std::to_string(fires) +
            " times (must be exactly once" +
            (fires == 0 ? "; the view never sealed)" : ")"));
      }
      auto it_spool = per_node.find(node);
      if (fires == 1 && !spool->aborted() && it_spool != per_node.end() &&
          spool->sealed_rows() != it_spool->second.rows_out) {
        return Status::Corruption(
            where + ": sealed " + std::to_string(spool->sealed_rows()) +
            " rows but streamed " +
            std::to_string(it_spool->second.rows_out));
      }
    }

    auto it = per_node.find(node);
    if (it == per_node.end()) continue;
    const OperatorStats& stats = it->second;

    if (node->kind == LogicalOpKind::kLimit && node->limit >= 0 &&
        stats.rows_out > static_cast<uint64_t>(node->limit)) {
      return Status::Corruption(where + ": emitted " +
                                std::to_string(stats.rows_out) +
                                " rows, limit is " +
                                std::to_string(node->limit));
    }

    // Row-count monotonicity for operators that cannot invent rows. ('<='
    // rather than '==' because a Limit ancestor may stop pulling early
    // while a materializing child already counted its full input.)
    switch (node->kind) {
      case LogicalOpKind::kFilter:
      case LogicalOpKind::kProject:
      case LogicalOpKind::kSort:
      case LogicalOpKind::kLimit:
      case LogicalOpKind::kUdo:
      case LogicalOpKind::kSpool: {
        auto child = per_node.find(node->children[0].get());
        if (child != per_node.end() &&
            stats.rows_out > child->second.rows_out) {
          return Status::Corruption(
              where + ": emitted " + std::to_string(stats.rows_out) +
              " rows but its child produced only " +
              std::to_string(child->second.rows_out));
        }
        break;
      }
      default:
        break;
    }
  }
  return Status::OK();
}

Status PhysicalVerifier::VerifyBatch(const LogicalOp& root,
                                     const ColumnBatch& batch) {
  const size_t arity = root.output_schema.num_columns();
  if (batch.num_columns() != arity) {
    return Status::Corruption(
        "batch invariant: root emitted a batch with " +
        std::to_string(batch.num_columns()) + " columns, plan output has " +
        std::to_string(arity));
  }
  if (!batch.unread_bytes.empty() || batch.uniform_unread_bytes != 0) {
    return Status::Corruption(
        "batch invariant: root emitted a batch with unread columns");
  }
  for (size_t c = 0; c < batch.num_columns(); ++c) {
    const ColumnPtr& col = batch.columns[c];
    if (col == nullptr) {
      return Status::Corruption("batch invariant: column " +
                                std::to_string(c) + " is null");
    }
    if (col->size() != batch.num_rows) {
      return Status::Corruption(
          "batch invariant: column " + std::to_string(c) + " holds " +
          std::to_string(col->size()) + " cells, batch claims " +
          std::to_string(batch.num_rows) + " rows");
    }
    if (!col->BitmapConsistent()) {
      return Status::Corruption("batch invariant: column " +
                                std::to_string(c) +
                                " null bitmap disagrees with its length");
    }
    if (!col->NullCountConsistent()) {
      return Status::Corruption("batch invariant: column " +
                                std::to_string(c) + " null count " +
                                std::to_string(col->null_count()) +
                                " disagrees with its bitmap");
    }
  }
  return Status::OK();
}

}  // namespace verify
}  // namespace cloudviews
