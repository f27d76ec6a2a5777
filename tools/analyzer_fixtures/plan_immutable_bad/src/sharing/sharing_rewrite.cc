// Fixture: a rewrite that edits shared plan nodes in place instead of
// path-copying them. lint.py must flag every write.
#include "sharing/sharing_rewrite.h"

namespace cloudviews {

void SubscribeInPlace(const LogicalOp* parent, const LogicalOp* target,
                      LogicalOpPtr shared) {
  // Violation: casting a sealed node's constness away to edit it.
  for (LogicalOpPtr& child : const_cast<LogicalOp*>(parent)->children) {
    if (child.get() == target) child = shared;
  }
}

void ReplaceFirstChild(LogicalOp* node, LogicalOpPtr replacement) {
  // Violation: another plan may share `node`.
  node->children[0] = std::move(replacement);
}

}  // namespace cloudviews
