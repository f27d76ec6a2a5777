// Fixture: a rewrite that path-copies. lint.py must stay silent here.
#include "sharing/sharing_rewrite.h"

namespace cloudviews {

LogicalOpPtr Subscribe(const LogicalOpPtr& root, const LogicalOp* target,
                       const LogicalOpPtr& shared) {
  return RewritePaths(root, [&](const LogicalOpPtr& original,
                                LogicalOpPtr rebuilt) {
    return original.get() == target ? shared : rebuilt;
  });
}

}  // namespace cloudviews
