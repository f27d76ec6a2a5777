// Fixture: node construction in src/plan/ may fill in children. lint.py
// must stay silent here.
#include "plan/logical_plan.h"

namespace cloudviews {

LogicalOpPtr LogicalOp::WithChildren(std::vector<LogicalOpPtr> children) const {
  auto copy = std::make_shared<LogicalOp>(*this);
  copy->children = std::move(children);
  return copy;
}

}  // namespace cloudviews
