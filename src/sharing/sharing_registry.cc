#include "sharing/sharing_registry.h"

namespace cloudviews {
namespace sharing {

SharedStream* SharingRegistry::CreateStream(const Hash128& signature,
                                            size_t fanout) {
  if (by_signature_.count(signature) != 0) return nullptr;
  streams_.push_back(std::make_unique<SharedStream>(signature, fanout));
  SharedStream* stream = streams_.back().get();
  by_signature_[signature] = stream;
  return stream;
}

SharedStream* SharingRegistry::FindStream(const Hash128& signature) const {
  auto it = by_signature_.find(signature);
  return it == by_signature_.end() ? nullptr : it->second;
}

}  // namespace sharing
}  // namespace cloudviews
