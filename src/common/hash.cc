#include "common/hash.h"

namespace cloudviews {

Hash128 HashString(std::string_view s) { return Hasher().Update(s).Finish(); }

bool Hash128::FromHex(std::string_view hex, Hash128* out) {
  if (hex.size() != 32 || out == nullptr) return false;
  uint64_t parts[2] = {0, 0};
  for (int p = 0; p < 2; ++p) {
    for (int i = 0; i < 16; ++i) {
      char c = hex[static_cast<size_t>(p * 16 + i)];
      uint64_t digit;
      if (c >= '0' && c <= '9') {
        digit = static_cast<uint64_t>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        digit = static_cast<uint64_t>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        digit = static_cast<uint64_t>(c - 'A' + 10);
      } else {
        return false;
      }
      parts[p] = (parts[p] << 4) | digit;
    }
  }
  out->hi = parts[0];
  out->lo = parts[1];
  return true;
}

std::string Hash128::ToHex() const {
  static const char* kDigits = "0123456789abcdef";
  std::string out(32, '0');
  uint64_t parts[2] = {hi, lo};
  for (int p = 0; p < 2; ++p) {
    for (int i = 0; i < 16; ++i) {
      out[p * 16 + i] = kDigits[(parts[p] >> (60 - 4 * i)) & 0xF];
    }
  }
  return out;
}

}  // namespace cloudviews
