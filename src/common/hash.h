#ifndef CLOUDVIEWS_COMMON_HASH_H_
#define CLOUDVIEWS_COMMON_HASH_H_

#include <bit>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

namespace cloudviews {

// 128-bit hash value used for subexpression signatures. Signatures must be
// stable across process runs (they are persisted in the workload repository
// and compared across "days" of the simulation), so we use a fixed algorithm
// rather than std::hash.
struct Hash128 {
  uint64_t hi = 0;
  uint64_t lo = 0;

  bool operator==(const Hash128& other) const = default;
  bool operator<(const Hash128& other) const {
    return hi != other.hi ? hi < other.hi : lo < other.lo;
  }

  bool IsZero() const { return hi == 0 && lo == 0; }

  // 32 hex characters, zero padded; used in view output paths ("encode the
  // strict signature in the output path" per the paper's Figure 5).
  std::string ToHex() const;

  // Parses the ToHex form. Returns false on malformed input.
  static bool FromHex(std::string_view hex, Hash128* out);
};

// 64-bit mix used for hash-table style hashing of runtime values.
inline uint64_t Mix64(uint64_t x) {
  x ^= x >> 33;
  x *= 0xFF51AFD7ED558CCDULL;
  x ^= x >> 33;
  x *= 0xC4CEB9FE1A85EC53ULL;
  x ^= x >> 33;
  return x;
}

// 64-bit hashing of hash-table keys (join and aggregate keys), which need
// only that equal keys collide: nothing outside one operator sees these
// values. A key hash starts at 0 and folds one word per key cell, in column
// order; a string cell's word is HashBytes64 of its bytes.
inline uint64_t MixKeyWord(uint64_t hash, uint64_t word) {
  return Mix64(hash ^ word);
}

// Distinct strings of one length get distinct values up to 8 bytes; a
// longer string folds 8-byte words, its last word overlapping the one
// before.
inline uint64_t HashBytes64(std::string_view bytes) {
  const unsigned char* p = reinterpret_cast<const unsigned char*>(bytes.data());
  const size_t n = bytes.size();
  auto load64 = [](const unsigned char* q) {
    uint64_t w;
    std::memcpy(&w, q, 8);
    return w;
  };
  auto load32 = [](const unsigned char* q) {
    uint32_t w;
    std::memcpy(&w, q, 4);
    return uint64_t{w};
  };
  // Bijective in `word` for a fixed `h`.
  auto fold = [](uint64_t h, uint64_t word) {
    h = (h ^ word) * 0x9E3779B185EBCA87ULL;
    return h ^ (h >> 29);
  };
  uint64_t h = 0xC2B2AE3D27D4EB4FULL ^ n;
  if (n >= 8) {
    for (size_t i = 0; i + 8 < n; i += 8) h = fold(h, load64(p + i));
    return fold(h, load64(p + n - 8));
  }
  if (n >= 4) return fold(h, load32(p) | load32(p + n - 4) << 32);
  if (n == 0) return h;
  const uint64_t word =
      uint64_t{p[0]} | uint64_t{p[n / 2]} << 8 | uint64_t{p[n - 1]} << 16;
  return fold(h, word);
}

// Incremental 128-bit hasher (xxhash-inspired mixing over two 64-bit lanes).
// Usage: Hasher h; h.Update(...); ... Hash128 sig = h.Finish();
// Every update and Finish are inline so that the columnar engine's
// column-at-a-time hash loops compile to straight-line code.
class Hasher {
 public:
  Hasher() = default;
  explicit Hasher(uint64_t seed) : hi_(kInitHi ^ seed), lo_(kInitLo + seed) {}

  // Eight bytes at a time, a short tail tagged with its length, then the
  // total length.
  Hasher& Update(std::string_view bytes) {
    uint64_t word = 0;
    size_t i = 0;
    for (; i + 8 <= bytes.size(); i += 8) {
      std::memcpy(&word, bytes.data() + i, 8);
      Update(word);
    }
    if (i < bytes.size()) {
      word = 0;
      std::memcpy(&word, bytes.data() + i, bytes.size() - i);
      // Tag the tail with its length so "ab"+"c" != "a"+"bc".
      Update(word ^ (uint64_t{bytes.size() - i} << 56));
    }
    return Update(uint64_t{bytes.size()});
  }
  // Without this overload a string literal would take the bool overload via
  // the pointer->bool standard conversion, silently hashing all strings alike.
  Hasher& Update(const char* s) { return Update(std::string_view(s)); }
  Hasher& Update(uint64_t value) {
    hi_ = Rotl(hi_ ^ (value * kPrime1), 31) * kPrime2;
    lo_ = Rotl(lo_ + (value ^ kPrime3), 27) * kPrime1 + kPrime2;
    length_ += 8;
    return *this;
  }
  Hasher& Update(int64_t value) { return Update(static_cast<uint64_t>(value)); }
  Hasher& Update(int value) { return Update(static_cast<uint64_t>(value)); }
  // Canonicalizes -0.0 to 0.0 so logically equal literals hash equally.
  Hasher& Update(double value) {
    return Update(std::bit_cast<uint64_t>(value == 0.0 ? 0.0 : value));
  }
  Hasher& Update(bool value) { return Update(uint64_t{value ? 1u : 2u}); }
  Hasher& Update(const Hash128& h) { return Update(h.hi).Update(h.lo); }

  Hash128 Finish() const {
    Hash128 out;
    out.hi = Mix64(hi_ ^ (length_ * kPrime1));
    out.lo = Mix64(lo_ + (length_ ^ kPrime2) + out.hi);
    return out;
  }

 private:
  static constexpr uint64_t kInitHi = 0x9E3779B97F4A7C15ULL;
  static constexpr uint64_t kInitLo = 0xC2B2AE3D27D4EB4FULL;
  static constexpr uint64_t kPrime1 = 0x9E3779B185EBCA87ULL;
  static constexpr uint64_t kPrime2 = 0xC2B2AE3D27D4EB4FULL;
  static constexpr uint64_t kPrime3 = 0x165667B19E3779F9ULL;

  static uint64_t Rotl(uint64_t x, int r) { return (x << r) | (x >> (64 - r)); }

  uint64_t hi_ = kInitHi;
  uint64_t lo_ = kInitLo;
  uint64_t length_ = 0;
};

// Convenience one-shot hash of a string.
Hash128 HashString(std::string_view s);

struct Hash128Hasher {
  size_t operator()(const Hash128& h) const {
    return static_cast<size_t>(Mix64(h.hi ^ Mix64(h.lo)));
  }
};

}  // namespace cloudviews

#endif  // CLOUDVIEWS_COMMON_HASH_H_
