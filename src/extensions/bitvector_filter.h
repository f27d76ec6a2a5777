#ifndef CLOUDVIEWS_EXTENSIONS_BITVECTOR_FILTER_H_
#define CLOUDVIEWS_EXTENSIONS_BITVECTOR_FILTER_H_

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/hash.h"
#include "common/status.h"
#include "plan/logical_plan.h"
#include "storage/table.h"

namespace cloudviews {

// Bit-vector (Bloom) filter reuse — the section 5.6 sketch: "during query
// execution, a spool operator could be used for generating the bit-vector
// filter from the right child of a hash join and reuse it in subsequent
// queries" for semi-join reduction.

// A classic partitioned Bloom filter over join-key values.
class BloomFilter {
 public:
  // `expected_items` sizes the filter for ~1% false positives.
  explicit BloomFilter(size_t expected_items);

  void Add(const Value& value);
  // Adds a key by its hash: the low word of a Hasher fed the key's cells in
  // key-column order.
  void AddHash(uint64_t key_hash);

  // May return true for values never added (false positives); never returns
  // false for added values.
  bool MayContain(const Value& value) const;
  bool MayContainHash(uint64_t key_hash) const;

  size_t bit_count() const { return bits_.size() * 64; }
  size_t byte_size() const { return bits_.size() * 8; }
  int64_t items_added() const { return items_; }

 private:
  static constexpr int kNumHashes = 7;
  void Indices(uint64_t h, size_t out[kNumHashes]) const;

  std::vector<uint64_t> bits_;
  int64_t items_ = 0;
};

// Registry of bit-vector filters keyed by the strict signature of the join
// build side (the subexpression that produced the keys). A later query with
// the same build subexpression can pre-filter its probe side without
// recomputing the build.
class BitVectorFilterStore {
 public:
  BitVectorFilterStore() = default;

  // Builds and registers a filter from the rows of `build_side` on
  // `key_columns`. Overwrites any previous filter for the signature.
  Status Register(const Hash128& build_signature, const Table& build_side,
                  const std::vector<int>& key_columns);

  const BloomFilter* Find(const Hash128& build_signature) const;

  // Drops a filter (input data changed).
  void Invalidate(const Hash128& build_signature);

  size_t size() const { return filters_.size(); }
  size_t TotalBytes() const;

 private:
  std::unordered_map<Hash128, std::unique_ptr<BloomFilter>, Hash128Hasher>
      filters_;
};

// Applies a registered bit-vector filter to the probe side of `join` (an
// equi hash join): semi-join reduction. Returns the number of probe rows
// eliminated, and writes the reduced probe table to *reduced.
Result<int64_t> SemiJoinReduce(const BloomFilter& filter,
                               const Table& probe_side,
                               const std::vector<int>& probe_key_columns,
                               TablePtr* reduced);

}  // namespace cloudviews

#endif  // CLOUDVIEWS_EXTENSIONS_BITVECTOR_FILTER_H_
