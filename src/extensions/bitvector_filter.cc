#include "extensions/bitvector_filter.h"

#include <algorithm>

namespace cloudviews {

BloomFilter::BloomFilter(size_t expected_items) {
  // ~10 bits per item gives ~1% FPR with 7 hash functions.
  size_t bits = std::max<size_t>(512, expected_items * 10);
  bits_.assign((bits + 63) / 64, 0);
}

void BloomFilter::Indices(uint64_t h, size_t out[kNumHashes]) const {
  // Double hashing: h1 + i*h2 mod m.
  uint64_t h1 = Mix64(h);
  uint64_t h2 = Mix64(h1 ^ 0x9E3779B97F4A7C15ULL) | 1;
  size_t m = bits_.size() * 64;
  for (int i = 0; i < kNumHashes; ++i) {
    out[static_cast<size_t>(i)] = (h1 + static_cast<uint64_t>(i) * h2) % m;
  }
}

namespace {

uint64_t ValueHash(const Value& value) {
  Hasher hasher;
  value.HashInto(&hasher);
  return hasher.Finish().lo;
}

// One Hasher per row of `table`, fed its key cells a column at a time.
std::vector<Hasher> KeyHashers(const Table& table,
                               const std::vector<int>& key_columns) {
  std::vector<Hasher> hashers(table.num_rows());
  for (int col : key_columns) {
    table.column(static_cast<size_t>(col))
        ->HashCellsInto(0, hashers.size(), hashers.data());
  }
  return hashers;
}

}  // namespace

void BloomFilter::Add(const Value& value) { AddHash(ValueHash(value)); }

void BloomFilter::AddHash(uint64_t key_hash) {
  size_t idx[kNumHashes];
  Indices(key_hash, idx);
  for (size_t i : idx) {
    bits_[i / 64] |= uint64_t{1} << (i % 64);
  }
  items_ += 1;
}

bool BloomFilter::MayContain(const Value& value) const {
  return MayContainHash(ValueHash(value));
}

bool BloomFilter::MayContainHash(uint64_t key_hash) const {
  size_t idx[kNumHashes];
  Indices(key_hash, idx);
  for (size_t i : idx) {
    if ((bits_[i / 64] & (uint64_t{1} << (i % 64))) == 0) return false;
  }
  return true;
}

Status BitVectorFilterStore::Register(const Hash128& build_signature,
                                      const Table& build_side,
                                      const std::vector<int>& key_columns) {
  for (int col : key_columns) {
    if (col < 0 ||
        static_cast<size_t>(col) >= build_side.schema().num_columns()) {
      return Status::InvalidArgument("key column out of range: " +
                                     std::to_string(col));
    }
  }
  auto filter = std::make_unique<BloomFilter>(build_side.num_rows());
  for (const Hasher& key : KeyHashers(build_side, key_columns)) {
    filter->AddHash(key.Finish().lo);
  }
  filters_[build_signature] = std::move(filter);
  return Status::OK();
}

const BloomFilter* BitVectorFilterStore::Find(
    const Hash128& build_signature) const {
  auto it = filters_.find(build_signature);
  return it == filters_.end() ? nullptr : it->second.get();
}

void BitVectorFilterStore::Invalidate(const Hash128& build_signature) {
  filters_.erase(build_signature);
}

size_t BitVectorFilterStore::TotalBytes() const {
  size_t total = 0;
  for (const auto& [sig, filter] : filters_) total += filter->byte_size();
  return total;
}

Result<int64_t> SemiJoinReduce(const BloomFilter& filter,
                               const Table& probe_side,
                               const std::vector<int>& probe_key_columns,
                               TablePtr* reduced) {
  for (int col : probe_key_columns) {
    if (col < 0 ||
        static_cast<size_t>(col) >= probe_side.schema().num_columns()) {
      return Status::InvalidArgument("probe key column out of range: " +
                                     std::to_string(col));
    }
  }
  std::vector<Hasher> keys = KeyHashers(probe_side, probe_key_columns);
  std::vector<uint32_t> kept;
  for (size_t i = 0; i < keys.size(); ++i) {
    if (filter.MayContainHash(keys[i].Finish().lo)) {
      kept.push_back(static_cast<uint32_t>(i));
    }
  }
  std::vector<ColumnVector> columns(probe_side.num_columns());
  for (size_t c = 0; c < columns.size(); ++c) {
    columns[c].AppendGatherFrom(*probe_side.column(c), kept);
  }
  auto out = std::make_shared<Table>(probe_side.name() + "_reduced",
                                     probe_side.schema());
  CLOUDVIEWS_RETURN_NOT_OK(out->AdoptColumns(std::move(columns)));
  *reduced = std::move(out);
  return static_cast<int64_t>(keys.size() - kept.size());
}

}  // namespace cloudviews
