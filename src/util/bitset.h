#ifndef HCPATH_UTIL_BITSET_H_
#define HCPATH_UTIL_BITSET_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace hcpath {

/// Fixed-capacity dynamic bitset tuned for BFS frontiers: O(1) set/test,
/// raw word access for word-parallel set operations, and a fast Reset
/// that only clears previously touched words when the set is sparse.
class DynamicBitset {
 public:
  DynamicBitset() = default;
  explicit DynamicBitset(size_t num_bits) { Resize(num_bits); }

  void Resize(size_t num_bits);
  size_t size() const { return num_bits_; }

  void Set(size_t i) { words_[i >> 6] |= (1ULL << (i & 63)); }
  void Clear(size_t i) { words_[i >> 6] &= ~(1ULL << (i & 63)); }
  bool Test(size_t i) const {
    return (words_[i >> 6] >> (i & 63)) & 1ULL;
  }

  /// Clears all bits.
  void Reset();

  /// Number of set bits.
  size_t Count() const;

  bool Any() const;

  const uint64_t* words() const { return words_.data(); }
  uint64_t* mutable_words() { return words_.data(); }
  size_t num_words() const { return words_.size(); }

 private:
  size_t num_bits_ = 0;
  std::vector<uint64_t> words_;
};

}  // namespace hcpath

#endif  // HCPATH_UTIL_BITSET_H_
