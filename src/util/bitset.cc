#include "util/bitset.h"

#include <algorithm>

namespace hcpath {

void DynamicBitset::Resize(size_t num_bits) {
  num_bits_ = num_bits;
  words_.assign((num_bits + 63) / 64, 0);
}

void DynamicBitset::Reset() {
  std::fill(words_.begin(), words_.end(), 0);
}

size_t DynamicBitset::Count() const {
  size_t c = 0;
  for (uint64_t w : words_) c += static_cast<size_t>(__builtin_popcountll(w));
  return c;
}

bool DynamicBitset::Any() const {
  for (uint64_t w : words_) {
    if (w != 0) return true;
  }
  return false;
}

}  // namespace hcpath
