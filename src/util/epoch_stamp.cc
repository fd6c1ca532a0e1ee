#include "util/epoch_stamp.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define HCPATH_HAVE_X86 1
#endif

namespace hcpath {

namespace {

// ---------------------------------------------------------------------------
// Batched membership kernels. The scalar variant is the oracle on every
// platform; the AVX2 variant gathers 8 stamps per iteration and must be
// bit-equivalent (tests/kernel_equivalence_test.cc cross-checks them).
// Both take the raw table view (stamp array, size, epoch) so the dispatch
// decision sits in one place and the kernels stay branch-light.
// ---------------------------------------------------------------------------

void ScalarTestBatch(const uint32_t* stamp, size_t n, uint32_t epoch,
                     const uint32_t* vs, size_t m, uint8_t* hits) {
  size_t i = 0;
  for (; i + 4 <= m; i += 4) {
    hits[i] = vs[i] < n && stamp[vs[i]] == epoch;
    hits[i + 1] = vs[i + 1] < n && stamp[vs[i + 1]] == epoch;
    hits[i + 2] = vs[i + 2] < n && stamp[vs[i + 2]] == epoch;
    hits[i + 3] = vs[i + 3] < n && stamp[vs[i + 3]] == epoch;
  }
  for (; i < m; ++i) hits[i] = vs[i] < n && stamp[vs[i]] == epoch;
}

#ifdef HCPATH_HAVE_X86

// Unsigned 32-bit a < b via the signed comparator: flip the sign bit of
// both operands. Out-of-bounds lanes are masked OFF the gather, so they
// never touch memory; their result lanes read the zero source, and the
// epoch is never 0, so they compare "not marked" — exactly Contains().
// The vertex ids themselves may exceed INT32_MAX (ids go up to 2^32 - 2);
// only in-bounds lanes feed the gather's sign-extended index, and the
// dispatch below keeps tables at or under 2^31 slots, so every gathered
// index is non-negative.

__attribute__((target("avx2"))) void Avx2TestBatch(const uint32_t* stamp,
                                                   size_t n, uint32_t epoch,
                                                   const uint32_t* vs,
                                                   size_t m, uint8_t* hits) {
  const __m256i flip = _mm256_set1_epi32(INT32_MIN);
  const __m256i bound =
      _mm256_set1_epi32(static_cast<int32_t>(static_cast<uint32_t>(n)) ^
                        INT32_MIN);
  const __m256i vepoch = _mm256_set1_epi32(static_cast<int32_t>(epoch));
  const __m256i zero = _mm256_setzero_si256();
  size_t i = 0;
  for (; i + 8 <= m; i += 8) {
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(vs + i));
    const __m256i in_bounds =
        _mm256_cmpgt_epi32(bound, _mm256_xor_si256(v, flip));
    const __m256i got = _mm256_mask_i32gather_epi32(
        zero, reinterpret_cast<const int*>(stamp), v, in_bounds, 4);
    const __m256i hit = _mm256_cmpeq_epi32(got, vepoch);
    // Narrow the eight 0/-1 lanes to eight 0/1 bytes in lane order:
    // packs(lo, hi) interleaves halves as [lo0..lo3, hi0..hi3], and the
    // saturating packs preserve 0/1 exactly. One 8-byte store per vector
    // beats extracting lanes through a scalar movemask loop.
    const __m256i ones = _mm256_and_si256(hit, _mm256_set1_epi32(1));
    const __m128i packed16 =
        _mm_packs_epi32(_mm256_castsi256_si128(ones),
                        _mm256_extracti128_si256(ones, 1));
    const __m128i packed8 = _mm_packs_epi16(packed16, packed16);
    _mm_storel_epi64(reinterpret_cast<__m128i*>(hits + i), packed8);
  }
  for (; i < m; ++i) hits[i] = vs[i] < n && stamp[vs[i]] == epoch;
}

#endif  // HCPATH_HAVE_X86

// Dispatch state. The env var is latched once; the test hook overrides it
// at runtime so one process can exercise (and benchmark) both kernels.
std::atomic<int> g_force_scalar_override{-1};

bool EnvForceScalar() {
  static const bool forced = [] {
    const char* e = std::getenv("HCPATH_FORCE_SCALAR");
    return e != nullptr && e[0] != '\0' &&
           !(e[0] == '0' && e[1] == '\0');
  }();
  return forced;
}

bool SimdSupported() {
#ifdef HCPATH_HAVE_X86
  static const bool supported = __builtin_cpu_supports("avx2");
  return supported;
#else
  return false;
#endif
}

inline bool UseSimd(size_t table_size) {
  // Tables past 2^31 slots would sign-flip the gather index; no dataset in
  // the paper comes near that, but the scalar kernel stays correct there.
  if (table_size > static_cast<size_t>(INT32_MAX)) return false;
  const int o = g_force_scalar_override.load(std::memory_order_relaxed);
  if (o > 0) return false;
  if (o == 0) return SimdSupported();
  return SimdSupported() && !EnvForceScalar();
}

}  // namespace

void EpochStampTable::TestBatch(std::span<const uint32_t> vs,
                                uint8_t* hits) const {
#ifdef HCPATH_HAVE_X86
  if (vs.size() >= 8 && UseSimd(stamp_.size())) {
    Avx2TestBatch(stamp_.data(), stamp_.size(), epoch_, vs.data(), vs.size(),
                  hits);
    return;
  }
#endif
  ScalarTestBatch(stamp_.data(), stamp_.size(), epoch_, vs.data(), vs.size(),
                  hits);
}

bool EpochStampTable::UsingSimd() { return UseSimd(0); }

void EpochStampTable::TestOnlyForceScalar(int mode) {
  g_force_scalar_override.store(mode, std::memory_order_relaxed);
}

void EpochStampTable::Grow(uint32_t v) {
  // Geometric growth keeps repeated high-id marks amortized O(1); new
  // slots start at stamp 0, which no live epoch equals.
  const size_t want = static_cast<size_t>(v) + 1;
  stamp_.resize(std::max(want, stamp_.size() * 2), 0);
}

void EpochStampTable::WrapEpoch() {
  // Reached only every 2^32 clears: erase all stale stamps so no epoch
  // value can ever re-match a mark from the previous cycle.
  std::fill(stamp_.begin(), stamp_.end(), 0u);
  epoch_ = 1;
}

void EpochStampTable::TestOnlySetEpoch(uint32_t epoch) {
  HCPATH_CHECK(epoch != 0);
  epoch_ = epoch;
}

}  // namespace hcpath
