// The AVX2 lane primitives (4 x u64) and the MontgomeryAvx2Field batch
// members: the only translation unit built with -mavx2 (see
// CMakeLists.txt). Built without it, the members run on the kernel's
// one-lane fallback.
#include "field/montgomery_lanes_kernel.hpp"

#if defined(__AVX2__)
#include <immintrin.h>

namespace camelot::lanes {
namespace {

template <>
struct Prims<Avx2Lanes> {
  using V = __m256i;
  static constexpr std::size_t kLanes = 4;

  static V load(const u64* p) noexcept {
    return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
  }
  static void store(u64* p, V v) noexcept {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), v);
  }
  static V set1(u64 x) noexcept {
    return _mm256_set1_epi64x(static_cast<long long>(x));
  }
  static V mul32(V a, V b) noexcept { return _mm256_mul_epu32(a, b); }
  static V add(V a, V b) noexcept { return _mm256_add_epi64(a, b); }
  static V sub(V a, V b) noexcept { return _mm256_sub_epi64(a, b); }
  static V shr32(V a) noexcept { return _mm256_srli_epi64(a, 32); }

  // AVX2 has no unsigned 64-bit compare, but values stay in [0, q) and
  // pre-reduction sums below 2^32, so signed vpcmpgtq does the job.
  static V reduce_2q(V r, V q) noexcept {
    const V lt = _mm256_cmpgt_epi64(q, r);  // r < q
    return _mm256_sub_epi64(r, _mm256_andnot_si256(lt, q));
  }
  static V mod_sub(V a, V b, V q) noexcept {
    const V lt = _mm256_cmpgt_epi64(b, a);  // a < b: wrap, add q back
    return _mm256_add_epi64(_mm256_sub_epi64(a, b), _mm256_and_si256(lt, q));
  }

  // The short stages (h = 2, 1) run inside one vector: lane l is the
  // low leg of its butterfly when l & h is clear, else the high leg, and
  // its partner is lane l ^ h (a fixed vpermq). Stage 1's only twiddle
  // is one, so it skips the product; stage 2's lane twiddles are entry
  // 0 (one) but in lane 3, which carries w_4.
  struct Short { V w2, wq2; };
  static V stage2_lanes(const u64* t) noexcept {
    const auto one = static_cast<long long>(t[0]);
    return _mm256_setr_epi64x(one, one, one, static_cast<long long>(t[2]));
  }
  template <bool kShoup>
  static Short short_twiddles(NttTwiddles tw) noexcept {
    return {stage2_lanes(tw.op),
            kShoup ? stage2_lanes(tw.qt) : _mm256_setzero_si256()};
  }

  // The sums of a short stage: low legs x + partner, high legs
  // partner - x (a 32-bit-element blend picks the legs). DIF
  // multiplies by the lane twiddles after them, DIT before them.
  template <int kH>
  static V butterfly(V x, V q) noexcept {
    const V p = _mm256_permute4x64_epi64(x, kH == 1 ? 0xB1 : 0x4E);
    return _mm256_blend_epi32(mod_add<Prims>(x, p, q), mod_sub(p, x, q),
                              kH == 1 ? 0xCC : 0xF0);
  }
  template <bool kShoup>
  static V dif_short(V x, const Short& s, const Ctx<Prims>& c) noexcept {
    x = tw_mul<kShoup>(butterfly<2>(x, c.q), s.w2, s.wq2, c);
    return butterfly<1>(x, c.q);
  }
  template <bool kShoup>
  static V dit_short(V x, const Short& s, const Ctx<Prims>& c) noexcept {
    x = butterfly<1>(x, c.q);
    return butterfly<2>(tw_mul<kShoup>(x, s.w2, s.wq2, c), c.q);
  }
};

}  // namespace
}  // namespace camelot::lanes

#endif

namespace camelot {
CAMELOT_LANE_INSTANTIATE(Avx2Lanes)
}  // namespace camelot
