// The AVX-512 lane primitives (8 x u64) and the MontgomeryAvx512Field
// batch members: the only translation unit built with -mavx512f
// -mavx512dq (see CMakeLists.txt). Built without them, the members run
// on the kernel's one-lane fallback.
#include "field/montgomery_lanes_kernel.hpp"

#if defined(__AVX512F__) && defined(__AVX512DQ__)
#include <immintrin.h>

// GCC's unmasked AVX-512 intrinsics start from a self-initialized
// _mm512_undefined_epi32, which -Wmaybe-uninitialized flags at -O2.
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"

namespace camelot::lanes {
namespace {

template <>
struct Prims<Avx512Lanes> {
  using V = __m512i;
  static constexpr std::size_t kLanes = 8;

  static V load(const u64* p) noexcept {
    return _mm512_loadu_si512(reinterpret_cast<const void*>(p));
  }
  static void store(u64* p, V v) noexcept {
    _mm512_storeu_si512(reinterpret_cast<void*>(p), v);
  }
  static V set1(u64 x) noexcept {
    return _mm512_set1_epi64(static_cast<long long>(x));
  }
  static V mul32(V a, V b) noexcept { return _mm512_mul_epu32(a, b); }
  static V add(V a, V b) noexcept { return _mm512_add_epi64(a, b); }
  static V sub(V a, V b) noexcept { return _mm512_sub_epi64(a, b); }
  static V shr32(V a) noexcept { return _mm512_srli_epi64(a, 32); }

  // Unsigned compares are native (vpcmpuq -> mask), so both folds are
  // a masked subtract or add.
  static V reduce_2q(V r, V q) noexcept {
    return _mm512_mask_sub_epi64(r, _mm512_cmpge_epu64_mask(r, q), r, q);
  }
  static V mod_sub(V a, V b, V q) noexcept {
    const V d = _mm512_sub_epi64(a, b);  // a < b wraps: add q back
    return _mm512_mask_add_epi64(d, _mm512_cmplt_epu64_mask(a, b), d, q);
  }

  // A short stage (h = 4, 2, 1) runs inside one vector: lane l is the
  // low leg of its butterfly when l & h is clear, else the high leg,
  // and its partner is lane l ^ h. A high leg's twiddle is
  // w_k^(l & (h-1)), a low leg's entry 0 (one, so the product leaves it
  // alone). Stage 1's only twiddle is one: it skips the product.
  struct Stage {
    V partner;
    __mmask8 high;
    V w, wq;
  };
  static Stage stage(NttTwiddles tw, unsigned h) noexcept {
    alignas(64) u64 idx[8], w[8], wq[8];
    unsigned high = 0;
    for (unsigned l = 0; l < 8; ++l) {
      const std::size_t e = (l & h) != 0 ? h - 1 + (l & (h - 1)) : 0;
      idx[l] = l ^ h;
      w[l] = tw.op[e];
      wq[l] = tw.qt != nullptr ? tw.qt[e] : 0;
      if ((l & h) != 0) high |= 1u << l;
    }
    return {_mm512_load_si512(idx), static_cast<__mmask8>(high),
            _mm512_load_si512(w), _mm512_load_si512(wq)};
  }
  struct Short { Stage s4, s2, s1; };
  template <bool kShoup>
  static Short short_twiddles(NttTwiddles tw) noexcept {
    return {stage(tw, 4), stage(tw, 2), stage(tw, 1)};
  }

  // The sums of one short stage: low legs x + partner, high legs
  // partner - x. DIF multiplies by the lane twiddles after them, DIT
  // before them.
  static V butterfly(V x, const Stage& s, V q) noexcept {
    const V p = _mm512_permutexvar_epi64(s.partner, x);
    return _mm512_mask_blend_epi64(s.high, mod_add<Prims>(x, p, q),
                                   mod_sub(p, x, q));
  }
  template <bool kShoup>
  static V dif_short(V x, const Short& s, const Ctx<Prims>& c) noexcept {
    x = tw_mul<kShoup>(butterfly(x, s.s4, c.q), s.s4.w, s.s4.wq, c);
    x = tw_mul<kShoup>(butterfly(x, s.s2, c.q), s.s2.w, s.s2.wq, c);
    return butterfly(x, s.s1, c.q);
  }
  template <bool kShoup>
  static V dit_short(V x, const Short& s, const Ctx<Prims>& c) noexcept {
    x = butterfly(x, s.s1, c.q);
    x = butterfly(tw_mul<kShoup>(x, s.s2.w, s.s2.wq, c), s.s2, c.q);
    return butterfly(tw_mul<kShoup>(x, s.s4.w, s.s4.wq, c), s.s4, c.q);
  }
};

}  // namespace
}  // namespace camelot::lanes

#endif

namespace camelot {
CAMELOT_LANE_INSTANTIATE(Avx512Lanes)
}  // namespace camelot
