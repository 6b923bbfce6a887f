// AVX-512 implementations of the MontgomeryAvx512Field batch kernels.
//
// This translation unit is compiled with -mavx512f -mavx512dq (see
// CMakeLists.txt) and nothing else in the build is, so every 512-bit
// instruction in the binary is confined here. Entry points are
// reached only after FieldOps runtime dispatch has confirmed the CPU
// can run them. Each entry point runs its lane loop under the ISA
// guard and finishes with the scalar loop, which is also the whole
// kernel for q == 2 and on targets built without the extensions, so
// the link never breaks.
//
// Vector arithmetic notes (8 lanes of u64, q < 2^31):
//  * The REDC-32 chain and the Shoup butterfly are the widened twins
//    of the AVX2 sequences (field/montgomery_simd.cpp): 5 vpmuludq
//    per 8 Montgomery products, 4 per 8 Shoup products.
//  * Unsigned compares are native (vpcmpuq -> mask), so the [0, 2q)
//    fold and the subtract wrap use mask-sub/mask-add directly
//    instead of the AVX2 signed-compare workaround.
#include "field/montgomery_avx512.hpp"

#include "field/ntt_passes.hpp"
#include "field/shoup.hpp"

#if defined(__AVX512F__) && defined(__AVX512DQ__)
#define CAMELOT_AVX512_LANES 1
#include <immintrin.h>
#endif

#if defined(__GNUC__) && !defined(__clang__)
// GCC defines the unmasked AVX-512 intrinsics in terms of
// _mm512_undefined_epi32 (a self-initialized local), which
// -Wmaybe-uninitialized flags at -O2. False positive; the value is
// fully overwritten by the masked builtin.
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif

namespace camelot {

namespace {

#if defined(CAMELOT_AVX512_LANES)

struct MontCtx {
  __m512i q;
  __m512i ninv;  // -q^{-1} mod 2^64 (low 32 bits: -q^{-1} mod 2^32)

  explicit MontCtx(const MontgomeryField& m)
      : q(_mm512_set1_epi64(static_cast<long long>(m.modulus()))),
        ninv(_mm512_set1_epi64(static_cast<long long>(m.neg_q_inv()))) {}
};

inline __m512i load8(const u64* p) noexcept {
  return _mm512_loadu_si512(reinterpret_cast<const void*>(p));
}

inline void store8(u64* p, __m512i v) noexcept {
  _mm512_storeu_si512(reinterpret_cast<void*>(p), v);
}

// [0, 2q) -> [0, q).
inline __m512i reduce_2q(__m512i r, __m512i q) noexcept {
  return _mm512_mask_sub_epi64(r, _mm512_cmpge_epu64_mask(r, q), r, q);
}

// One REDC-32 step: t -> (t + (t * -q^{-1} mod 2^32) * q) >> 32, an
// exact division because the low word cancels.
inline __m512i redc32_step(__m512i t, const MontCtx& c) noexcept {
  const __m512i m = _mm512_mul_epu32(t, c.ninv);  // low 32 bits are m_i
  const __m512i mq = _mm512_mul_epu32(m, c.q);
  return _mm512_srli_epi64(_mm512_add_epi64(t, mq), 32);
}

// Montgomery product of domain values: a * b * R^{-1} mod q.
inline __m512i mont_mul(__m512i a, __m512i b, const MontCtx& c) noexcept {
  const __m512i t = _mm512_mul_epu32(a, b);  // a, b < q < 2^31
  const __m512i r = redc32_step(redc32_step(t, c), c);
  return reduce_2q(r, c.q);
}

// Shoup product a * w mod q for canonical twiddle w with quotient
// wq = floor(w * 2^64 / q) (field/shoup.hpp): a < q < 2^31 fits one
// 32-bit word, so the mulhi needs two vpmuludq partials and hi*q /
// a*w are single exact vpmuludq — 4 multiplies per 8 lanes.
inline __m512i shoup_mul8(__m512i a, __m512i w, __m512i wq,
                          __m512i q) noexcept {
  const __m512i p0 = _mm512_mul_epu32(a, wq);
  const __m512i p1 = _mm512_mul_epu32(a, _mm512_srli_epi64(wq, 32));
  // p1 + (p0 >> 32) < 2^64: p1 <= (2^31-1)(2^32-1), p0 >> 32 < 2^31.
  const __m512i hi =
      _mm512_srli_epi64(_mm512_add_epi64(p1, _mm512_srli_epi64(p0, 32)), 32);
  const __m512i r =
      _mm512_sub_epi64(_mm512_mul_epu32(a, w), _mm512_mul_epu32(hi, q));
  return reduce_2q(r, q);
}

inline __m512i mod_add(__m512i a, __m512i b, __m512i q) noexcept {
  return reduce_2q(_mm512_add_epi64(a, b), q);
}

inline __m512i mod_sub(__m512i a, __m512i b, __m512i q) noexcept {
  const __m512i d = _mm512_sub_epi64(a, b);
  // a < b: the subtraction wrapped, add q back.
  return _mm512_mask_add_epi64(d, _mm512_cmplt_epu64_mask(a, b), d, q);
}

#endif  // defined(CAMELOT_AVX512_LANES)

}  // namespace

void MontgomeryAvx512Field::mul_vec(const u64* a, const u64* b, u64* out,
                                    std::size_t n) const noexcept {
  const MontgomeryField m = m_;
  std::size_t i = 0;
#if defined(CAMELOT_AVX512_LANES)
  if (!m.trivial()) {
    const MontCtx c(m);
    for (; i + 8 <= n; i += 8) {
      store8(out + i, mont_mul(load8(a + i), load8(b + i), c));
    }
  }
#endif
  for (; i < n; ++i) out[i] = m.mul(a[i], b[i]);
}

void MontgomeryAvx512Field::scale_vec(const u64* a, u64 s, u64* out,
                                      std::size_t n) const noexcept {
  const MontgomeryField m = m_;
  std::size_t i = 0;
#if defined(CAMELOT_AVX512_LANES)
  if (!m.trivial()) {
    const MontCtx c(m);
    const __m512i vs = _mm512_set1_epi64(static_cast<long long>(s));
    for (; i + 8 <= n; i += 8) {
      store8(out + i, mont_mul(load8(a + i), vs, c));
    }
  }
#endif
  for (; i < n; ++i) out[i] = m.mul(a[i], s);
}

void MontgomeryAvx512Field::addmul_inplace(u64* r, u64 s, const u64* b,
                                           std::size_t n) const noexcept {
  const MontgomeryField m = m_;
  std::size_t i = 0;
#if defined(CAMELOT_AVX512_LANES)
  if (!m.trivial()) {
    const MontCtx c(m);
    const __m512i vs = _mm512_set1_epi64(static_cast<long long>(s));
    for (; i + 8 <= n; i += 8) {
      const __m512i p = mont_mul(vs, load8(b + i), c);
      store8(r + i, mod_add(load8(r + i), p, c.q));
    }
  }
#endif
  for (; i < n; ++i) r[i] = m.add(r[i], m.mul(s, b[i]));
}

void MontgomeryAvx512Field::submul_inplace(u64* r, u64 s, const u64* b,
                                           std::size_t n) const noexcept {
  const MontgomeryField m = m_;
  std::size_t i = 0;
#if defined(CAMELOT_AVX512_LANES)
  if (!m.trivial()) {
    const MontCtx c(m);
    const __m512i vs = _mm512_set1_epi64(static_cast<long long>(s));
    for (; i + 8 <= n; i += 8) {
      const __m512i p = mont_mul(vs, load8(b + i), c);
      store8(r + i, mod_sub(load8(r + i), p, c.q));
    }
  }
#endif
  for (; i < n; ++i) r[i] = m.sub(r[i], m.mul(s, b[i]));
}

void MontgomeryAvx512Field::add_inplace(u64* r, const u64* b,
                                        std::size_t n) const noexcept {
  const MontgomeryField m = m_;
  std::size_t i = 0;
#if defined(CAMELOT_AVX512_LANES)
  const __m512i q = _mm512_set1_epi64(static_cast<long long>(m.modulus()));
  for (; i + 8 <= n; i += 8) {
    store8(r + i, mod_add(load8(r + i), load8(b + i), q));
  }
#endif
  for (; i < n; ++i) r[i] = m.add(r[i], b[i]);
}

void MontgomeryAvx512Field::sub_from_scalar(u64 x, const u64* a, u64* out,
                                            std::size_t n) const noexcept {
  const MontgomeryField m = m_;
  std::size_t i = 0;
#if defined(CAMELOT_AVX512_LANES)
  const __m512i q = _mm512_set1_epi64(static_cast<long long>(m.modulus()));
  const __m512i vx = _mm512_set1_epi64(static_cast<long long>(x));
  for (; i + 8 <= n; i += 8) {
    store8(out + i, mod_sub(vx, load8(a + i), q));
  }
#endif
  for (; i < n; ++i) out[i] = m.sub(x, a[i]);
}

u64 MontgomeryAvx512Field::dot(const u64* a, const u64* b,
                               std::size_t n) const noexcept {
  const MontgomeryField m = m_;
  u64 acc = 0;
  std::size_t i = 0;
#if defined(CAMELOT_AVX512_LANES)
  if (!m.trivial()) {
    const MontCtx c(m);
    __m512i vacc = _mm512_setzero_si512();
    for (; i + 8 <= n; i += 8) {
      vacc = mod_add(vacc, mont_mul(load8(a + i), load8(b + i), c), c.q);
    }
    alignas(64) u64 lanes[8];
    _mm512_store_si512(reinterpret_cast<void*>(lanes), vacc);
    acc = m.add(m.add(m.add(lanes[0], lanes[1]), m.add(lanes[2], lanes[3])),
                m.add(m.add(lanes[4], lanes[5]), m.add(lanes[6], lanes[7])));
  }
#endif
  for (; i < n; ++i) acc = m.add(acc, m.mul(a[i], b[i]));
  return acc;
}

namespace {

#if defined(CAMELOT_AVX512_LANES)

// The twiddle product of a pass flavour (field/ntt_passes.hpp): Shoup
// with canonical twiddle w and quotient wq, or REDC with the
// Montgomery-domain twiddle w (wq unused).
template <bool kShoup>
inline __m512i tw_mul(__m512i x, __m512i w, __m512i wq,
                      const MontCtx& c) noexcept {
  if constexpr (kShoup) {
    return shoup_mul8(x, w, wq, c.q);
  } else {
    return mont_mul(x, w, c);
  }
}

// Eight quotients from entry i on (zero for REDC, whose qt is null).
template <bool kShoup>
inline __m512i load_qt(const u64* qt, std::size_t i) noexcept {
  if constexpr (kShoup) {
    return load8(qt + i);
  } else {
    return _mm512_setzero_si512();
  }
}

// A short stage (h = 1, 2, 4) runs inside one vector: lane l is the
// low leg of its butterfly when l & h is clear and the high leg
// otherwise, and its partner is lane l ^ h. A high leg's lane twiddle
// is w_k^(l & (h-1)); a low leg's is entry 0, the field's one, so the
// full-width product leaves it unchanged. Stage 1's only twiddle is
// one, so its butterflies skip the product.
struct ShortStage {
  __m512i partner;
  __mmask8 high;
  __m512i w, wq;
};

inline ShortStage short_stage(NttTwiddles tw, unsigned h) noexcept {
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

// The sums of one short stage: low legs x + partner, high legs
// partner - x. DIF multiplies by the lane twiddles after them, DIT
// before them.
inline __m512i short_butterfly(__m512i x, const ShortStage& s,
                               __m512i q) noexcept {
  const __m512i p = _mm512_permutexvar_epi64(s.partner, x);
  return _mm512_mask_blend_epi64(s.high, mod_add(x, p, q), mod_sub(p, x, q));
}

// Whole passes for n >= 8: the stages with h >= 8 walk vector-wide
// blocks, and the three short stages run fused in registers, one load
// and one store per eight words.
template <bool kShoup>
void dif_lanes(u64* a, std::size_t n, NttTwiddles tw,
               const MontCtx& c) noexcept {
  for (std::size_t h = n / 2; h >= 8; h /= 2) {
    const u64* op = tw.op + (h - 1);
    for (std::size_t i = 0; i < n; i += 2 * h) {
      u64* lo = a + i;
      u64* hi = lo + h;
      for (std::size_t j = 0; j < h; j += 8) {
        const __m512i u = load8(lo + j);
        const __m512i v = load8(hi + j);
        store8(lo + j, mod_add(u, v, c.q));
        store8(hi + j, tw_mul<kShoup>(mod_sub(u, v, c.q), load8(op + j),
                                      load_qt<kShoup>(tw.qt, h - 1 + j), c));
      }
    }
  }
  const ShortStage s4 = short_stage(tw, 4);
  const ShortStage s2 = short_stage(tw, 2);
  const ShortStage s1 = short_stage(tw, 1);
  for (std::size_t i = 0; i < n; i += 8) {
    __m512i x = load8(a + i);
    x = tw_mul<kShoup>(short_butterfly(x, s4, c.q), s4.w, s4.wq, c);
    x = tw_mul<kShoup>(short_butterfly(x, s2, c.q), s2.w, s2.wq, c);
    x = short_butterfly(x, s1, c.q);
    store8(a + i, x);
  }
}

template <bool kShoup>
void dit_lanes(u64* a, std::size_t n, NttTwiddles tw,
               const MontCtx& c) noexcept {
  const ShortStage s1 = short_stage(tw, 1);
  const ShortStage s2 = short_stage(tw, 2);
  const ShortStage s4 = short_stage(tw, 4);
  for (std::size_t i = 0; i < n; i += 8) {
    __m512i x = load8(a + i);
    x = short_butterfly(x, s1, c.q);
    x = short_butterfly(tw_mul<kShoup>(x, s2.w, s2.wq, c), s2, c.q);
    x = short_butterfly(tw_mul<kShoup>(x, s4.w, s4.wq, c), s4, c.q);
    store8(a + i, x);
  }
  for (std::size_t h = 8; h < n; h *= 2) {
    const u64* op = tw.op + (h - 1);
    for (std::size_t i = 0; i < n; i += 2 * h) {
      u64* lo = a + i;
      u64* hi = lo + h;
      for (std::size_t j = 0; j < h; j += 8) {
        const __m512i u = load8(lo + j);
        const __m512i v = tw_mul<kShoup>(load8(hi + j), load8(op + j),
                                         load_qt<kShoup>(tw.qt, h - 1 + j), c);
        store8(lo + j, mod_add(u, v, c.q));
        store8(hi + j, mod_sub(u, v, c.q));
      }
    }
  }
}

#endif  // defined(CAMELOT_AVX512_LANES)

}  // namespace

void MontgomeryAvx512Field::ntt_dif(u64* a, std::size_t n,
                                    NttTwiddles tw) const noexcept {
  const MontgomeryField m = m_;
#if defined(CAMELOT_AVX512_LANES)
  if (!m.trivial() && n >= 8) {
    const MontCtx c(m);
    if (tw.qt != nullptr) {
      dif_lanes<true>(a, n, tw, c);
    } else {
      dif_lanes<false>(a, n, tw, c);
    }
    return;
  }
#endif
  ntt_dif_scalar(m, a, n, tw);
}

void MontgomeryAvx512Field::ntt_dit(u64* a, std::size_t n,
                                    NttTwiddles tw) const noexcept {
  const MontgomeryField m = m_;
#if defined(CAMELOT_AVX512_LANES)
  if (!m.trivial() && n >= 8) {
    const MontCtx c(m);
    if (tw.qt != nullptr) {
      dit_lanes<true>(a, n, tw, c);
    } else {
      dit_lanes<false>(a, n, tw, c);
    }
    return;
  }
#endif
  ntt_dit_scalar(m, a, n, tw);
}

}  // namespace camelot
