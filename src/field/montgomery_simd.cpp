// AVX2 implementations of the MontgomeryAvx2Field batch kernels.
//
// This is the only translation unit compiled with -mavx2 (see
// CMakeLists.txt), so it deliberately includes as little as possible:
// everything it instantiates is confined to this TU, and every entry
// point is reached only after FieldOps runtime dispatch has confirmed
// the CPU can run it. Each entry point runs its lane loop under
// #if defined(__AVX2__) and finishes with the scalar loop, which is
// also the whole kernel for q == 2 and on targets built without AVX2,
// so the link never breaks.
//
// Vector arithmetic notes (4 lanes of u64, q < 2^31):
//  * AVX2 has no 64x64 multiplier, but operands below 2^31 fit one
//    32-bit word, so every product is a single vpmuludq.
//  * REDC by 2^64 runs as two chained REDC-32 steps (word-by-word
//    Montgomery). Each step needs one vpmuludq for m_i = t*(-q^{-1})
//    mod 2^32 (vpmuludq reads the low 32 bits of each lane, so no
//    masking) and one for m_i*q; with the initial product that is 5
//    vpmuludq per 4 lanes. All intermediate sums stay below 2^64:
//    t < 2^62, m_i*q < 2^63.
//  * Values stay in [0, q) and pre-reduction sums below 2^32, so
//    signed vpcmpgtq implements unsigned compares.
#include "field/montgomery_simd.hpp"

#include "field/ntt_passes.hpp"
#include "field/shoup.hpp"

#if defined(__AVX2__)
#include <immintrin.h>
#endif

namespace camelot {

namespace {

#if defined(__AVX2__)

struct MontCtx {
  __m256i q;
  __m256i ninv;  // -q^{-1} mod 2^64 (low 32 bits: -q^{-1} mod 2^32)

  explicit MontCtx(const MontgomeryField& m)
      : q(_mm256_set1_epi64x(static_cast<long long>(m.modulus()))),
        ninv(_mm256_set1_epi64x(static_cast<long long>(m.neg_q_inv()))) {}
};

inline __m256i load4(const u64* p) noexcept {
  return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
}

inline void store4(u64* p, __m256i v) noexcept {
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), v);
}

// [0, 2q) -> [0, q).
inline __m256i reduce_2q(__m256i r, __m256i q) noexcept {
  const __m256i lt = _mm256_cmpgt_epi64(q, r);  // r < q
  return _mm256_sub_epi64(r, _mm256_andnot_si256(lt, q));
}

// One REDC-32 step: t -> (t + (t * -q^{-1} mod 2^32) * q) >> 32, an
// exact division because the low word cancels.
inline __m256i redc32_step(__m256i t, const MontCtx& c) noexcept {
  const __m256i m = _mm256_mul_epu32(t, c.ninv);  // low 32 bits are m_i
  const __m256i mq = _mm256_mul_epu32(m, c.q);
  return _mm256_srli_epi64(_mm256_add_epi64(t, mq), 32);
}

// Montgomery product of domain values: a * b * R^{-1} mod q.
inline __m256i mont_mul(__m256i a, __m256i b, const MontCtx& c) noexcept {
  const __m256i t = _mm256_mul_epu32(a, b);  // a, b < q < 2^31
  const __m256i r = redc32_step(redc32_step(t, c), c);
  return reduce_2q(r, c.q);
}

// Shoup product a * w mod q for canonical twiddle w with quotient
// wq = floor(w * 2^64 / q) (field/shoup.hpp). a < q < 2^31 fits one
// 32-bit word, so hi = floor(a * wq / 2^64) needs just two vpmuludq
// partials (a * lo32(wq) and a * hi32(wq)), hi < a < 2^31 makes hi*q
// a single exact vpmuludq, and a*w is a single exact vpmuludq — 4
// multiplies per 4 lanes against 5 for the REDC-32 chain.
inline __m256i shoup_mul4(__m256i a, __m256i w, __m256i wq,
                          __m256i q) noexcept {
  const __m256i p0 = _mm256_mul_epu32(a, wq);
  const __m256i p1 = _mm256_mul_epu32(a, _mm256_srli_epi64(wq, 32));
  // p1 + (p0 >> 32) < 2^64: p1 <= (2^31-1)(2^32-1), p0 >> 32 < 2^31.
  const __m256i hi = _mm256_srli_epi64(
      _mm256_add_epi64(p1, _mm256_srli_epi64(p0, 32)), 32);
  const __m256i r =
      _mm256_sub_epi64(_mm256_mul_epu32(a, w), _mm256_mul_epu32(hi, q));
  return reduce_2q(r, q);
}

inline __m256i mod_add(__m256i a, __m256i b, __m256i q) noexcept {
  return reduce_2q(_mm256_add_epi64(a, b), q);
}

inline __m256i mod_sub(__m256i a, __m256i b, __m256i q) noexcept {
  const __m256i lt = _mm256_cmpgt_epi64(b, a);  // a < b: wrap, add q back
  return _mm256_add_epi64(_mm256_sub_epi64(a, b), _mm256_and_si256(lt, q));
}

#endif  // defined(__AVX2__)

}  // namespace

void MontgomeryAvx2Field::mul_vec(const u64* a, const u64* b, u64* out,
                                  std::size_t n) const noexcept {
  const MontgomeryField m = m_;
  std::size_t i = 0;
#if defined(__AVX2__)
  if (!m.trivial()) {
    const MontCtx c(m);
    for (; i + 4 <= n; i += 4) {
      store4(out + i, mont_mul(load4(a + i), load4(b + i), c));
    }
  }
#endif
  for (; i < n; ++i) out[i] = m.mul(a[i], b[i]);
}

void MontgomeryAvx2Field::scale_vec(const u64* a, u64 s, u64* out,
                                    std::size_t n) const noexcept {
  const MontgomeryField m = m_;
  std::size_t i = 0;
#if defined(__AVX2__)
  if (!m.trivial()) {
    const MontCtx c(m);
    const __m256i vs = _mm256_set1_epi64x(static_cast<long long>(s));
    for (; i + 4 <= n; i += 4) {
      store4(out + i, mont_mul(load4(a + i), vs, c));
    }
  }
#endif
  for (; i < n; ++i) out[i] = m.mul(a[i], s);
}

void MontgomeryAvx2Field::addmul_inplace(u64* r, u64 s, const u64* b,
                                         std::size_t n) const noexcept {
  const MontgomeryField m = m_;
  std::size_t i = 0;
#if defined(__AVX2__)
  if (!m.trivial()) {
    const MontCtx c(m);
    const __m256i vs = _mm256_set1_epi64x(static_cast<long long>(s));
    for (; i + 4 <= n; i += 4) {
      const __m256i p = mont_mul(vs, load4(b + i), c);
      store4(r + i, mod_add(load4(r + i), p, c.q));
    }
  }
#endif
  for (; i < n; ++i) r[i] = m.add(r[i], m.mul(s, b[i]));
}

void MontgomeryAvx2Field::submul_inplace(u64* r, u64 s, const u64* b,
                                         std::size_t n) const noexcept {
  const MontgomeryField m = m_;
  std::size_t i = 0;
#if defined(__AVX2__)
  if (!m.trivial()) {
    const MontCtx c(m);
    const __m256i vs = _mm256_set1_epi64x(static_cast<long long>(s));
    for (; i + 4 <= n; i += 4) {
      const __m256i p = mont_mul(vs, load4(b + i), c);
      store4(r + i, mod_sub(load4(r + i), p, c.q));
    }
  }
#endif
  for (; i < n; ++i) r[i] = m.sub(r[i], m.mul(s, b[i]));
}

void MontgomeryAvx2Field::add_inplace(u64* r, const u64* b,
                                      std::size_t n) const noexcept {
  const MontgomeryField m = m_;
  std::size_t i = 0;
#if defined(__AVX2__)
  const __m256i q = _mm256_set1_epi64x(static_cast<long long>(m.modulus()));
  for (; i + 4 <= n; i += 4) {
    store4(r + i, mod_add(load4(r + i), load4(b + i), q));
  }
#endif
  for (; i < n; ++i) r[i] = m.add(r[i], b[i]);
}

void MontgomeryAvx2Field::sub_from_scalar(u64 x, const u64* a, u64* out,
                                          std::size_t n) const noexcept {
  const MontgomeryField m = m_;
  std::size_t i = 0;
#if defined(__AVX2__)
  const __m256i q = _mm256_set1_epi64x(static_cast<long long>(m.modulus()));
  const __m256i vx = _mm256_set1_epi64x(static_cast<long long>(x));
  for (; i + 4 <= n; i += 4) {
    store4(out + i, mod_sub(vx, load4(a + i), q));
  }
#endif
  for (; i < n; ++i) out[i] = m.sub(x, a[i]);
}

u64 MontgomeryAvx2Field::dot(const u64* a, const u64* b,
                             std::size_t n) const noexcept {
  const MontgomeryField m = m_;
  u64 acc = 0;
  std::size_t i = 0;
#if defined(__AVX2__)
  if (!m.trivial()) {
    const MontCtx c(m);
    __m256i vacc = _mm256_setzero_si256();
    for (; i + 4 <= n; i += 4) {
      vacc = mod_add(vacc, mont_mul(load4(a + i), load4(b + i), c), c.q);
    }
    alignas(32) u64 lanes[4];
    _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), vacc);
    acc = m.add(m.add(lanes[0], lanes[1]), m.add(lanes[2], lanes[3]));
  }
#endif
  for (; i < n; ++i) acc = m.add(acc, m.mul(a[i], b[i]));
  return acc;
}

namespace {

#if defined(__AVX2__)

// The twiddle product of a pass flavour (field/ntt_passes.hpp): Shoup
// with canonical twiddle w and quotient wq, or REDC with the
// Montgomery-domain twiddle w (wq unused).
template <bool kShoup>
inline __m256i tw_mul(__m256i x, __m256i w, __m256i wq,
                      const MontCtx& c) noexcept {
  if constexpr (kShoup) {
    return shoup_mul4(x, w, wq, c.q);
  } else {
    return mont_mul(x, w, c);
  }
}

// Four quotients from entry i on (zero for REDC, whose qt is null).
template <bool kShoup>
inline __m256i load_qt(const u64* qt, std::size_t i) noexcept {
  if constexpr (kShoup) {
    return load4(qt + i);
  } else {
    return _mm256_setzero_si256();
  }
}

// The two short stages (h = 1, 2) run inside one vector: lane l is
// the low leg of its butterfly when l & h is clear and the high leg
// otherwise, and its partner is lane l ^ h (a fixed vpermq). Stage 1's
// only twiddle is one, so it skips the product; stage 2's lane
// twiddles are entry 0 (one) everywhere but lane 3, which carries w_4.
inline __m256i stage2_lanes(const u64* t) noexcept {
  return _mm256_setr_epi64x(static_cast<long long>(t[0]),
                            static_cast<long long>(t[0]),
                            static_cast<long long>(t[0]),
                            static_cast<long long>(t[2]));
}

// Partner swap and high-leg blend (a 32-bit-element blend mask) for
// h = 1 and h = 2.
template <int kH>
inline __m256i partner(__m256i x) noexcept {
  if constexpr (kH == 1) {
    return _mm256_permute4x64_epi64(x, 0xB1);
  } else {
    return _mm256_permute4x64_epi64(x, 0x4E);
  }
}

template <int kH>
inline __m256i blend_high(__m256i low, __m256i high) noexcept {
  if constexpr (kH == 1) {
    return _mm256_blend_epi32(low, high, 0xCC);
  } else {
    return _mm256_blend_epi32(low, high, 0xF0);
  }
}

// The sums of a short stage: low legs x + partner, high legs
// partner - x. DIF multiplies by the lane twiddles after them, DIT
// before them.
template <int kH>
inline __m256i short_butterfly(__m256i x, __m256i q) noexcept {
  const __m256i p = partner<kH>(x);
  return blend_high<kH>(mod_add(x, p, q), mod_sub(p, x, q));
}

// Whole passes for n >= 4: the stages with h >= 4 walk vector-wide
// blocks, and the two short stages run fused in registers, one load
// and one store per four words.
template <bool kShoup>
void dif_lanes(u64* a, std::size_t n, NttTwiddles tw,
               const MontCtx& c) noexcept {
  for (std::size_t h = n / 2; h >= 4; h /= 2) {
    const u64* op = tw.op + (h - 1);
    for (std::size_t i = 0; i < n; i += 2 * h) {
      u64* lo = a + i;
      u64* hi = lo + h;
      for (std::size_t j = 0; j < h; j += 4) {
        const __m256i u = load4(lo + j);
        const __m256i v = load4(hi + j);
        store4(lo + j, mod_add(u, v, c.q));
        store4(hi + j, tw_mul<kShoup>(mod_sub(u, v, c.q), load4(op + j),
                                      load_qt<kShoup>(tw.qt, h - 1 + j), c));
      }
    }
  }
  const __m256i w2 = stage2_lanes(tw.op);
  const __m256i wq2 = kShoup ? stage2_lanes(tw.qt) : _mm256_setzero_si256();
  for (std::size_t i = 0; i < n; i += 4) {
    __m256i x = load4(a + i);
    x = tw_mul<kShoup>(short_butterfly<2>(x, c.q), w2, wq2, c);
    x = short_butterfly<1>(x, c.q);
    store4(a + i, x);
  }
}

template <bool kShoup>
void dit_lanes(u64* a, std::size_t n, NttTwiddles tw,
               const MontCtx& c) noexcept {
  const __m256i w2 = stage2_lanes(tw.op);
  const __m256i wq2 = kShoup ? stage2_lanes(tw.qt) : _mm256_setzero_si256();
  for (std::size_t i = 0; i < n; i += 4) {
    __m256i x = load4(a + i);
    x = short_butterfly<1>(x, c.q);
    x = short_butterfly<2>(tw_mul<kShoup>(x, w2, wq2, c), c.q);
    store4(a + i, x);
  }
  for (std::size_t h = 4; h < n; h *= 2) {
    const u64* op = tw.op + (h - 1);
    for (std::size_t i = 0; i < n; i += 2 * h) {
      u64* lo = a + i;
      u64* hi = lo + h;
      for (std::size_t j = 0; j < h; j += 4) {
        const __m256i u = load4(lo + j);
        const __m256i v = tw_mul<kShoup>(load4(hi + j), load4(op + j),
                                         load_qt<kShoup>(tw.qt, h - 1 + j), c);
        store4(lo + j, mod_add(u, v, c.q));
        store4(hi + j, mod_sub(u, v, c.q));
      }
    }
  }
}

#endif  // defined(__AVX2__)

}  // namespace

void MontgomeryAvx2Field::ntt_dif(u64* a, std::size_t n,
                                  NttTwiddles tw) const noexcept {
  const MontgomeryField m = m_;
#if defined(__AVX2__)
  if (!m.trivial() && n >= 4) {
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

void MontgomeryAvx2Field::ntt_dit(u64* a, std::size_t n,
                                  NttTwiddles tw) const noexcept {
  const MontgomeryField m = m_;
#if defined(__AVX2__)
  if (!m.trivial() && n >= 4) {
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
