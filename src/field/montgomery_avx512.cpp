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

// One scalar radix-2 stage: the lane kernels' fallback for q == 2,
// for stages narrower than a vector, and for builds without AVX-512.
// `twiddle_mul(x, j)` is x times the stage's j-th twiddle.
template <class TwiddleMul>
void scalar_stage(const MontgomeryField& m, u64* a, std::size_t n,
                  std::size_t len, TwiddleMul twiddle_mul) noexcept {
  const std::size_t half = len / 2;
  for (std::size_t i = 0; i < n; i += len) {
    for (std::size_t j = 0; j < half; ++j) {
      const u64 u = a[i + j];
      const u64 v = twiddle_mul(a[i + j + half], j);
      a[i + j] = m.add(u, v);
      a[i + j + half] = m.sub(u, v);
    }
  }
}

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

void MontgomeryAvx512Field::ntt_stage(u64* a, std::size_t n, std::size_t len,
                                      const u64* tw) const noexcept {
  const MontgomeryField m = m_;
#if defined(CAMELOT_AVX512_LANES)
  const std::size_t half = len / 2;
  // half >= 8 and a power of two, so the j-loop needs no tail.
  if (!m.trivial() && half >= 8) {
    const MontCtx c(m);
    for (std::size_t i = 0; i < n; i += len) {
      u64* lo = a + i;
      u64* hi = a + i + half;
      for (std::size_t j = 0; j < half; j += 8) {
        const __m512i u = load8(lo + j);
        const __m512i v = mont_mul(load8(hi + j), load8(tw + j), c);
        store8(lo + j, mod_add(u, v, c.q));
        store8(hi + j, mod_sub(u, v, c.q));
      }
    }
    return;
  }
#endif
  scalar_stage(m, a, n, len,
               [&](u64 x, std::size_t j) { return m.mul(x, tw[j]); });
}

void MontgomeryAvx512Field::ntt_stage_shoup(u64* a, std::size_t n,
                                            std::size_t len, const u64* op,
                                            const u64* qt) const noexcept {
  const MontgomeryField m = m_;
  const u64 q = m.modulus();
#if defined(CAMELOT_AVX512_LANES)
  const std::size_t half = len / 2;
  if (!m.trivial() && half >= 8) {
    const __m512i vq = _mm512_set1_epi64(static_cast<long long>(q));
    for (std::size_t i = 0; i < n; i += len) {
      u64* lo = a + i;
      u64* hi = a + i + half;
      for (std::size_t j = 0; j < half; j += 8) {
        const __m512i u = load8(lo + j);
        const __m512i v =
            shoup_mul8(load8(hi + j), load8(op + j), load8(qt + j), vq);
        store8(lo + j, mod_add(u, v, vq));
        store8(hi + j, mod_sub(u, v, vq));
      }
    }
    return;
  }
#endif
  scalar_stage(m, a, n, len, [&](u64 x, std::size_t j) {
    return shoup_mul(x, op[j], qt[j], q);
  });
}

}  // namespace camelot
