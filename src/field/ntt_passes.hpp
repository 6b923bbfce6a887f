// Radix-2 NTT passes shared by every Montgomery backend.
//
// A transform of length n = 2^lg is lg butterfly stages. Stage k
// (1 <= k <= lg) works on blocks of 2^k elements, pairing a[j] with
// a[j+h] (h = 2^(k-1), 0 <= j < h) under the twiddle w_k^j of the
// primitive 2^k-th root w_k. The library runs the stages in two
// orders and never needs a third:
//
//  * DIF (decimation in frequency, Gentleman–Sande), stages lg..1:
//      a[j], a[j+h] <- a[j] + a[j+h], (a[j] - a[j+h]) * w_k^j
//    maps natural-order coefficients to the bit-reversed spectrum.
//  * DIT (decimation in time, Cooley–Tukey), stages 1..lg:
//      a[j], a[j+h] <- a[j] + w_k^j * a[j+h], a[j] - w_k^j * a[j+h]
//    maps a bit-reversed spectrum to natural-order values.
//
// DIT with the inverse twiddles undoes DIF with the forward ones up to
// the factor n, so a convolution runs DIF, DIF, pointwise product, DIT
// and never permutes (poly/ntt.hpp states which API sees which order).
//
// The scalar passes here are the reference the lane backends
// (field/montgomery_simd.cpp, field/montgomery_avx512.cpp) reproduce
// word for word and fall back to; field arithmetic is exact and every
// value stays canonical in [0, q), so every backend and both twiddle
// flavours return the same words.
#pragma once

#include <cstddef>

#include "field/montgomery.hpp"
#include "field/shoup.hpp"

namespace camelot {

// The twiddles of one pass, concatenated in the NttTables layout:
// stage k's 2^(k-1) entries w_k^j start at op[2^(k-1) - 1], so entry
// 0 (stage 1's only twiddle) is the field's one. With qt set, op holds
// canonical twiddles and qt their Shoup quotients (field/shoup.hpp);
// with qt == nullptr, op holds Montgomery-domain twiddles multiplied
// by REDC. Both flavours produce the same words.
struct NttTwiddles {
  const u64* op = nullptr;
  const u64* qt = nullptr;
};

namespace ntt_passes_detail {

// `mul(x, i)` is x times twiddle entry i. The field comes by value so
// its constants stay in registers across the stores to `a`.
template <class Mul>
void dif(const MontgomeryField m, u64* a, std::size_t n, Mul mul) noexcept {
  for (std::size_t h = n / 2; h >= 1; h /= 2) {
    for (std::size_t i = 0; i < n; i += 2 * h) {
      for (std::size_t j = 0; j < h; ++j) {
        const u64 u = a[i + j];
        const u64 v = a[i + j + h];
        a[i + j] = m.add(u, v);
        a[i + j + h] = mul(m.sub(u, v), h - 1 + j);
      }
    }
  }
}

template <class Mul>
void dit(const MontgomeryField m, u64* a, std::size_t n, Mul mul) noexcept {
  for (std::size_t h = 1; h < n; h *= 2) {
    for (std::size_t i = 0; i < n; i += 2 * h) {
      for (std::size_t j = 0; j < h; ++j) {
        const u64 u = a[i + j];
        const u64 v = mul(a[i + j + h], h - 1 + j);
        a[i + j] = m.add(u, v);
        a[i + j + h] = m.sub(u, v);
      }
    }
  }
}

// Runs `pass` with the twiddle product matching tw's flavour, chosen
// once per pass rather than per butterfly.
template <class Pass>
void with_twiddle_mul(const MontgomeryField& m, NttTwiddles tw,
                      Pass pass) noexcept {
  if (tw.qt != nullptr) {
    const u64 q = m.modulus();
    pass([=](u64 x, std::size_t i) {
      return shoup_mul(x, tw.op[i], tw.qt[i], q);
    });
  } else {
    pass([=](u64 x, std::size_t i) { return m.mul(x, tw.op[i]); });
  }
}

}  // namespace ntt_passes_detail

// Forward pass over a[0..n), n a power of two: natural order in,
// bit-reversed spectrum out.
inline void ntt_dif_scalar(const MontgomeryField& m, u64* a, std::size_t n,
                           NttTwiddles tw) noexcept {
  ntt_passes_detail::with_twiddle_mul(
      m, tw, [&](auto mul) { ntt_passes_detail::dif(m, a, n, mul); });
}

// Inverse-order pass: bit-reversed in, natural order out (no 1/n).
inline void ntt_dit_scalar(const MontgomeryField& m, u64* a, std::size_t n,
                           NttTwiddles tw) noexcept {
  ntt_passes_detail::with_twiddle_mul(
      m, tw, [&](auto mul) { ntt_passes_detail::dit(m, a, n, mul); });
}

}  // namespace camelot
