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
// The scalar passes declared here (defined in field/ntt_passes.cpp,
// out of line so the ISA-flagged lane translation units call them
// rather than compile their own copies) are the reference the lane
// kernels (field/montgomery_lanes_kernel.hpp) reproduce word for word
// and fall back to below one vector; field arithmetic is exact and
// every value stays canonical in [0, q), so every backend and both
// twiddle flavours return the same words.
#pragma once

#include <cstddef>

#include "field/montgomery.hpp"

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

// Forward pass over a[0..n), n a power of two: natural order in,
// bit-reversed spectrum out.
void ntt_dif_scalar(const MontgomeryField& m, u64* a, std::size_t n,
                    NttTwiddles tw) noexcept;

// Inverse-order pass: bit-reversed in, natural order out (no 1/n).
void ntt_dit_scalar(const MontgomeryField& m, u64* a, std::size_t n,
                    NttTwiddles tw) noexcept;

}  // namespace camelot
