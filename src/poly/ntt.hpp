// Number-theoretic transform over NTT-friendly prime fields.
//
// The framework always selects proof moduli of the form q = c*2^a + 1
// (see core/prime_plan.hpp) so that the O(d log d) polynomial
// multiplication promised in paper §2.2 is available for encoding,
// decoding and interpolation.
//
// The butterfly kernel runs entirely in the Montgomery domain. Every
// entry point is one template over the field, instantiated in
// poly/ntt.cpp for PrimeField, MontgomeryField and the two lane
// fields (field/montgomery_lanes.hpp). With a PrimeField the values
// are canonical representatives, converted once at the boundary (two
// passes over the data); the Montgomery fields take and return domain
// values directly, so a longer pipeline pays no conversion at all, and
// the lane fields run the passes in their vector kernels.
//
// Order contract. Every transform is a forward DIF pass (natural
// order in, bit-reversed spectrum out) or an inverse DIT pass
// (bit-reversed in, natural order out); see field/ntt_passes.hpp.
//  * ntt_inplace is natural order on both sides: forward is DIF plus
//    one bit reversal, inverse is one bit reversal plus DIT. It is the
//    only place the library permutes.
//  * ntt_convolve, ntt_convolve_cyclic and the exported pair
//    ntt_forward_bitrev / ntt_inverse_bitrev work on bit-reversed
//    spectra and never permute: a product is DIF, DIF, pointwise
//    product, DIT.
#pragma once

#include <span>
#include <vector>

#include "field/field.hpp"
#include "field/montgomery.hpp"

namespace camelot {

// True iff the field supports transforms long enough to multiply
// polynomials with `result_size` output coefficients.
template <class Field>
bool ntt_supports_size(const Field& f, std::size_t result_size);

// Precomputed twiddle tables for the butterfly kernel. An untabled
// transform computes its stage twiddles on every call (one power chain
// of the top-stage root, n/2 Montgomery products) and multiplies with
// REDC; the tabled kernel loads per-stage tables computed once per
// prime, in Shoup form: the *canonical* twiddle and its precomputed
// quotient floor(w*2^64/q) (see field/shoup.hpp). The Shoup product of
// a Montgomery-domain value with them lands on the same word as the
// REDC product with the Montgomery twiddle, one mulhi + one mullo
// cheaper, so tabled and untabled transforms agree bit for bit. Both
// share one layout (NttTwiddles in field/ntt_passes.hpp), which the
// scalar passes and the lane kernels consume directly. A FieldCache
// shares one instance per prime across all sessions.
class NttTables {
 public:
  // Builds tables for transforms up to next_pow2(max_size), clamped
  // to the field's two-adicity limit 2^a.
  NttTables(const MontgomeryField& m, std::size_t max_size);

  u64 modulus() const noexcept { return q_; }
  // Largest supported transform length (a power of two, >= 1).
  std::size_t capacity() const noexcept { return capacity_; }

  // 1/2^k in the Montgomery domain, k <= log2(capacity()).
  u64 n_inv(int k) const noexcept { return n_inv_[static_cast<size_t>(k)]; }

  // False when there are no stages to tabulate (capacity() == 1) and
  // for q == 2, which has no Montgomery form; the kernel then takes
  // the untabled chain.
  bool has_shoup() const noexcept { return !fwd_op_.empty(); }

  // Stage k of the forward (or inverse) transform, 1 <= k <=
  // log2(capacity()): 2^(k-1) canonical twiddles w_k^j (op) for the
  // primitive root w_k of order 2^k (w_k^{-1} when inverse) and
  // their Shoup quotients (qt).
  struct Stage {
    const u64* op;
    const u64* qt;
  };
  Stage stage(int k, bool inverse) const noexcept {
    const std::size_t off = (std::size_t{1} << (k - 1)) - 1;
    return inverse ? Stage{inv_op_.data() + off, inv_qt_.data() + off}
                   : Stage{fwd_op_.data() + off, fwd_qt_.data() + off};
  }

 private:
  u64 q_ = 0;
  std::size_t capacity_ = 1;
  std::vector<u64> n_inv_;
  // Per-stage tables, concatenated: stage k occupies
  // [2^(k-1) - 1, 2^k - 1). Total size capacity() - 1 (empty when
  // q == 2).
  std::vector<u64> fwd_op_, fwd_qt_, inv_op_, inv_qt_;
};

// In-place radix-2 NTT of a power-of-two-sized vector, natural order
// on both sides, values in f's domain. If inverse, applies the inverse
// transform including the 1/n factor. The tabled form takes its
// twiddles from `tables`; it requires tables.modulus() == f.modulus()
// and a.size() <= tables.capacity(), and returns the same words.
template <class Field>
void ntt_inplace(std::vector<u64>& a, bool inverse, const Field& f);
template <class Field>
void ntt_inplace(std::vector<u64>& a, bool inverse, const Field& f,
                 const NttTables& tables);

// Bit-reversed spectra, for callers that combine several products in
// the spectrum (the half-GCD matrix products): ntt_forward_bitrev maps
// a power-of-two vector of coefficients to its spectrum in bit-reversed
// order, ntt_inverse_bitrev maps such a spectrum back to natural-order
// coefficients, 1/n included. Pointwise sums of products of spectra
// of one length n invert to the matching sums of products mod
// x^n - 1. Values are in f's domain (canonical for PrimeField); with
// `tables` set the pass runs through them under the same requirements
// as the tabled ntt_inplace.
template <class Field>
void ntt_forward_bitrev(std::vector<u64>& a, const Field& f,
                        const NttTables* tables = nullptr);
template <class Field>
void ntt_inverse_bitrev(std::vector<u64>& a, const Field& f,
                        const NttTables* tables = nullptr);

// Cyclic-free convolution (polynomial product) of two coefficient
// vectors, values in f's domain. Returns a.size()+b.size()-1
// coefficients. The tabled form requires the result to fit:
// a.size()+b.size()-1 <= tables.capacity().
template <class Field>
std::vector<u64> ntt_convolve(std::span<const u64> a, std::span<const u64> b,
                              const Field& f);
template <class Field>
std::vector<u64> ntt_convolve(std::span<const u64> a, std::span<const u64> b,
                              const Field& f, const NttTables& tables);

// Cyclic convolution mod x^n - 1 for power-of-two n (the transposed
// middle-product primitive): both operands are folded into n words
// (coefficient i adds into slot i mod n) before a *single* size-n
// transform pair, so a middle product pays transforms of the slice
// size instead of the full product size. Requires n power of two and
// within the field's two-adicity; operands may be longer than n.
template <class Field>
std::vector<u64> ntt_convolve_cyclic(std::span<const u64> a,
                                     std::span<const u64> b, std::size_t n,
                                     const Field& f);
template <class Field>
std::vector<u64> ntt_convolve_cyclic(std::span<const u64> a,
                                     std::span<const u64> b, std::size_t n,
                                     const Field& f, const NttTables& tables);

}  // namespace camelot
