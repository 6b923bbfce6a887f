// Quasi-linear polynomial division (paper §2.2; von zur Gathen &
// Gerhard ch. 9): Newton iteration for power-series inverses, the
// reverse-trick fast divrem built on it, and the truncated/middle
// product kernels they share.
//
// The classical poly_divrem in poly.hpp eliminates one row per
// quotient coefficient — O(deg q * deg b) field multiplications. For
// the top levels of a large subproduct-tree descent and the Gao
// decoder's large quotient steps that quadratic term dominates. The
// kernels here replace it with O(M(d)) work, where M is the
// multiplication time (NTT when the transform fits, Karatsuba
// otherwise):
//
//   * poly_inverse_series — g with f*g = 1 mod x^n by Newton doubling
//     g <- g*(2 - f*g); each doubling costs two truncated products.
//   * poly_divrem_fast    — rev(q) = rev(a)*inv(rev(b)) mod x^k, then
//     r = a - q*b, both truncated products.
//   * poly_mul_low / poly_mul_middle — the truncated ("low") and
//     middle-product slice kernels the above are assembled from. The
//     middle product runs as a transposed (wrapped) transform: a
//     cyclic convolution mod x^N - 1 at the smallest power of two N
//     that keeps the target slice alias-free, so the transforms are
//     sized by the slice instead of the padded full product (the
//     Newton doubling drops from two ~4k-point transforms to ~2k, and
//     the division remainder runs at the divisor size). Karatsuba
//     fallback below the NTT threshold or when the field's two-adicity
//     cannot host the transform (q = 2, 2^61 - 1).
//
// Everything is templated over the field backend exactly like
// poly.hpp, so the scalar Montgomery, AVX2 lane, and division
// backends instantiate the same code — and since field arithmetic is
// exact, every kernel returns *bit-identical* coefficients to the
// schoolbook path it replaces, on every backend. Explicit
// instantiations for the three backends live in fast_div.cpp.
//
// Crossover: below divisor degree kFastDivCrossover, or with a
// quotient shorter than kFastDivMinQuotient, the schoolbook
// elimination (with its lane-wide submul rows) wins on constant
// factors. fastdiv_pays() is that rule; poly_divrem_auto and the
// subproduct-tree descent (poly/multipoint.cpp) both dispatch on it.
#pragma once

#include <algorithm>
#include <cstddef>
#include <span>
#include <stdexcept>
#include <type_traits>
#include <vector>

#include "poly/ntt.hpp"
#include "poly/poly.hpp"

namespace camelot {

// Divisor degree at and above which Newton-inverse division beats
// schoolbook elimination (the BENCH_field.json fastdiv_d* sweep: at
// degree 256 the two truncated NTT products already beat the lane-wide
// elimination; below it the elimination's tiny constant wins).
inline constexpr std::size_t kFastDivCrossover = 256;

// Minimum quotient length for the fast path: with fewer quotient
// coefficients than this, the schoolbook elimination's k*d work is
// cheaper than two size-d transforms regardless of d.
inline constexpr std::size_t kFastDivMinQuotient = 16;

// Whether a division by a degree-`divisor_degree` polynomial with a
// quotient of `quotient_len` coefficients should take the Newton path.
constexpr bool fastdiv_pays(std::size_t divisor_degree,
                            std::size_t quotient_len) noexcept {
  return divisor_degree >= kFastDivCrossover &&
         quotient_len >= kFastDivMinQuotient;
}

namespace fastdiv_detail {

// Full product of two coefficient spans through the best available
// pipeline: cached-twiddle NTT when `tables` covers the result size,
// the generic NTT when the field supports it, Karatsuba/schoolbook
// below the transform threshold. Result has a.size()+b.size()-1
// entries (empty if either input is empty).
template <class Field>
std::vector<u64> mul_full(std::span<const u64> a, std::span<const u64> b,
                          const Field& f, const NttTables* tables) {
  if (a.empty() || b.empty()) return {};
  const std::size_t out = a.size() + b.size() - 1;
  if (poly_detail::ntt_pays(a.size(), b.size())) {
    // The tabled overloads exist for the Montgomery backends only;
    // the division backend converts inside the untabled overload.
    if constexpr (!std::is_same_v<Field, PrimeField>) {
      if (tables != nullptr && tables->modulus() == f.modulus() &&
          out <= tables->capacity()) {
        return ntt_convolve(a, b, f, *tables);
      }
    }
    if (ntt_supports_size(f, out)) return ntt_convolve(a, b, f);
  }
  return poly_detail::kara(a, b, f);
}

// Cyclic convolution of the (clipped) operands mod x^n - 1 through
// the best available transform, or an empty vector when no transform
// fits (caller falls back to the clipped full product).
template <class Field>
std::vector<u64> cyclic_or_empty(std::span<const u64> a, std::span<const u64> b,
                                 std::size_t n, const Field& f,
                                 const NttTables* tables) {
  if constexpr (!std::is_same_v<Field, PrimeField>) {
    if (tables != nullptr && tables->modulus() == f.modulus() &&
        n <= tables->capacity()) {
      return ntt_convolve_cyclic(a, b, n, f, *tables);
    }
  }
  if (ntt_supports_size(f, n)) return ntt_convolve_cyclic(a, b, n, f);
  return {};
}

}  // namespace fastdiv_detail

// Middle product: coefficients [lo, hi) of a*b — the primitive slice
// kernel this layer is assembled from. Computed as a transposed
// (wrapped) transform: operands at or past x^hi are cut, then the
// product is taken mod x^N - 1 for the smallest power of two N with
// N >= hi (so the slice is a self-map under the wrap) and
// lo + N >= full product length (so no aliased coefficient lands
// inside the slice). One cyclic convolution at the slice size instead
// of a padded full product. Falls back to the clipped Karatsuba
// product below the NTT threshold or when the field's two-adicity
// cannot host the transform; field arithmetic is exact, so both
// paths return bit-identical words.
template <class Field>
std::vector<u64> poly_mul_middle(std::span<const u64> a, std::span<const u64> b,
                                 std::size_t lo, std::size_t hi, const Field& f,
                                 const NttTables* tables = nullptr) {
  std::vector<u64> out(hi > lo ? hi - lo : 0, 0);
  if (a.empty() || b.empty() || hi <= lo) return out;
  const std::size_t la = std::min(a.size(), hi);
  const std::size_t lb = std::min(b.size(), hi);
  const std::size_t full = la + lb - 1;
  if (full <= lo) return out;  // no clipped coefficient reaches x^lo
  if (poly_detail::ntt_pays(la, lb)) {
    std::size_t n = 1;
    while (n < std::max(hi, full - lo)) n <<= 1;
    std::vector<u64> cyc = fastdiv_detail::cyclic_or_empty(
        a.subspan(0, la), b.subspan(0, lb), n, f, tables);
    if (!cyc.empty()) {
      for (std::size_t i = lo; i < hi && i < full; ++i) out[i - lo] = cyc[i];
      return out;
    }
  }
  std::vector<u64> prod =
      poly_detail::kara(a.subspan(0, la), b.subspan(0, lb), f);
  for (std::size_t i = lo; i < hi && i < prod.size(); ++i) {
    out[i - lo] = prod[i];
  }
  return out;
}

// Truncated ("low") product: the first n coefficients of a*b, padded
// with zeros to exactly n entries — the [0, n) middle slice. The
// Newton iteration and both products of the reverse-trick division
// consume this shape.
template <class Field>
std::vector<u64> poly_mul_low(std::span<const u64> a, std::span<const u64> b,
                              std::size_t n, const Field& f,
                              const NttTables* tables = nullptr) {
  if (n == 0) return {};
  return poly_mul_middle(a, b, 0, n, f, tables);
}

namespace fastdiv_detail {

// Division remainder via the wrapped product: with a = q*b + r exact
// and deg r < db, folding both sides mod x^N - 1 (N = next power of
// two >= db) gives fold_N(a) - cyc_N(q, b) = r on [0, db) — every
// aliased product coefficient is cancelled by the matching alias of
// a, and r itself never wraps. The transforms run at the divisor
// size instead of the padded full-product size. Requires q to be the
// exact quotient of a by b; returns exactly db entries. Falls back
// to the truncated product below the NTT threshold or when the field
// lacks the root orders — identical words either way.
template <class Field>
std::vector<u64> remainder_of_exact_div(std::span<const u64> a,
                                        std::span<const u64> q,
                                        std::span<const u64> b, std::size_t db,
                                        const Field& f,
                                        const NttTables* tables) {
  std::vector<u64> rem(db, 0);
  if (poly_detail::ntt_pays(q.size(), b.size())) {
    std::size_t n = 1;
    while (n < db) n <<= 1;
    std::vector<u64> cyc = cyclic_or_empty(q, b, n, f, tables);
    if (!cyc.empty()) {
      std::vector<u64> fa(n, 0);
      for (std::size_t i = 0; i < a.size(); ++i) {
        fa[i & (n - 1)] = f.add(fa[i & (n - 1)], a[i]);
      }
      for (std::size_t i = 0; i < db; ++i) rem[i] = f.sub(fa[i], cyc[i]);
      return rem;
    }
  }
  std::vector<u64> low = poly_mul_low(q, b, db, f, tables);
  for (std::size_t i = 0; i < db; ++i) {
    rem[i] = f.sub(i < a.size() ? a[i] : 0, low[i]);
  }
  return rem;
}

}  // namespace fastdiv_detail

// Power-series inverse: g with fp*g = 1 mod x^n, by Newton doubling
// g <- g*(2 - fp*g). Requires an invertible constant term. The result
// is *not* trimmed: g.c.size() == n is the precision contract callers
// rely on.
template <class Field>
Poly poly_inverse_series(const Poly& fp, std::size_t n, const Field& fref,
                         const NttTables* tables = nullptr) {
  const Field f = fref;
  Poly g;
  if (n == 0) return g;
  if (fp.is_zero() || fp.c[0] == 0) {
    throw std::invalid_argument(
        "poly_inverse_series: constant term not invertible");
  }
  g.c.assign(1, f.inv(fp.c[0]));
  std::size_t k = 1;
  while (k < n) {
    const std::size_t k2 = std::min(2 * k, n);
    // Middle-product (HQZ) form of the doubling: g is the exact
    // inverse mod x^k, so fp*g = 1 + x^k*h mod x^k2 with h exactly
    // the [k, k2) slice of fp*g, and the Newton update
    // g*(2 - fp*g) keeps the low half of g verbatim while the new
    // half is -(g*h mod x^{k2-k}). Two slice products at the block
    // size replace two full-precision low products; the inverse
    // series is unique, so the words are identical either way.
    std::vector<u64> h = poly_mul_middle(
        std::span<const u64>(fp.c.data(), std::min(fp.c.size(), k2)), g.c, k,
        k2, f, tables);
    std::vector<u64> u = poly_mul_low(g.c, h, k2 - k, f, tables);
    g.c.resize(k2);
    for (std::size_t i = k; i < k2; ++i) g.c[i] = f.neg(u[i - k]);
    k = k2;
  }
  g.c.resize(n, 0);
  return g;
}

// Fast Euclidean division via the reverse trick: a = q*b + r with
// deg r < deg b, identical (bit-for-bit) to poly_divrem. Non-monic
// divisors are normalized internally.
template <class Field>
void poly_divrem_fast(const Poly& a_in, const Poly& b_in, const Field& fref,
                      Poly* q, Poly* r, const NttTables* tables = nullptr) {
  if (b_in.is_zero()) {
    throw std::invalid_argument("poly_divrem_fast: divide by zero");
  }
  const Field f = fref;
  Poly a = a_in;
  a.trim();
  Poly b = b_in;
  b.trim();
  const int da = a.degree();
  const int db = b.degree();
  if (da < db) {
    if (q != nullptr) *q = Poly::zero();
    if (r != nullptr) *r = std::move(a);
    return;
  }
  const std::size_t k = static_cast<std::size_t>(da - db) + 1;
  const u64 lc = b.c.back();
  const bool monic = lc == f.one();
  u64 lc_inv = 0;
  if (!monic) {
    lc_inv = f.inv(lc);
    b = poly_scale(b, lc_inv, f);  // monic divisor; q rescaled below
  }

  // rev(q) = rev(a) * inv(rev(b)) mod x^k.
  Poly rev_b;
  rev_b.c.assign(b.c.rbegin(), b.c.rend());
  const Poly inv = poly_inverse_series(rev_b, k, f, tables);
  std::vector<u64> rev_a(k);
  for (std::size_t i = 0; i < k; ++i) {
    rev_a[i] = a.c[static_cast<std::size_t>(da) - i];
  }
  std::vector<u64> rev_q = poly_mul_low(rev_a, inv.c, k, f, tables);
  Poly quot;
  quot.c.resize(k);
  for (std::size_t i = 0; i < k; ++i) quot.c[i] = rev_q[k - 1 - i];

  if (r != nullptr) {
    Poly rem;
    if (db > 0) {
      rem.c = fastdiv_detail::remainder_of_exact_div(
          std::span<const u64>(a.c), std::span<const u64>(quot.c),
          std::span<const u64>(b.c), static_cast<std::size_t>(db), f, tables);
      rem.trim();
    }
    *r = std::move(rem);
  }
  if (q != nullptr) {
    if (!monic) quot = poly_scale(quot, lc_inv, f);
    quot.trim();
    *q = std::move(quot);
  }
}

// Size-dispatching division: the fast path where fastdiv_pays(),
// classical elimination otherwise. Always safe — the two paths compute
// identical words.
template <class Field>
void poly_divrem_auto(const Poly& a, const Poly& b, const Field& f, Poly* q,
                      Poly* r, const NttTables* tables = nullptr) {
  const int da = a.degree();
  const int db = b.degree();
  if (db >= 0 && da >= db &&
      fastdiv_pays(static_cast<std::size_t>(db),
                   static_cast<std::size_t>(da - db) + 1)) {
    poly_divrem_fast(a, b, f, q, r, tables);
    return;
  }
  poly_divrem(a, b, f, q, r);
}

// The supported backends are instantiated once in fast_div.cpp.
#define CAMELOT_FASTDIV_EXTERN(Field)                                       \
  extern template std::vector<u64> poly_mul_low<Field>(                     \
      std::span<const u64>, std::span<const u64>, std::size_t,              \
      const Field&, const NttTables*);                                      \
  extern template std::vector<u64> poly_mul_middle<Field>(                  \
      std::span<const u64>, std::span<const u64>, std::size_t, std::size_t, \
      const Field&, const NttTables*);                                      \
  extern template Poly poly_inverse_series<Field>(                          \
      const Poly&, std::size_t, const Field&, const NttTables*);            \
  extern template void poly_divrem_fast<Field>(const Poly&, const Poly&,    \
                                               const Field&, Poly*, Poly*,  \
                                               const NttTables*);           \
  extern template void poly_divrem_auto<Field>(const Poly&, const Poly&,    \
                                               const Field&, Poly*, Poly*,  \
                                               const NttTables*);

CAMELOT_FASTDIV_EXTERN(PrimeField)
CAMELOT_FASTDIV_EXTERN(MontgomeryField)
CAMELOT_FASTDIV_EXTERN(MontgomeryAvx2Field)
CAMELOT_FASTDIV_EXTERN(MontgomeryAvx512Field)
#undef CAMELOT_FASTDIV_EXTERN

}  // namespace camelot
