// Quasi-linear polynomial division (paper §2.2; von zur Gathen &
// Gerhard ch. 9): Newton iteration for power-series inverses, the
// reverse-trick fast divrem built on it, and the truncated/middle
// product kernels they share.
//
// The classical poly_divrem in poly.hpp eliminates one row per
// quotient coefficient — O(deg q * deg b) field multiplications. For
// the subproduct-tree descent and the Gao decoder that quadratic term
// dominates the whole Camelot pipeline at the top tree levels. The
// kernels here replace it with O(M(d)) work, where M is the
// multiplication time (NTT when the transform fits, Karatsuba
// otherwise):
//
//   * poly_inverse_series — g with f*g = 1 mod x^n by Newton doubling
//     g <- g*(2 - f*g); each doubling costs two truncated products.
//   * poly_divrem_fast    — rev(q) = rev(a)*inv(rev(b)) mod x^k, then
//     r = a - q*b, both truncated products. A precomputed inv(rev(b))
//     (e.g. a subproduct-tree node inverse) skips the Newton
//     iteration entirely, leaving two products per division.
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
// Crossover: below a tuned divisor degree the schoolbook elimination
// (with its AVX2 submul rows) wins on constant factors. Callers
// dispatch via poly_divrem_auto / fastdiv_crossover(); the default is
// chosen from BENCH_field.json sweeps and can be overridden with the
// CAMELOT_FASTDIV_CROSSOVER environment variable (read once) or
// set_fastdiv_crossover (tests use it to force either path).
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

// Divisor degree at and above which poly_divrem_auto (and the
// subproduct-tree descent) switches from schoolbook elimination to
// Newton-inverse fast division.
std::size_t fastdiv_crossover() noexcept;

// Overrides the crossover for this process (0 restores the default /
// environment value). Trees built afterwards pick up the new value;
// intended for tests and bench A/B sweeps.
void set_fastdiv_crossover(std::size_t divisor_degree) noexcept;

// Minimum quotient length for the fast path: with fewer quotient
// coefficients than this, the schoolbook elimination's k*d work is
// cheaper than two size-d transforms regardless of d.
inline constexpr std::size_t kFastDivMinQuotient = 16;

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
// (the subproduct-tree node cache) rely on. `seed`, when non-null,
// must be a correct inverse prefix (seed->c.size() >= 1 coefficients
// of the true series); the iteration resumes from it instead of the
// single-coefficient base case, which is how a cached node inverse is
// extended when a caller shows up with an oversized dividend.
template <class Field>
Poly poly_inverse_series(const Poly& fp, std::size_t n, const Field& fref,
                         const NttTables* tables = nullptr,
                         const Poly* seed = nullptr) {
  const Field f = fref;
  Poly g;
  if (n == 0) return g;
  if (fp.is_zero() || fp.c[0] == 0) {
    throw std::invalid_argument(
        "poly_inverse_series: constant term not invertible");
  }
  if (seed != nullptr && !seed->c.empty()) {
    g.c.assign(seed->c.begin(),
               seed->c.begin() +
                   static_cast<long>(std::min(seed->c.size(), n)));
  } else {
    g.c.assign(1, f.inv(fp.c[0]));
  }
  std::size_t k = g.c.size();
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
// divisors are normalized internally. `inv_rev_b`, when non-null,
// must be a power-series inverse prefix of reverse(b) *with b monic*
// (subproduct-tree nodes are); a prefix shorter than the quotient is
// extended by Newton steps rather than discarded.
template <class Field>
void poly_divrem_fast(const Poly& a_in, const Poly& b_in, const Field& fref,
                      Poly* q, Poly* r, const NttTables* tables = nullptr,
                      const Poly* inv_rev_b = nullptr) {
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

  // inv(rev(b)) mod x^k, reusing/extending any precomputed prefix.
  Poly rev_b;
  rev_b.c.assign(b.c.rbegin(), b.c.rend());
  Poly inv_local;
  const Poly* inv = monic ? inv_rev_b : nullptr;
  if (inv == nullptr || inv->c.size() < k) {
    inv_local = poly_inverse_series(rev_b, k, f, tables, inv);
    inv = &inv_local;
  }

  // rev(q) = rev(a) * inv(rev(b)) mod x^k.
  std::vector<u64> rev_a(k);
  for (std::size_t i = 0; i < k; ++i) {
    rev_a[i] = a.c[static_cast<std::size_t>(da) - i];
  }
  std::vector<u64> rev_q = poly_mul_low(
      rev_a, std::span<const u64>(inv->c.data(), std::min(inv->c.size(), k)),
      k, f, tables);
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

// In-place remainder of a raw coefficient vector modulo a *monic*
// divisor with a precomputed reversed-divisor inverse — the fast twin
// of the subproduct-tree descent's schoolbook elimination. `inv_rev`
// must cover the quotient (inv_rev.c.size() >= r.size() - db after
// leading-zero trim; the tree build guarantees it). Leaves r with
// exactly db entries, the same contract as the schoolbook loop.
template <class Field>
void monic_rem_fast_inplace(std::vector<u64>& r, const std::vector<u64>& b,
                            const Poly& inv_rev, const Field& fref,
                            const NttTables* tables) {
  const Field f = fref;
  const std::size_t db = b.size() - 1;
  while (!r.empty() && r.back() == 0) r.pop_back();
  if (r.size() <= db) {
    r.resize(db, 0);
    return;
  }
  const std::size_t k = r.size() - db;
  if (inv_rev.c.size() < k) {
    throw std::logic_error("monic_rem_fast_inplace: inverse too short");
  }
  std::vector<u64> rev_a(k);
  for (std::size_t i = 0; i < k; ++i) rev_a[i] = r[r.size() - 1 - i];
  std::vector<u64> rev_q = poly_mul_low(
      rev_a, std::span<const u64>(inv_rev.c.data(), k), k, f, tables);
  std::vector<u64> quot(k);
  for (std::size_t i = 0; i < k; ++i) quot[i] = rev_q[k - 1 - i];
  r = fastdiv_detail::remainder_of_exact_div(
      std::span<const u64>(r), quot, b, db, f, tables);
}

// Size-dispatching division: fast path when the divisor degree is at
// or past the crossover and the quotient is long enough to amortize
// the transforms, classical elimination otherwise. Always safe — the
// two paths compute identical words.
template <class Field>
void poly_divrem_auto(const Poly& a, const Poly& b, const Field& f, Poly* q,
                      Poly* r, const NttTables* tables = nullptr) {
  const int da = a.degree();
  const int db = b.degree();
  if (db >= 0 && da >= db &&
      static_cast<std::size_t>(db) >= fastdiv_crossover() &&
      static_cast<std::size_t>(da - db) + 1 >= kFastDivMinQuotient) {
    poly_divrem_fast(a, b, f, q, r, tables);
    return;
  }
  poly_divrem(a, b, f, q, r);
}

// Partial extended Euclidean algorithm with every quotient step (and
// cofactor product) routed through the size-dispatching kernels —
// the Gao decoder's remainder sequence. Semantics and results are
// identical to poly_xgcd_partial.
template <class Field>
void poly_xgcd_partial_fast(const Poly& a, const Poly& b, int stop_degree,
                            const Field& f, Poly* g, Poly* u, Poly* v,
                            const NttTables* tables = nullptr) {
  Poly r0 = a, r1 = b;
  r0.trim();
  r1.trim();
  Poly u0 = Poly::constant(f.one(), f), u1 = Poly::zero();
  Poly v0 = Poly::zero(), v1 = Poly::constant(f.one(), f);
  // Cofactor products go through the same tabled pipeline as the
  // divisions: a large quotient step makes them NTT-sized, and the
  // untabled kernel would re-power the stage roots per call.
  const auto mul = [&](const Poly& x, const Poly& y) {
    Poly r{fastdiv_detail::mul_full(std::span<const u64>(x.c),
                                    std::span<const u64>(y.c), f, tables)};
    r.trim();
    return r;
  };
  while (!r1.is_zero() && r0.degree() >= stop_degree) {
    Poly qt, rem;
    poly_divrem_auto(r0, r1, f, &qt, &rem, tables);
    Poly u2 = poly_sub(u0, mul(qt, u1), f);
    Poly v2 = poly_sub(v0, mul(qt, v1), f);
    r0 = std::move(r1);
    r1 = std::move(rem);
    u0 = std::move(u1);
    u1 = std::move(u2);
    v0 = std::move(v1);
    v1 = std::move(v2);
  }
  if (g != nullptr) *g = r0;
  if (u != nullptr) *u = u0;
  if (v != nullptr) *v = v0;
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
      const Poly&, std::size_t, const Field&, const NttTables*,             \
      const Poly*);                                                         \
  extern template void poly_divrem_fast<Field>(const Poly&, const Poly&,    \
                                               const Field&, Poly*, Poly*,  \
                                               const NttTables*,            \
                                               const Poly*);                \
  extern template void monic_rem_fast_inplace<Field>(                       \
      std::vector<u64>&, const std::vector<u64>&, const Poly&,              \
      const Field&, const NttTables*);                                      \
  extern template void poly_divrem_auto<Field>(const Poly&, const Poly&,    \
                                               const Field&, Poly*, Poly*,  \
                                               const NttTables*);           \
  extern template void poly_xgcd_partial_fast<Field>(                       \
      const Poly&, const Poly&, int, const Field&, Poly*, Poly*, Poly*,     \
      const NttTables*);

CAMELOT_FASTDIV_EXTERN(PrimeField)
CAMELOT_FASTDIV_EXTERN(MontgomeryField)
CAMELOT_FASTDIV_EXTERN(MontgomeryAvx2Field)
CAMELOT_FASTDIV_EXTERN(MontgomeryAvx512Field)
#undef CAMELOT_FASTDIV_EXTERN

}  // namespace camelot
