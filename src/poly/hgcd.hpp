// Half-GCD acceleration for the partial extended Euclidean algorithm
// (paper §2.3 decode; von zur Gathen & Gerhard ch. 11).
//
// The Gao remainder sequence under a dense error pattern is Theta(e)
// quotient steps of mostly degree-1 quotients, so the classical (and
// fast-division) drivers pay O(e^2) even though each step is cheap.
// The half-GCD observation: the first half of the quotient sequence
// of (a, b) depends only on the top half of their coefficients, so a
// recursive reduction on truncated operands can find many quotients
// at once and apply them in one 2x2 polynomial matrix-vector product
// through the NTT — O(M(n) log e) for the whole cascade. The matrix
// products transform each operand once and combine in the spectrum:
// M * (a, b) costs 8 transforms (6 forward, 2 inverse) instead of 12
// for four separate products, and M * M' costs 12 (8 forward, 4
// inverse) instead of 24.
//
// Certification replaces per-step boundary fixups: a candidate
// quotient matrix M from a truncated sub-problem is applied to the
// *full* operands and kept only if the reduced pair still descends
// (deg d < deg c). Euclidean division is unique, so that single
// aggregate check proves every candidate quotient is a genuine
// quotient of the full pair (downward induction on the sequence:
// deg r_{i-1} = deg q_i + deg r_i forces each division to be *the*
// division); on failure the engine discards M and re-runs that span
// classically. Either way every emitted quotient is a true EEA
// quotient of the original operands, so remainders *and cofactors*
// are bit-identical to poly_xgcd_partial — same normalization, same
// exit state — on every backend.
//
// Crossover: below a reduction budget (deg a - stop_degree) of
// kHgcdCrossover the classical loop's small constant wins; the
// recursion base-cases to it. The value comes from the BENCH_field.json
// remainder-sequence sweep and is a compile-time constant. Tests reach
// either path through hgcd_detail::xgcd_partial's `crossover` argument
// (1 forces the cascade everywhere, a huge value the classical loop).
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <initializer_list>
#include <type_traits>
#include <utility>
#include <vector>

#include "field/backend_dispatch.hpp"
#include "poly/fast_div.hpp"
#include "poly/poly.hpp"

namespace camelot {

// Reduction budget (deg a - stop_degree) at and above which
// poly_xgcd_partial_hgcd leaves the classical loop for the recursive
// half-GCD cascade: the matrix products need a budget of a few NTT
// blocks before their transforms amortize over the classical loop's
// tiny per-step constant.
inline constexpr std::size_t kHgcdCrossover = 64;

// Observability counters for one partial-xgcd run (exported through
// GaoResult / ProofService::Stats, so which path a decode took is
// visible in bench output).
struct XgcdStats {
  // Genuine Euclidean quotient steps performed (classical base-case
  // steps, middle steps, and fallback re-runs all count; the
  // certified matrix steps count once per quotient they encode).
  std::size_t quotient_steps = 0;
  // hgcd_reduce invocations: 1 when the budget is below the crossover
  // and the entry call runs the classical loop, 0 when the prelude
  // already ends the sequence.
  std::size_t hgcd_calls = 0;
};

namespace hgcd_detail {

// 2x2 matrix over Z_q[x], acting on column pairs. The identity is
// the default state; is_identity() tags it structurally (zero
// entries with one() diagonal would also work, but the flag keeps
// the no-op apply free).
struct PolyMat22 {
  Poly m00, m01, m10, m11;
  bool identity = true;
};

template <class Field>
PolyMat22 mat_identity(const Field& f) {
  PolyMat22 m;
  m.m00 = Poly::constant(f.one(), f);
  m.m11 = Poly::constant(f.one(), f);
  return m;
}

// Products route through the tabled NTT pipeline: half-GCD matrix
// entries are exactly the cofactor-sized operands the fast division
// already transforms.
template <class Field>
Poly mat_mul_poly(const Poly& x, const Poly& y, const Field& f,
                  const NttTables* tables) {
  Poly r{fastdiv_detail::mul_full(std::span<const u64>(x.c),
                                  std::span<const u64>(y.c), f, tables)};
  r.trim();
  return r;
}

// Shared-transform products. A matrix product transforms each operand
// once, at one length n that holds every entry product, combines the
// bit-reversed spectra pointwise (poly/ntt.hpp) and inverse-transforms
// each output entry once. It does so when at least one entry product
// would take the transform on its own (poly_detail::ntt_pays) and the
// field hosts n; otherwise the entries go through mat_mul_poly one by
// one. Field arithmetic is exact, so both routes return the same words.
struct SharedNtt {
  std::size_t n = 0;  // 0: per-entry products
  const NttTables* tables = nullptr;
};

using PolyPair = std::pair<const Poly*, const Poly*>;

// The shared transform for the products x * y, chosen the way mul_full
// picks the transform for one product.
template <class Field>
SharedNtt shared_ntt(std::initializer_list<PolyPair> products, const Field& f,
                     const NttTables* tables) {
  std::size_t out = 0;
  bool pays = false;
  for (const auto& [x, y] : products) {
    if (x->is_zero() || y->is_zero()) continue;
    out = std::max(out, x->c.size() + y->c.size() - 1);
    pays = pays || poly_detail::ntt_pays(x->c.size(), y->c.size());
  }
  SharedNtt s;
  if (!pays) return s;
  if constexpr (!std::is_same_v<Field, PrimeField>) {
    if (tables != nullptr && tables->modulus() == f.modulus() &&
        out <= tables->capacity()) {
      s.n = std::bit_ceil(out);
      s.tables = tables;
      return s;
    }
  }
  if (ntt_supports_size(f, out)) s.n = std::bit_ceil(out);
  return s;
}

// Spectrum of p at the shared length; empty (zero) for the zero
// polynomial and for an operand longer than n, which can only meet zero
// partners since n holds every nonzero product.
template <class Field>
std::vector<u64> spectrum(const Poly& p, const SharedNtt& s, const Field& f) {
  if (p.is_zero() || p.c.size() > s.n) return {};
  std::vector<u64> v(s.n, 0);
  std::copy(p.c.begin(), p.c.end(), v.begin());
  ntt_forward_bitrev(v, f, s.tables);
  return v;
}

// x0*y0 + x1*y1 from spectra (empty = zero), as a trimmed polynomial.
template <class Field>
Poly spectral_dot(const std::vector<u64>& x0, const std::vector<u64>& y0,
                  const std::vector<u64>& x1, const std::vector<u64>& y1,
                  const SharedNtt& s, const Field& f) {
  const bool has0 = !x0.empty() && !y0.empty();
  const bool has1 = !x1.empty() && !y1.empty();
  if (!has0 && !has1) return Poly::zero();
  std::vector<u64> acc(s.n);
  if (has0) vec_mul(f, x0.data(), y0.data(), acc.data(), s.n);
  if (has1 && !has0) vec_mul(f, x1.data(), y1.data(), acc.data(), s.n);
  if (has1 && has0) {
    std::vector<u64> t(s.n);
    vec_mul(f, x1.data(), y1.data(), t.data(), s.n);
    vec_add(f, acc.data(), t.data(), s.n);
  }
  ntt_inverse_bitrev(acc, f, s.tables);
  Poly r{std::move(acc)};
  r.trim();
  return r;
}

// (c, d) = M * (a, b): 6 forward and 2 inverse transforms.
template <class Field>
std::pair<Poly, Poly> mat_apply(const PolyMat22& m, const Poly& a,
                                const Poly& b, const Field& f,
                                const NttTables* tables) {
  if (m.identity) return {a, b};
  const SharedNtt s = shared_ntt(
      {{&m.m00, &a}, {&m.m01, &b}, {&m.m10, &a}, {&m.m11, &b}}, f, tables);
  if (s.n == 0) {
    Poly c = poly_add(mat_mul_poly(m.m00, a, f, tables),
                      mat_mul_poly(m.m01, b, f, tables), f);
    Poly d = poly_add(mat_mul_poly(m.m10, a, f, tables),
                      mat_mul_poly(m.m11, b, f, tables), f);
    return {std::move(c), std::move(d)};
  }
  const std::vector<u64> sa = spectrum(a, s, f), sb = spectrum(b, s, f);
  const std::vector<u64> s00 = spectrum(m.m00, s, f);
  const std::vector<u64> s01 = spectrum(m.m01, s, f);
  const std::vector<u64> s10 = spectrum(m.m10, s, f);
  const std::vector<u64> s11 = spectrum(m.m11, s, f);
  return {spectral_dot(s00, sa, s01, sb, s, f),
          spectral_dot(s10, sa, s11, sb, s, f)};
}

// M <- E(q) * M with E(q) = [[0, 1], [1, -q]]: the matrix form of one
// Euclidean step (c, d) -> (d, c - q*d).
template <class Field>
void mat_step(PolyMat22& m, const Poly& q, const Field& f,
              const NttTables* tables) {
  if (m.identity) m = mat_identity(f);
  Poly n10 = poly_sub(m.m00, mat_mul_poly(q, m.m10, f, tables), f);
  Poly n11 = poly_sub(m.m01, mat_mul_poly(q, m.m11, f, tables), f);
  m.m00 = std::move(m.m10);
  m.m01 = std::move(m.m11);
  m.m10 = std::move(n10);
  m.m11 = std::move(n11);
  m.identity = false;
}

// M <- A * B: 8 forward and 4 inverse transforms.
template <class Field>
PolyMat22 mat_mul(const PolyMat22& a, const PolyMat22& b, const Field& f,
                  const NttTables* tables) {
  if (a.identity) return b;
  if (b.identity) return a;
  PolyMat22 r;
  r.identity = false;
  const SharedNtt s = shared_ntt({{&a.m00, &b.m00},
                                  {&a.m01, &b.m10},
                                  {&a.m00, &b.m01},
                                  {&a.m01, &b.m11},
                                  {&a.m10, &b.m00},
                                  {&a.m11, &b.m10},
                                  {&a.m10, &b.m01},
                                  {&a.m11, &b.m11}},
                                 f, tables);
  if (s.n == 0) {
    r.m00 = poly_add(mat_mul_poly(a.m00, b.m00, f, tables),
                     mat_mul_poly(a.m01, b.m10, f, tables), f);
    r.m01 = poly_add(mat_mul_poly(a.m00, b.m01, f, tables),
                     mat_mul_poly(a.m01, b.m11, f, tables), f);
    r.m10 = poly_add(mat_mul_poly(a.m10, b.m00, f, tables),
                     mat_mul_poly(a.m11, b.m10, f, tables), f);
    r.m11 = poly_add(mat_mul_poly(a.m10, b.m01, f, tables),
                     mat_mul_poly(a.m11, b.m11, f, tables), f);
    return r;
  }
  const std::vector<u64> a00 = spectrum(a.m00, s, f);
  const std::vector<u64> a01 = spectrum(a.m01, s, f);
  const std::vector<u64> a10 = spectrum(a.m10, s, f);
  const std::vector<u64> a11 = spectrum(a.m11, s, f);
  const std::vector<u64> b00 = spectrum(b.m00, s, f);
  const std::vector<u64> b01 = spectrum(b.m01, s, f);
  const std::vector<u64> b10 = spectrum(b.m10, s, f);
  const std::vector<u64> b11 = spectrum(b.m11, s, f);
  r.m00 = spectral_dot(a00, b00, a01, b10, s, f);
  r.m01 = spectral_dot(a00, b01, a01, b11, s, f);
  r.m10 = spectral_dot(a10, b00, a11, b10, s, f);
  r.m11 = spectral_dot(a10, b01, a11, b11, s, f);
  return r;
}

// x div x^s (drop the s low-order coefficients).
inline Poly shift_down(const Poly& p, int s) {
  Poly r;
  if (static_cast<std::size_t>(s) < p.c.size()) {
    r.c.assign(p.c.begin() + s, p.c.end());
  }
  return r;
}

// Reduction state: M is a product of genuine quotient-step matrices
// of the call's (a, b), and (c, d) = M * (a, b) are the matching
// consecutive remainders.
struct Reduced {
  PolyMat22 m;
  Poly c, d;
};

// Classical base case / fallback: run the remainder sequence on
// (a, b) until deg d < t, accumulating the step matrix. The matrix
// row update is the same u2 = u0 - q*u1 recurrence the classical
// xgcd performs, so the base case costs what the classical loop
// costs.
template <class Field>
Reduced eea_steps(const Poly& a, const Poly& b, int t, const Field& f,
                  const NttTables* tables, XgcdStats& stats) {
  Reduced r;
  r.c = a;
  r.d = b;
  while (!r.d.is_zero() && r.d.degree() >= t) {
    Poly q, rem;
    poly_divrem_auto(r.c, r.d, f, &q, &rem, tables);
    ++stats.quotient_steps;
    mat_step(r.m, q, f, tables);
    r.c = std::move(r.d);
    r.d = std::move(rem);
  }
  return r;
}

// Recursive half-GCD reduction. Preconditions: a, b trimmed,
// deg a > deg b, deg a >= t >= 0. Postconditions: the Reduced
// contract above plus the full straddle deg c >= t and (d == 0 or
// deg d < t). The budget k = deg a - t halves into a truncated
// sub-reduction (certified against the full operands), one middle
// quotient step, and a recursion on the remaining budget.
template <class Field>
Reduced hgcd_reduce(const Poly& a, const Poly& b, int t, const Field& f,
                    const NttTables* tables, XgcdStats& stats,
                    std::size_t crossover) {
  ++stats.hgcd_calls;
  if (b.is_zero() || b.degree() < t) {
    Reduced r;
    r.c = a;
    r.d = b;
    return r;
  }
  const int n = a.degree();
  const int k = n - t;
  if (k <= 1 || static_cast<std::size_t>(k) < crossover) {
    return eea_steps(a, b, t, f, tables, stats);
  }

  // First half: find the quotients consuming the top ~k/2 degrees
  // from the truncated pair, then certify them against the full one.
  const int k1 = k / 2;
  const int t1 = n - 2 * k1;  // >= t >= 0
  Reduced first;
  if (t1 > 0) {
    const std::size_t steps_before = stats.quotient_steps;
    const Reduced sub = hgcd_reduce(shift_down(a, t1), shift_down(b, t1), k1,
                                    f, tables, stats, crossover);
    first.m = sub.m;
    auto [c0, d0] = mat_apply(sub.m, a, b, f, tables);
    c0.trim();
    d0.trim();
    // Certification: the lifted pair must still descend and respect
    // the budget, else the span goes back to the classical loop (the
    // discarded candidate steps come off the counter — they were
    // never steps of the full pair). The fallback is not known to
    // fire: the sub-reduction stops at degree k1 of the top 2*k1 + 1
    // coefficients, so every quotient it takes has cumulative degree
    // <= k1, inside the bound where quotients of the truncated pair
    // are quotients of the full one (von zur Gathen & Gerhard, Lemma
    // 11.3), and a stress of 205,962 certifications over random,
    // sparse and common-factor pairs never failed one. It stays as
    // the guarantee that correctness does not rest on that argument.
    if (!sub.m.identity &&
        (c0.is_zero() || c0.degree() < t ||
         (!d0.is_zero() && d0.degree() >= c0.degree()))) {
      stats.quotient_steps = steps_before;
      return eea_steps(a, b, t, f, tables, stats);
    }
    first.c = std::move(c0);
    first.d = std::move(d0);
  } else {
    first = hgcd_reduce(a, b, k1, f, tables, stats, crossover);
  }
  if (first.d.is_zero() || first.d.degree() < t) return first;

  // Middle step: one genuine division re-anchors the sequence at the
  // truncation boundary.
  Poly q, rem;
  poly_divrem_auto(first.c, first.d, f, &q, &rem, tables);
  ++stats.quotient_steps;
  mat_step(first.m, q, f, tables);
  Poly c1 = std::move(first.d);
  Poly d1 = std::move(rem);
  if (d1.is_zero() || d1.degree() < t) {
    Reduced r;
    r.m = std::move(first.m);
    r.c = std::move(c1);
    r.d = std::move(d1);
    return r;
  }

  // Second half: finish the remaining budget (strictly smaller, so
  // the recursion terminates) and stitch the matrices.
  Reduced second = hgcd_reduce(c1, d1, t, f, tables, stats, crossover);
  Reduced r;
  r.m = mat_mul(second.m, first.m, f, tables);
  r.c = std::move(second.c);
  r.d = std::move(second.d);
  return r;
}

// The partial xgcd behind poly_xgcd_partial_hgcd, with the
// crossover as an argument: the public function passes kHgcdCrossover,
// tests pass 1 (cascade everywhere) or a huge value (classical loop)
// to pin either path on the same operands.
template <class Field>
void xgcd_partial(const Poly& a, const Poly& b, int stop_degree,
                  const Field& f, Poly* g, Poly* u, Poly* v,
                  const NttTables* tables, XgcdStats& stats,
                  std::size_t crossover) {
  Poly r0 = a, r1 = b;
  r0.trim();
  r1.trim();
  // Classical prelude until deg r0 > deg r1 (at most two steps; the
  // Gao shape never needs any, so the prelude stays the identity). The
  // recursion's descent lemma needs the strict inequality.
  PolyMat22 prelude = mat_identity(f);
  while (!r1.is_zero() && r0.degree() >= stop_degree &&
         r0.degree() <= r1.degree()) {
    Poly q, rem;
    poly_divrem_auto(r0, r1, f, &q, &rem, tables);
    ++stats.quotient_steps;
    mat_step(prelude, q, f, tables);
    r0 = std::move(r1);
    r1 = std::move(rem);
  }
  if (r1.is_zero() || r0.degree() < stop_degree) {
    if (g != nullptr) *g = std::move(r0);
    if (u != nullptr) *u = std::move(prelude.m00);
    if (v != nullptr) *v = std::move(prelude.m01);
    return;
  }

  const int t = stop_degree > 0 ? stop_degree : 0;
  Reduced red = hgcd_reduce(r0, r1, t, f, tables, stats, crossover);
  // Row 0 of the composed matrix holds the cofactors of c, row 1 those
  // of d. The classical loop exits on the first remainder below the
  // stop degree: d when it exists, else the last nonzero remainder c.
  PolyMat22 m = mat_mul(red.m, prelude, f, tables);
  const bool last = red.d.is_zero();
  if (g != nullptr) *g = std::move(last ? red.c : red.d);
  if (u != nullptr) *u = std::move(last ? m.m00 : m.m10);
  if (v != nullptr) *v = std::move(last ? m.m01 : m.m11);
}

}  // namespace hgcd_detail

// Half-GCD partial extended Euclidean algorithm: semantics, exit
// state, and every output word identical to poly_xgcd_partial.
// `stats`, when non-null, receives the quotient-step / recursion
// counters.
template <class Field>
void poly_xgcd_partial_hgcd(const Poly& a, const Poly& b, int stop_degree,
                            const Field& f, Poly* g, Poly* u, Poly* v,
                            const NttTables* tables = nullptr,
                            XgcdStats* stats = nullptr) {
  XgcdStats local;
  hgcd_detail::xgcd_partial(a, b, stop_degree, f, g, u, v, tables,
                            stats != nullptr ? *stats : local,
                            kHgcdCrossover);
}

// The supported backends are instantiated once in hgcd.cpp.
#define CAMELOT_HGCD_EXTERN(Field)                                        \
  extern template void hgcd_detail::xgcd_partial<Field>(                  \
      const Poly&, const Poly&, int, const Field&, Poly*, Poly*, Poly*,   \
      const NttTables*, XgcdStats&, std::size_t);

CAMELOT_HGCD_EXTERN(PrimeField)
CAMELOT_HGCD_EXTERN(MontgomeryField)
CAMELOT_HGCD_EXTERN(MontgomeryAvx2Field)
CAMELOT_HGCD_EXTERN(MontgomeryAvx512Field)
#undef CAMELOT_HGCD_EXTERN

}  // namespace camelot
