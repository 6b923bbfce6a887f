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
// Crossover: below a tuned reduction budget (deg a - stop_degree) the
// classical loop's small constant wins; the recursion base-cases to
// it. Default from the BENCH_field.json gao_hgcd sweep, overridable
// with CAMELOT_HGCD_CROSSOVER (read once) or set_hgcd_crossover —
// CAMELOT_HGCD_CROSSOVER=1 forces the recursive path everywhere (the
// CI sanitizer leg), a huge value forces the classical loop.
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
// half-GCD cascade.
std::size_t hgcd_crossover() noexcept;

// Overrides the crossover for this process (0 restores the default /
// environment value). Codes built afterwards capture the new value;
// intended for tests and bench A/B sweeps.
void set_hgcd_crossover(std::size_t budget) noexcept;

// Observability counters for one partial-xgcd run (exported through
// GaoResult / ProofService::Stats so crossover tuning is visible in
// bench output).
struct XgcdStats {
  // Genuine Euclidean quotient steps performed (classical base-case
  // steps, middle steps, and fallback re-runs all count; the
  // certified matrix steps count once per quotient they encode).
  std::size_t quotient_steps = 0;
  // hgcd_reduce invocations (0 on a pure classical run).
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
    // the budget; truncation noise near the boundary shows up here
    // and sends that span back to the classical loop (the discarded
    // candidate steps come off the counter — they were never steps
    // of the full pair).
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

}  // namespace hgcd_detail

// Half-GCD partial extended Euclidean algorithm: semantics, exit
// state, and every output word identical to poly_xgcd_partial.
// `crossover` 0 means hgcd_crossover();
// ReedSolomonCode passes the value it was cache-keyed under. `stats`,
// when non-null, receives the quotient-step / recursion counters.
template <class Field>
void poly_xgcd_partial_hgcd(const Poly& a, const Poly& b, int stop_degree,
                            const Field& f, Poly* g, Poly* u, Poly* v,
                            const NttTables* tables = nullptr,
                            XgcdStats* stats = nullptr,
                            std::size_t crossover = 0) {
  if (crossover == 0) crossover = hgcd_crossover();
  XgcdStats local;
  XgcdStats& st = stats != nullptr ? *stats : local;

  Poly r0 = a, r1 = b;
  r0.trim();
  r1.trim();
  Poly u0 = Poly::constant(f.one(), f), u1 = Poly::zero();
  Poly v0 = Poly::zero(), v1 = Poly::constant(f.one(), f);
  // Classical prelude until deg r0 > deg r1 (at most two steps; the
  // Gao shape never needs any). The recursion's descent lemma needs
  // the strict inequality.
  while (!r1.is_zero() && r0.degree() >= stop_degree &&
         r0.degree() <= r1.degree()) {
    Poly qt, rem;
    poly_divrem_auto(r0, r1, f, &qt, &rem, tables);
    ++st.quotient_steps;
    Poly u2 = poly_sub(u0, poly_mul(qt, u1, f), f);
    Poly v2 = poly_sub(v0, poly_mul(qt, v1, f), f);
    r0 = std::move(r1);
    r1 = std::move(rem);
    u0 = std::move(u1);
    u1 = std::move(u2);
    v0 = std::move(v1);
    v1 = std::move(v2);
  }
  if (r1.is_zero() || r0.degree() < stop_degree) {
    if (g != nullptr) *g = std::move(r0);
    if (u != nullptr) *u = std::move(u0);
    if (v != nullptr) *v = std::move(v0);
    return;
  }

  const int t = stop_degree > 0 ? stop_degree : 0;
  hgcd_detail::Reduced red =
      hgcd_detail::hgcd_reduce(r0, r1, t, f, tables, st, crossover);
  // Compose the reduction matrix with the prelude cofactors: row 0 is
  // (u, v) of c, row 1 of d. The classical loop exits on the first
  // remainder below the stop degree — d when it exists, else the
  // last nonzero remainder c.
  const auto row = [&](const Poly& mu, const Poly& mv, Poly* out_u,
                       Poly* out_v) {
    if (out_u != nullptr) {
      *out_u = poly_add(hgcd_detail::mat_mul_poly(mu, u0, f, tables),
                        hgcd_detail::mat_mul_poly(mv, u1, f, tables), f);
    }
    if (out_v != nullptr) {
      *out_v = poly_add(hgcd_detail::mat_mul_poly(mu, v0, f, tables),
                        hgcd_detail::mat_mul_poly(mv, v1, f, tables), f);
    }
  };
  if (red.m.identity) {
    // deg r1 < t already: the classical loop would run exactly one
    // more step (its condition only looks at r0) and exit with r1
    // and r1's current cofactors.
    ++st.quotient_steps;
    if (g != nullptr) *g = std::move(r1);
    if (u != nullptr) *u = std::move(u1);
    if (v != nullptr) *v = std::move(v1);
    return;
  }
  if (red.d.is_zero()) {
    if (g != nullptr) *g = std::move(red.c);
    row(red.m.m00, red.m.m01, u, v);
  } else {
    if (g != nullptr) *g = std::move(red.d);
    row(red.m.m10, red.m.m11, u, v);
  }
}

// The supported backends are instantiated once in hgcd.cpp.
#define CAMELOT_HGCD_EXTERN(Field)                                        \
  extern template void poly_xgcd_partial_hgcd<Field>(                     \
      const Poly&, const Poly&, int, const Field&, Poly*, Poly*, Poly*,   \
      const NttTables*, XgcdStats*, std::size_t);

CAMELOT_HGCD_EXTERN(PrimeField)
CAMELOT_HGCD_EXTERN(MontgomeryField)
CAMELOT_HGCD_EXTERN(MontgomeryAvx2Field)
CAMELOT_HGCD_EXTERN(MontgomeryAvx512Field)
#undef CAMELOT_HGCD_EXTERN

}  // namespace camelot
