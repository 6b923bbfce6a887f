#include "poly/multipoint.hpp"

#include <stdexcept>
#include <type_traits>

#include "field/backend_dispatch.hpp"
#include "poly/fast_div.hpp"

namespace camelot {

namespace {

// In-place remainder modulo a *monic* divisor (every tree node is a
// product of monic linears). Skips the quotient, the leading-
// coefficient inversion and all Poly wrapper churn of the generic
// poly_divrem — this is the hot inner loop of tree descent below the
// fast-division crossover. On a SIMD backend the row elimination runs
// lane-wide (same multiplication sequence, so the remainder words are
// bit-identical); rows shorter than two vectors stay on the scalar
// loop, where call overhead would dominate.
void monic_rem_inplace(std::vector<u64>& r, const std::vector<u64>& b,
                       const MontgomeryField& mref, FieldBackend backend) {
  const std::size_t db = b.size() - 1;  // deg b; b.back() == one()
  with_lane_field(backend, mref, [&](const auto& fref) {
    using F = std::decay_t<decltype(fref)>;
    if constexpr (FieldHasBatchKernels<F>) {
      if (db >= 8) {
        while (r.size() > db) {
          const u64 top = r.back();
          r.pop_back();
          if (top == 0) continue;
          fref.submul_inplace(r.data() + (r.size() - db), top, b.data(), db);
        }
        return;
      }
    }
    // By-value copy: the stores through r could alias an object
    // behind a reference, which would force the compiler to reload
    // the Montgomery constants every iteration; a local's fields live
    // in registers.
    const MontgomeryField m = mref;
    while (r.size() > db) {
      const u64 top = r.back();
      r.pop_back();
      if (top == 0) continue;
      u64* rc = r.data() + (r.size() - db);
      for (std::size_t j = 0; j < db; ++j) {
        rc[j] = m.sub(rc[j], m.mul(top, b[j]));
      }
    }
  });
}

// Subproduct tree over a point set: node (level, i) stores the product
// of (x - x_j) over the points in its subtree, with Montgomery-domain
// coefficients. Built for one evaluation or interpolation and dropped.
class SubproductTree {
 public:
  SubproductTree(std::span<const u64> points, const FieldOps& f)
      : mont_(f.mont()), ntt_(f.ntt_tables().get()), backend_(f.backend()) {
    if (points.empty()) {
      throw std::invalid_argument("multipoint: no points");
    }
    std::vector<Poly> level;
    level.reserve(points.size());
    for (u64 x : points) {
      level.push_back(
          Poly::linear_root(mont_.to_mont(f.prime().reduce(x)), mont_));
    }
    levels_.push_back(std::move(level));
    while (levels_.back().size() > 1) {
      const auto& prev = levels_.back();
      std::vector<Poly> next;
      next.reserve((prev.size() + 1) / 2);
      for (std::size_t i = 0; i < prev.size(); i += 2) {
        if (i + 1 < prev.size()) {
          next.push_back(Poly{mul(prev[i].c, prev[i + 1].c)});
        } else {
          next.push_back(prev[i]);  // odd node carried up unchanged
        }
      }
      levels_.push_back(std::move(next));
    }
  }

  std::size_t num_points() const noexcept { return levels_[0].size(); }

  // Values at every point (going-down-the-tree remaindering); the
  // coefficients r and the result are Montgomery-domain.
  std::vector<u64> evaluate(std::vector<u64> r) const {
    std::vector<u64> out(num_points(), 0);
    node_rem(r, levels_.size() - 1, 0);
    eval_rec(r, levels_.size() - 1, 0, 0, num_points(), out);
    return out;
  }

  // Coefficients of the unique polynomial of degree < n through the
  // Montgomery-domain values.
  std::vector<u64> interpolate(std::span<const u64> values) const {
    // Lagrange weights s_i = y_i / m'(x_i) where m = prod (x - x_j).
    const Poly dm = poly_derivative(levels_.back()[0], mont_);
    const std::vector<u64> inv_denom = mont_.batch_inv(evaluate(dm.c));
    std::vector<u64> weighted(values.size());
    with_lane_field(backend_, mont_, [&](const auto& lf) {
      vec_mul(lf, values.data(), inv_denom.data(), weighted.data(),
              values.size());
    });
    return interp_rec(weighted, levels_.size() - 1, 0, 0, num_points());
  }

 private:
  // Product dispatch (fastdiv_detail::mul_full): cached-twiddle NTT
  // when the tables cover the result size, then the generic NTT, then
  // Karatsuba/schoolbook. Used by both the build and the ascent.
  std::vector<u64> mul(std::span<const u64> a, std::span<const u64> b) const {
    return with_lane_field(backend_, mont_, [&](const auto& lf) {
      return fastdiv_detail::mul_full(a, b, lf, ntt_);
    });
  }

  // r := r mod node(level, idx): a Newton-inverse division where
  // fastdiv_pays(), the schoolbook elimination elsewhere. The descent
  // divides by each paired node once, so the inverse is computed on
  // the spot at the quotient's length.
  void node_rem(std::vector<u64>& r, std::size_t level,
                std::size_t idx) const {
    const Poly& b = levels_[level][idx];
    const std::size_t db = b.c.size() - 1;
    while (!r.empty() && r.back() == 0) r.pop_back();
    if (r.size() <= db) return;  // nothing to eliminate
    if (!fastdiv_pays(db, r.size() - db)) {
      monic_rem_inplace(r, b.c, mont_, backend_);
      return;
    }
    Poly rem;
    with_lane_field(backend_, mont_, [&](const auto& lf) {
      poly_divrem_fast(Poly{std::move(r)}, b, lf, nullptr, &rem, ntt_);
    });
    r = std::move(rem.c);
  }

  // Tree descent on a raw (Montgomery-domain) remainder vector; the
  // caller's copy of r is consumed in place along the right spine.
  void eval_rec(std::vector<u64>& r, std::size_t level, std::size_t idx,
                std::size_t lo, std::size_t hi, std::vector<u64>& out) const {
    if (level == 0) {
      // r is already reduced mod (x - x_lo), i.e. it is the value.
      out[lo] = r.empty() ? 0 : r[0];
      return;
    }
    const std::size_t span = std::size_t{1} << (level - 1);
    const std::size_t mid = std::min(hi, lo + span);
    const std::size_t left = 2 * idx;
    const std::size_t right = 2 * idx + 1;
    if (right >= levels_[level - 1].size()) {
      // Single-child node: polynomial is identical, just descend.
      eval_rec(r, level - 1, left, lo, hi, out);
      return;
    }
    std::vector<u64> rl = r;  // left-spine copy, freed per node
    node_rem(rl, level - 1, left);
    eval_rec(rl, level - 1, left, lo, mid, out);
    node_rem(r, level - 1, right);
    eval_rec(r, level - 1, right, mid, hi, out);
  }

  // Interpolation ascent on raw coefficient buffers.
  std::vector<u64> interp_rec(std::span<const u64> weighted, std::size_t level,
                              std::size_t idx, std::size_t lo,
                              std::size_t hi) const {
    if (level == 0) {
      std::vector<u64> p;
      if (weighted[lo] != 0) p.push_back(weighted[lo]);
      return p;
    }
    const std::size_t span = std::size_t{1} << (level - 1);
    const std::size_t mid = std::min(hi, lo + span);
    const auto& child_level = levels_[level - 1];
    const std::size_t left = 2 * idx;
    const std::size_t right = 2 * idx + 1;
    if (right >= child_level.size()) {
      return interp_rec(weighted, level - 1, left, lo, hi);
    }
    const std::vector<u64> pl = interp_rec(weighted, level - 1, left, lo, mid);
    const std::vector<u64> pr =
        interp_rec(weighted, level - 1, right, mid, hi);
    std::vector<u64> sum = mul(pl, child_level[right].c);
    std::vector<u64> other = mul(pr, child_level[left].c);
    if (sum.size() < other.size()) sum.swap(other);
    const MontgomeryField m = mont_;
    for (std::size_t i = 0; i < other.size(); ++i) {
      sum[i] = m.add(sum[i], other[i]);
    }
    while (!sum.empty() && sum.back() == 0) sum.pop_back();
    return sum;
  }

  // levels_[0] = leaves (x - x_i); levels_.back() = {root}.
  std::vector<std::vector<Poly>> levels_;
  const MontgomeryField& mont_;
  const NttTables* ntt_;  // the handle's twiddle tables, or nullptr
  FieldBackend backend_;  // resolved lane backend
};

}  // namespace

std::vector<u64> multipoint_evaluate(const Poly& p, std::span<const u64> xs,
                                     const FieldOps& f) {
  const MontgomeryField& m = f.mont();
  std::vector<u64> out = SubproductTree(xs, f).evaluate(m.to_mont_vec(p.c));
  m.from_mont_inplace(out);
  return out;
}

Poly interpolate(std::span<const u64> xs, std::span<const u64> ys,
                 const FieldOps& f) {
  if (ys.size() != xs.size()) {
    throw std::invalid_argument("interpolate: size mismatch");
  }
  const MontgomeryField& m = f.mont();
  Poly p{SubproductTree(xs, f).interpolate(m.to_mont_vec(ys))};
  m.from_mont_inplace(p.c);
  p.trim();
  return p;
}

namespace {

// prod (1 - r x) over the in-domain roots, truncated to n coefficients,
// as a balanced product tree.
template <class Field>
std::vector<u64> one_minus_product(std::span<const u64> roots, std::size_t n,
                                   const Field& f, const NttTables* tables) {
  std::vector<u64> out;
  if (roots.size() <= 1) {
    out.push_back(f.one());
    if (!roots.empty()) out.push_back(f.neg(roots[0]));
  } else {
    const std::size_t half = roots.size() / 2;
    const std::vector<u64> left =
        one_minus_product(roots.first(half), n, f, tables);
    const std::vector<u64> right =
        one_minus_product(roots.subspan(half), n, f, tables);
    out = fastdiv_detail::mul_full(left, right, f, tables);
  }
  if (out.size() > n) out.resize(n);
  return out;
}

// range_power_sums in the field's own value domain.
template <class Field>
std::vector<u64> power_sums_in_domain(u64 lo, u64 hi, std::size_t n,
                                      const Field& f,
                                      const NttTables* tables) {
  std::vector<u64> s(n, 0);
  if (n == 0 || hi < lo) return s;
  const u64 q = f.modulus();
  // Roots r = 0 mod q contribute the factor 1.
  std::vector<u64> roots;
  for (u64 r = lo;; ++r) {
    if (r % q != 0) roots.push_back(f.from_u64(r));
    if (r == hi) break;
  }
  const std::vector<u64> d = one_minus_product(roots, n, f, tables);
  s[0] = f.from_u64((hi - lo) % q + 1);
  if (n == 1) return s;
  // S_k = -[x^{k-1}] D'/D for k >= 1, so D' and 1/D are needed mod
  // x^{n-1}.
  std::vector<u64> dd(n - 1, 0);
  for (std::size_t k = 1; k < d.size(); ++k) {
    dd[k - 1] = f.mul(f.from_u64(k), d[k]);
  }
  const Poly inv = poly_inverse_series(Poly{d}, n - 1, f, tables);
  const std::vector<u64> ratio = poly_mul_low(dd, inv.c, n - 1, f, tables);
  for (std::size_t k = 1; k < n; ++k) s[k] = f.neg(ratio[k - 1]);
  return s;
}

}  // namespace

std::vector<u64> range_power_sums(u64 lo, u64 hi, std::size_t n,
                                  const FieldOps& f) {
  if (f.backend() == FieldBackend::kPrimeDivision) {
    return power_sums_in_domain(lo, hi, n, f.prime(), nullptr);
  }
  std::vector<u64> s =
      with_lane_field(f.backend(), f.mont(), [&](const auto& lf) {
        return power_sums_in_domain(lo, hi, n, lf, f.ntt_tables().get());
      });
  f.mont().from_mont_inplace(s);
  return s;
}

u64 range_sum(const Poly& p, u64 lo, u64 hi, const FieldOps& f) {
  const std::vector<u64> s = range_power_sums(lo, hi, p.c.size(), f);
  const PrimeField& pf = f.prime();
  u64 total = 0;
  for (std::size_t k = 0; k < s.size(); ++k) {
    total = pf.add(total, pf.mul(p.c[k], s[k]));
  }
  return total;
}

std::vector<u64> range_evaluate(const Poly& p, u64 lo, u64 hi,
                                const FieldOps& f) {
  if (hi < lo) return {};
  std::vector<u64> xs;
  for (u64 r = lo;; ++r) {
    xs.push_back(r);
    if (r == hi) break;
  }
  return multipoint_evaluate(p, xs, f);
}

}  // namespace camelot
