#include "count/form62_block.hpp"

#include <algorithm>
#include <stdexcept>

#include "field/backend_dispatch.hpp"
#include "yates/yates.hpp"

namespace camelot {

Form62Coefficients::Form62Coefficients(const TrilinearDecomposition& dec,
                                       unsigned t, const FieldOps& f)
    : ops_(f),
      n0_(dec.n0),
      rank0_(dec.rank),
      t_(t),
      lagrange_(1, static_cast<std::size_t>(ipow(dec.rank, t)), f) {
  const MontgomeryField& m = f.mont();
  alpha_table_ = m.to_mont_vec(dec.alpha_mod(f.prime()));
  beta_table_ = m.to_mont_vec(dec.beta_mod(f.prime()));
  gamma_table_ = m.to_mont_vec(dec.gamma_mod(f.prime()));
}

void Form62Coefficients::interpolate(std::span<const u64> xs,
                                     Form62Blocks& out) const {
  const std::size_t width = xs.size();
  // Step 1: Lambda_r(x_b) for r = 1..R, R rows of `width` points.
  lagrange_.basis_mont_block(xs, out.lambda);
  out.width = width;
  out.n0 = n0_;
  out.t = t_;
  with_lane_field(ops_.backend(), ops_.mont(), [&](const auto& lf) {
    // Step 2: one Yates transform per table for the whole block (eq.
    // (17)), left in its interleaved (d, e) row order.
    const auto transform = [&](const std::vector<u64>& table,
                               std::vector<u64>& dst) {
      yates_apply(lf, table, n0_ * n0_, rank0_, out.lambda, t_, width, dst,
                  out.scratch);
    };
    transform(alpha_table_, out.alpha);
    transform(beta_table_, out.beta);
    transform(gamma_table_, out.gamma);
  });
}

Form62BlockCircuit::Form62BlockCircuit(const Form62Input& in,
                                       const FieldOps& f)
    : ops_(f), n_(in.size()) {
  if (!in.well_formed()) {
    throw std::invalid_argument(
        "Form62BlockCircuit: matrices must be square, non-empty and of "
        "one size");
  }
  for (std::size_t p = 0; p < mats_.size(); ++p) {
    mats_[p] = f.mont().to_mont_vec(in.mats[p].data());
  }
  chi23_t_ = f.mont().to_mont_vec(in.pair(2, 3).transposed().data());
}

void Form62BlockCircuit::evaluate(const Form62Blocks& blocks, u64* out,
                                  std::vector<u64>& scratch) const {
  const std::size_t cells = n_ * n_ * blocks.width;
  if (blocks.alpha.size() != cells || blocks.beta.size() != cells ||
      blocks.gamma.size() != cells) {
    throw std::invalid_argument("Form62BlockCircuit: block shape mismatch");
  }
  with_lane_field(ops_.backend(), ops_.mont(), [&](const auto& lf) {
    run(lf, blocks, out, scratch);
  });
}

template <class F>
void Form62BlockCircuit::run(const F& f, const Form62Blocks& in, u64* out,
                             std::vector<u64>& scratch) const {
  const std::size_t n = n_, w = in.width, row = n * w, whole = n * row;
  const u64 unit = f.one();
  scratch.resize(5 * whole + row + n);
  u64* v = scratch.data();  // the masked operand of the next product
  u64* t1 = v + whole;      // H, K, L in turn
  u64* at = t1 + whole;     // A^T
  u64* bt = at + whole;     // B^T
  u64* c = bt + whole;
  u64* tmp = c + whole;  // one row
  // Entry (i, j) of an input block sits in row n0 * spread[i] +
  // spread[j], spread[j] = interleave_pair_index(0, j): the base-n0
  // digits of j read in base n0^2.
  u64* spread = tmp + row;
  for (std::size_t j = 0; j < n; ++j) {
    spread[j] = interleave_pair_index(0, j, in.n0, in.t);
  }
  const auto chi = [&](int s, int t) -> const std::vector<u64>& {
    return mats_[form62_pair_index(s, t)];
  };
  // dst(i, j), or dst(j, i) when `transpose`, = mask_ij * src(i, j);
  // src is row-major, or a block in its interleaved order when
  // `interleaved`.
  const auto masked = [&](const u64* src, bool interleaved,
                          const std::vector<u64>& mask, bool transpose,
                          u64* dst) {
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        const u64* s =
            src + (interleaved ? in.n0 * spread[i] + spread[j] : i * n + j) * w;
        u64* d = dst + (transpose ? j * n + i : i * n + j) * w;
        const u64 weight = mask[i * n + j];
        if (weight == 0) {
          std::fill(d, d + w, 0);
        } else if (weight == unit) {
          std::copy(s, s + w, d);
        } else {
          vec_scale(f, s, weight, d, w);
        }
      }
    }
  };
  // dst = S V for a fixed matrix S: row i of dst gathers S_ik times
  // row k of V, one sweep of n * w words per nonzero S_ik.
  const auto product = [&](const std::vector<u64>& s, const u64* vm,
                           u64* dst) {
    std::fill(dst, dst + whole, 0);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t k = 0; k < n; ++k) {
        const u64 weight = s[i * n + k];
        if (weight == 0) continue;
        if (weight == unit) {
          vec_add(f, dst + i * row, vm + k * row, row);
        } else {
          vec_addmul(f, dst + i * row, weight, vm + k * row, row);
        }
      }
    }
  };
  // H = chi15 (alpha o chi45)^T, then A^T = chi24 (chi14 o H)^T.
  masked(in.alpha.data(), true, chi(4, 5), true, v);
  product(chi(1, 5), v, t1);
  masked(t1, false, chi(1, 4), true, v);
  product(chi(2, 4), v, at);
  // K = chi26 (beta o chi56)^T, then B^T = chi35 (chi25 o K)^T.
  masked(in.beta.data(), true, chi(5, 6), true, v);
  product(chi(2, 6), v, t1);
  masked(t1, false, chi(2, 5), true, v);
  product(chi(3, 5), v, bt);
  // L = chi34 (gamma o chi46), then C = chi16 (chi36 o L)^T.
  masked(in.gamma.data(), true, chi(4, 6), false, v);
  product(chi(3, 4), v, t1);
  masked(t1, false, chi(3, 6), true, v);
  product(chi(1, 6), v, c);
  // X = chi13 o C into v, Y = chi23 o B into t1 (row b of Y is
  // column b of B^T).
  masked(c, false, chi(1, 3), false, v);
  masked(bt, false, chi23_t_, true, t1);
  // P = sum_ab chi12_ab A_ab Q_ab with Q_ab = sum_c X_ac Y_bc: one
  // row product, then a halving fold over c.
  std::fill(out, out + w, 0);
  const std::vector<u64>& chi12 = chi(1, 2);
  for (std::size_t a = 0; a < n; ++a) {
    for (std::size_t b = 0; b < n; ++b) {
      const u64 weight = chi12[a * n + b];
      if (weight == 0) continue;
      vec_mul(f, v + a * row, t1 + b * row, tmp, row);
      for (std::size_t len = n; len > 1;) {
        const std::size_t half = len / 2;
        vec_add(f, tmp, tmp + (len - half) * w, half * w);
        len -= half;
      }
      vec_mul(f, tmp, at + (b * n + a) * w, tmp, w);
      if (weight == unit) {
        vec_add(f, out, tmp, w);
      } else {
        vec_addmul(f, out, weight, tmp, w);
      }
    }
  }
}

}  // namespace camelot
