#include "poly/lagrange.hpp"

#include <algorithm>
#include <stdexcept>
#include <type_traits>

#include "field/backend_dispatch.hpp"
#include "field/montgomery_lanes.hpp"

namespace camelot {

ConsecutiveLagrange::ConsecutiveLagrange(u64 start, std::size_t count,
                                         const FieldOps& f)
    : m_(f.mont()),
      start_(f.prime().reduce(start)),
      count_(count),
      backend_(f.backend()) {
  if (count == 0) throw std::invalid_argument("lagrange_basis: empty");
  if (count >= f.modulus()) {
    throw std::invalid_argument("lagrange_basis: more nodes than field");
  }
  nodes_mont_.resize(count);
  u64 node = m_.to_mont(start_);
  for (std::size_t i = 0; i < count; ++i) {
    nodes_mont_[i] = node;
    node = m_.add(node, m_.one());
  }
  // Factorials F_0..F_{count-1} in the Montgomery domain.
  std::vector<u64> fact(count);
  fact[0] = m_.one();
  u64 i_m = m_.zero();
  for (std::size_t i = 1; i < count; ++i) {
    i_m = m_.add(i_m, m_.one());  // Montgomery form of i
    fact[i] = m_.mul(fact[i - 1], i_m);
  }
  // Point-independent denominator parts, inverted once. Under a SIMD
  // backend the factorial cross products run on lanes (same words —
  // lane REDC is bit-identical to scalar); the alternating sign stays
  // a scalar pass either way.
  std::vector<u64> w(count);
  with_lane_field(backend_, m_, [&](const auto& lf) {
    using F = std::decay_t<decltype(lf)>;
    if constexpr (FieldHasBatchKernels<F>) {
      std::vector<u64> rev_fact(count);
      for (std::size_t i = 0; i < count; ++i) {
        rev_fact[i] = fact[count - 1 - i];
      }
      lf.mul_vec(fact.data(), rev_fact.data(), w.data(), count);
    } else {
      for (std::size_t i = 0; i < count; ++i) {
        w[i] = m_.mul(fact[i], fact[count - 1 - i]);
      }
    }
  });
  for (std::size_t i = 0; i < count; ++i) {
    if ((count - 1 - i) % 2 == 1) w[i] = m_.neg(w[i]);
  }
  inv_w_ = m_.batch_inv(w);
}

std::vector<u64> ConsecutiveLagrange::basis_mont(u64 x0) const {
  // By-value copy keeps the Montgomery constants in registers across
  // the out/diff stores (the member reference could alias them).
  const MontgomeryField m = m_;
  std::vector<u64> out(count_, 0);
  const u64 x0_m = m.from_u64(x0);
  // diff[i] = x0 - node_i in the Montgomery domain; detect x0 hitting
  // a node (zero is zero in either domain).
  std::vector<u64> diff(count_);
  if (lanes()) {
    return with_lane_field(backend_, m, [&](const auto& lf) {
      using F = std::decay_t<decltype(lf)>;
      if constexpr (FieldHasBatchKernels<F>) {
        lf.sub_from_scalar(x0_m, nodes_mont_.data(), diff.data(), count_);
      }
      for (std::size_t i = 0; i < count_; ++i) {
        if (diff[i] == 0) {
          out[i] = m.one();
          return std::move(out);  // basis collapses to an indicator
        }
      }
      // The prefix/suffix sweeps are loop-carried product chains and
      // stay scalar; the final per-node basis products run on lanes.
      std::vector<u64> suffix(count_), prefix(count_);
      u64 acc = m.one();
      for (std::size_t i = count_; i-- > 0;) {
        suffix[i] = acc;
        acc = m.mul(acc, diff[i]);
      }
      acc = m.one();
      for (std::size_t i = 0; i < count_; ++i) {
        prefix[i] = acc;
        acc = m.mul(acc, diff[i]);
      }
      if constexpr (FieldHasBatchKernels<F>) {
        lf.mul_vec(prefix.data(), suffix.data(), out.data(), count_);
        lf.mul_vec(out.data(), inv_w_.data(), out.data(), count_);
      }
      return std::move(out);
    });
  }
  for (std::size_t i = 0; i < count_; ++i) {
    diff[i] = m.sub(x0_m, nodes_mont_[i]);
    if (diff[i] == 0) {
      out[i] = m.one();
      return out;  // basis collapses to an indicator
    }
  }
  // L_i = (prod_{j != i} diff_j) * inv_w_i, via prefix/suffix
  // products — no inversion at the evaluation point.
  std::vector<u64> suffix(count_);
  u64 acc = m.one();
  for (std::size_t i = count_; i-- > 0;) {
    suffix[i] = acc;
    acc = m.mul(acc, diff[i]);
  }
  u64 prefix = m.one();
  for (std::size_t i = 0; i < count_; ++i) {
    out[i] = m.mul(m.mul(prefix, suffix[i]), inv_w_[i]);
    prefix = m.mul(prefix, diff[i]);
  }
  return out;
}

std::vector<u64> ConsecutiveLagrange::basis_mont_block(
    std::span<const u64> xs) const {
  std::vector<u64> out;
  basis_mont_block(xs, out);
  return out;
}

void ConsecutiveLagrange::basis_mont_block(std::span<const u64> xs,
                                           std::vector<u64>& out) const {
  const MontgomeryField m = m_;
  const std::size_t width = xs.size();
  out.resize(count_ * width);
  std::vector<u64> x(width);
  for (std::size_t b = 0; b < width; ++b) x[b] = m.from_u64(xs[b]);
  with_lane_field(backend_, m, [&](const auto& lf) {
    using F = std::decay_t<decltype(lf)>;
    if constexpr (FieldHasBatchKernels<F>) {
      lf.lagrange_block(nodes_mont_.data(), inv_w_.data(), count_, x.data(),
                        width, out.data());
    } else {
      // The reference loop, one chain after the other: the suffix chain
      // stores prod_{j > i} (x_b - node_j) times inv_w_i into row i,
      // then the prefix chain multiplies prod_{j < i} in.
      std::vector<u64> chain(width, m.one());
      for (std::size_t i = count_; i-- > 0;) {
        u64* row = out.data() + i * width;
        for (std::size_t b = 0; b < width; ++b) {
          row[b] = m.mul(chain[b], inv_w_[i]);
          chain[b] = m.mul(chain[b], m.sub(x[b], nodes_mont_[i]));
        }
      }
      std::fill(chain.begin(), chain.end(), m.one());
      for (std::size_t i = 0; i < count_; ++i) {
        u64* row = out.data() + i * width;
        for (std::size_t b = 0; b < width; ++b) {
          row[b] = m.mul(row[b], chain[b]);
          chain[b] = m.mul(chain[b], m.sub(x[b], nodes_mont_[i]));
        }
      }
    }
  });
}

std::vector<u64> ConsecutiveLagrange::basis(u64 x0) const {
  std::vector<u64> out = basis_mont(x0);
  m_.from_mont_inplace(out);
  return out;
}

u64 ConsecutiveLagrange::eval(std::span<const u64> values, u64 x0) const {
  if (values.size() != count_) {
    throw std::invalid_argument("ConsecutiveLagrange::eval: size mismatch");
  }
  const std::vector<u64> basis = basis_mont(x0);
  // mont_mul(bR, v) = b*v with no conversion: the Montgomery factor of
  // the basis cancels against the reduction, so plain values in, plain
  // accumulator out.
  if (lanes()) {
    std::vector<u64> reduced(count_);
    for (std::size_t i = 0; i < count_; ++i) reduced[i] = m_.reduce(values[i]);
    // Mod-q addition is exact, so the lane-reassociated dot matches
    // the sequential fold bit-for-bit.
    return with_lane_field(backend_, m_, [&](const auto& lf) -> u64 {
      using F = std::decay_t<decltype(lf)>;
      if constexpr (FieldHasBatchKernels<F>) {
        return lf.dot(basis.data(), reduced.data(), count_);
      } else {
        return 0;  // unreachable: lanes() implies a SIMD backend
      }
    });
  }
  u64 acc = 0;
  for (std::size_t i = 0; i < count_; ++i) {
    acc = m_.add(acc, m_.mul(basis[i], m_.reduce(values[i])));
  }
  return acc;
}

std::vector<u64> lagrange_basis_consecutive(u64 start, std::size_t count,
                                            u64 x0, const PrimeField& f) {
  return ConsecutiveLagrange(start, count, f).basis(x0);
}

u64 lagrange_eval_consecutive(u64 start, std::span<const u64> values, u64 x0,
                              const PrimeField& f) {
  return ConsecutiveLagrange(start, values.size(), f).eval(values, x0);
}

}  // namespace camelot
