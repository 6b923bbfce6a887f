#include "yates/poly_ext.hpp"

#include <algorithm>
#include <stdexcept>

#include "field/backend_dispatch.hpp"
#include "yates/yates.hpp"

namespace camelot {

namespace {

// Validates the shape before anything is built and returns ell.
unsigned checked_ell(std::size_t base_size, std::size_t t_dim,
                     std::size_t s_dim, unsigned k,
                     const std::vector<SparseEntry>& entries,
                     int ell_override, u64 modulus) {
  if (base_size != t_dim * s_dim) {
    throw std::invalid_argument("YatesPolynomialExtension: base shape");
  }
  if (t_dim < s_dim) {
    throw std::invalid_argument("YatesPolynomialExtension: requires t >= s");
  }
  if (entries.empty()) {
    throw std::invalid_argument("YatesPolynomialExtension: empty support");
  }
  const u64 domain = ipow(s_dim, k);
  for (const SparseEntry& se : entries) {
    if (se.index >= domain) {
      throw std::invalid_argument(
          "YatesPolynomialExtension: index out of range");
    }
  }
  unsigned ell = 0;
  if (ell_override >= 0) {
    ell = std::min<unsigned>(static_cast<unsigned>(ell_override), k);
  } else {
    while (ipow(t_dim, ell) < entries.size() && ell < k) ++ell;
  }
  if (ipow(t_dim, k - ell) >= modulus) {
    throw std::invalid_argument(
        "YatesPolynomialExtension: field too small for outer domain");
  }
  return ell;
}

}  // namespace

YatesPolynomialExtension::YatesPolynomialExtension(
    const FieldOps& f, std::vector<u64> base, std::size_t t_dim,
    std::size_t s_dim, unsigned k, const std::vector<SparseEntry>& entries,
    int ell_override)
    : ops_(f),
      t_dim_(t_dim),
      s_dim_(s_dim),
      k_(k),
      ell_(checked_ell(base.size(), t_dim, s_dim, k, entries, ell_override,
                       f.modulus())),
      num_outer_(ipow(t_dim, k - ell_)),
      part_size_(ipow(t_dim, ell_)),
      lagrange_(1, static_cast<std::size_t>(num_outer_), f) {
  // Point-independent precomputation, all in the Montgomery domain:
  // both base tables and the sparse entries, split into their inner
  // (first ell) and outer (last k-ell) digits. The canonical table is
  // not retained — the Montgomery copies are the working state.
  const MontgomeryField& m = mont();
  base_mont_ = m.to_mont_vec(base);
  std::vector<u64> transposed(s_dim_ * t_dim_, 0);
  for (std::size_t i = 0; i < t_dim_; ++i) {
    for (std::size_t j = 0; j < s_dim_; ++j) {
      transposed[j * t_dim_ + i] = base[i * s_dim_ + j];
    }
  }
  base_transposed_mont_ = m.to_mont_vec(transposed);
  const u64 suffix_size = ipow(s_dim_, k_ - ell_);
  scatter_.reserve(entries.size());
  for (const SparseEntry& se : entries) {
    scatter_.push_back({se.index / suffix_size, se.index % suffix_size,
                        m.to_mont(m.reduce(se.value))});
  }
}

std::vector<u64> YatesPolynomialExtension::evaluate_block_mont(
    std::span<const u64> phi, std::size_t width) const {
  if (width == 0 || phi.size() != num_outer_ * width) {
    throw std::invalid_argument(
        "YatesPolynomialExtension: basis is not t^{k-ell} x width");
  }
  // The resolved backend decides whether the lane calls run scalar or
  // on SIMD lanes.
  return with_lane_field(ops_.backend(), mont(), [&](const auto& lf) {
    // alpha_j(x_b) for every outer digit pattern j in [s^{k-ell}]: a
    // Kronecker-power matrix-vector product with the *transposed*
    // base, computed by classical Yates (eq. (8)), one column per
    // point.
    const std::vector<u64> alpha = yates_apply(
        lf, base_transposed_mont_, s_dim_, t_dim_, phi, k_ - ell_, width);
    // Scatter the sparse input, weighting entry j by alpha_{suffix(j)}.
    // Adjacency entries are the unit, so they take the add path.
    const u64 unit = lf.one();
    std::vector<u64> x_ell(ipow(s_dim_, ell_) * width, 0);
    for (const Scatter& e : scatter_) {
      u64* dst = x_ell.data() + e.prefix * width;
      const u64* src = alpha.data() + e.suffix * width;
      if (e.value == unit) {
        vec_add(lf, dst, src, width);
      } else {
        vec_addmul(lf, dst, e.value, src, width);
      }
    }
    // Dense Yates over the inner digits.
    return yates_apply(lf, base_mont_, t_dim_, s_dim_, x_ell, ell_, width);
  });
}

std::vector<u64> YatesPolynomialExtension::evaluate(u64 z0) const {
  // Phi_i(z0) for the outer domain 1..t^{k-ell} (eq. (6), computed by
  // the factorial trick in O(t^{k-ell})), then the block pipeline with
  // one boundary conversion on the way out.
  std::vector<u64> out =
      evaluate_block_mont(lagrange_.basis_mont_block({&z0, 1}), 1);
  mont().from_mont_inplace(out);
  return out;
}

}  // namespace camelot
