#include "yates/poly_ext.hpp"

#include <stdexcept>

#include "field/backend_dispatch.hpp"
#include "yates/yates.hpp"

namespace camelot {

YatesPolynomialExtension::YatesPolynomialExtension(
    const FieldOps& f, std::vector<u64> base, std::size_t t_dim,
    std::size_t s_dim, unsigned k, std::vector<SparseEntry> entries,
    int ell_override)
    : ops_(f),
      field_(f.prime()),
      mont_(f.mont()),
      t_dim_(t_dim),
      s_dim_(s_dim),
      k_(k),
      entries_(std::move(entries)) {
  if (base.size() != t_dim_ * s_dim_) {
    throw std::invalid_argument("YatesPolynomialExtension: base shape");
  }
  if (t_dim_ < s_dim_) {
    throw std::invalid_argument("YatesPolynomialExtension: requires t >= s");
  }
  if (entries_.empty()) {
    throw std::invalid_argument("YatesPolynomialExtension: empty support");
  }
  if (ell_override >= 0) {
    ell_ = std::min<unsigned>(static_cast<unsigned>(ell_override), k_);
  } else {
    unsigned ell = 0;
    while (ipow(t_dim_, ell) < entries_.size() && ell < k_) ++ell;
    ell_ = ell;
  }
  num_outer_ = ipow(t_dim_, k_ - ell_);
  part_size_ = ipow(t_dim_, ell_);
  if (num_outer_ >= field_.modulus()) {
    throw std::invalid_argument(
        "YatesPolynomialExtension: field too small for outer domain");
  }
  // Point-independent precomputation, all in the Montgomery domain:
  // both base tables and the sparse entry values. The canonical table
  // is not retained — the Montgomery copies are the working state.
  base_mont_ = mont_.to_mont_vec(base);
  std::vector<u64> transposed(s_dim_ * t_dim_, 0);
  for (std::size_t i = 0; i < t_dim_; ++i) {
    for (std::size_t j = 0; j < s_dim_; ++j) {
      transposed[j * t_dim_ + i] = base[i * s_dim_ + j];
    }
  }
  base_transposed_mont_ = mont_.to_mont_vec(transposed);
  entry_values_mont_.reserve(entries_.size());
  for (const SparseEntry& se : entries_) {
    entry_values_mont_.push_back(mont_.to_mont(mont_.reduce(se.value)));
  }
}

const ConsecutiveLagrange& YatesPolynomialExtension::lagrange() const {
  if (!lagrange_.has_value()) {
    lagrange_.emplace(1, static_cast<std::size_t>(num_outer_), ops_);
  }
  return *lagrange_;
}

std::vector<u64> YatesPolynomialExtension::evaluate_mont_with_phi(
    std::span<const u64> phi) const {
  const MontgomeryField& m = mont();
  // alpha_j(z0) for every outer digit pattern j in [s^{k-ell}]:
  // a Kronecker-power matrix-vector product with the *transposed*
  // base, computed by classical Yates (eq. (8)). The resolved backend
  // decides whether the push loops run scalar or on SIMD lanes.
  const FieldBackend backend = ops_.backend();
  std::vector<u64> alpha = with_lane_field(backend, m, [&](const auto& lf) {
    return yates_apply(lf, base_transposed_mont_, s_dim_, t_dim_, phi,
                       k_ - ell_);
  });

  // Scatter the sparse input, weighting entry j by alpha_{suffix(j)}.
  const u64 suffix_size = ipow(s_dim_, k_ - ell_);
  std::vector<u64> x_ell(ipow(s_dim_, ell_), 0);
  for (std::size_t n = 0; n < entries_.size(); ++n) {
    const SparseEntry& se = entries_[n];
    const u64 j_prefix = se.index / suffix_size;
    const u64 j_suffix = se.index % suffix_size;
    const u64 w = alpha[j_suffix];
    if (w == 0) continue;
    x_ell[j_prefix] = m.add(x_ell[j_prefix], m.mul(w, entry_values_mont_[n]));
  }
  // Dense Yates over the inner digits.
  return with_lane_field(backend, m, [&](const auto& lf) {
    return yates_apply(lf, base_mont_, t_dim_, s_dim_, x_ell, ell_);
  });
}

std::vector<u64> YatesPolynomialExtension::evaluate(u64 z0) const {
  // Phi_i(z0) for the outer domain 1..t^{k-ell} (eq. (6), computed by
  // the factorial trick in O(t^{k-ell})), then the domain pipeline
  // with one boundary conversion on the way out.
  std::vector<u64> out =
      evaluate_mont_with_phi(lagrange().basis_mont(z0));
  mont().from_mont_inplace(out);
  return out;
}

}  // namespace camelot
