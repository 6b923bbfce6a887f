// Polynomial extension of the split/sparse Yates algorithm (paper
// §3.3): the outer loop of the split/sparse algorithm is replaced by a
// polynomial indeterminate z. Evaluating at z0 = outer+1 reproduces
// exactly the split/sparse part `outer`; evaluating at arbitrary
// z0 in Z_q extends each part entry to a univariate polynomial of
// degree at most t^{k-ell} - 1 — the raw material of the triangle
// proof polynomial (Theorem 3, §6.3).
//
// The outer-loop iterations are identified with the field points
// 1, 2, ..., t^{k-ell} (the paper's [t^{k-ell}]).
//
// Evaluation runs on a block of B points at once, point index
// innermost, so every lane call of the prime's resolved backend covers
// the whole block: the transposed-base Yates pass on the R x B basis
// (R = t^{k-ell}), the sparse scatter as one lane call of width B per
// entry, then the dense inner Yates pass. All tables (base matrix,
// transposed base, sparse entry values) and the Lagrange factorial
// cache are built in the Montgomery domain at construction, and the
// pipeline never leaves it.
#pragma once

#include <span>

#include "poly/lagrange.hpp"
#include "yates/split_sparse.hpp"

namespace camelot {

class YatesPolynomialExtension {
 public:
  // Takes the field backend handle; the Montgomery context is shared
  // with the handle (and, through FieldCache, with every other
  // extension over the same prime). A bare PrimeField converts
  // implicitly for stand-alone use. Throws std::invalid_argument when
  // an entry index is not below s^k, like SplitSparseYates.
  YatesPolynomialExtension(const FieldOps& f, std::vector<u64> base,
                           std::size_t t_dim, std::size_t s_dim, unsigned k,
                           const std::vector<SparseEntry>& entries,
                           int ell_override = -1);

  unsigned ell() const noexcept { return ell_; }
  u64 num_outer() const noexcept { return num_outer_; }  // t^{k-ell}
  u64 part_size() const noexcept { return part_size_; }  // t^ell
  // Degree bound of each part-entry polynomial u_{i_1..i_ell}(z).
  u64 poly_degree_bound() const noexcept { return num_outer_ - 1; }

  const MontgomeryField& mont() const noexcept { return ops_.mont(); }
  // The outer-domain Lagrange cache (nodes 1..t^{k-ell}).
  const ConsecutiveLagrange& lagrange() const noexcept { return lagrange_; }

  // Values u_{i_1..i_ell}(z0) for all t^ell inner indices, canonical
  // representatives: a one-point block. Runs in O(|D| + t^{k-ell})
  // plus the ell-level dense Yates, per §3.3.
  std::vector<u64> evaluate(u64 z0) const;

  // The evaluation pipeline for `width` points, Montgomery domain in
  // and out. phi is the outer basis lagrange().basis_mont_block(xs)
  // (t^{k-ell} rows of `width` columns); the result holds t^ell rows
  // laid out the same way, u_inner(xs[b]) at inner * width + b.
  // Extensions built from the same decomposition share phi, so a
  // caller combining three of them (count/triangle_camelot) computes
  // the basis once per block.
  std::vector<u64> evaluate_block_mont(std::span<const u64> phi,
                                       std::size_t width) const;

 private:
  // One sparse entry: row `prefix` of x^(ell) gains `value` times row
  // `suffix` of the outer transform.
  struct Scatter {
    u64 prefix, suffix, value;  // value in the Montgomery domain
  };

  FieldOps ops_;
  std::size_t t_dim_, s_dim_;
  unsigned k_;
  unsigned ell_;
  u64 num_outer_;
  u64 part_size_;
  std::vector<u64> base_mont_;  // Montgomery domain
  std::vector<u64> base_transposed_mont_;
  std::vector<Scatter> scatter_;
  ConsecutiveLagrange lagrange_;
};

}  // namespace camelot
