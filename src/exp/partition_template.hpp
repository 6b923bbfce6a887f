// The proof template for partitioning sum-products (paper §7).
//
// Universe U = E u B with E "explicit" and B "bits". Element j of B
// carries the Kronecker weight 2^j; a multiset of |B| weights sums to
// 2^|B| - 1 iff it is exactly B, which is what turns the partitioning
// condition into a single coefficient of a univariate polynomial:
//
//   P(x) = sum_s p_s x^s,  p_s as in eq. (25);  the partitioning
//   sum-product (22) is the coefficient p_{2^|B|-1}.
//
// A node evaluates P(x0) by computing the function
//   g(Y) = sum_{X subseteq U, X cap E subseteq Y}
//            f(X) wE^{|X cap E|} wB^{|X cap B|} x0^{sum weights}
// as a table of *truncated bivariate polynomials* in (wE, wB) —
// degrees capped at (|E|, |B|), which is sound because multiplication
// never lowers degrees — then extracting the (|E|, |B|) coefficient of
// a(wE,wB) = sum_Y (-1)^{|E \ Y|} g(Y)^t  (eqs. (28)-(29)).
//
// This header supplies the problem/evaluator base classes; concrete
// problems (exact covers §8, chromatic §9, Tutte §10) only provide the
// g-table computation within the O*(2^|E|) budget.
//
// Generalizations implemented for the instantiations:
//  * several part counts t at once (the chromatic polynomial needs
//    chi(1..n+1)): proofs are concatenated in disjoint degree blocks
//    P(x) = sum_i x^{i (d0+1)} P_{t_i}(x), d0 = |B| 2^{|B|-1};
//  * several "groups" with distinct inner functions f (the Tutte
//    polynomial needs a grid over the edge weight r): one block per
//    (group, t) pair, sharing the per-x0 precomputation.
#pragma once

#include "core/proof_problem.hpp"

namespace camelot {

// Truncated bivariate table helpers: slot (i, j) <-> i*(nb+1)+j holds
// the coefficient of wE^i wB^j, 0 <= i <= ne, 0 <= j <= nb.
struct Bivariate {
  static std::size_t stride(unsigned ne, unsigned nb) {
    return static_cast<std::size_t>(ne + 1) * (nb + 1);
  }
  // c += a * b, truncated to degrees (ne, nb).
  static void mul_acc(const u64* a, const u64* b, u64* c, unsigned ne,
                      unsigned nb, const PrimeField& f);
};

class PartitionTemplateProblem : public CamelotProblem {
 public:
  // `t_values` ascending, all >= 1. One proof block per (group, t).
  PartitionTemplateProblem(unsigned n_explicit, unsigned n_bits,
                           std::size_t num_groups, std::vector<u64> t_values,
                           BigInt answer_bound, std::string name);

  std::string name() const override { return name_; }
  ProofSpec spec() const override;
  std::vector<u64> recover(const Poly& proof, const FieldOps& f) const override;

  unsigned n_explicit() const noexcept { return ne_; }
  unsigned n_bits() const noexcept { return nb_; }
  std::size_t num_groups() const noexcept { return num_groups_; }
  const std::vector<u64>& t_values() const noexcept { return t_values_; }
  // Per-block degree bound d0 = |B| * 2^{|B|-1}.
  u64 block_degree() const noexcept { return block_degree_; }
  // Index of the answer coefficient inside a block: 2^|B| - 1.
  u64 answer_offset() const noexcept {
    return (u64{1} << nb_) - 1;
  }
  // Answers are ordered group-major: (group, t_idx).
  std::size_t block_index(std::size_t group, std::size_t t_idx) const {
    return group * t_values_.size() + t_idx;
  }

 private:
  unsigned ne_, nb_;
  std::size_t num_groups_;
  std::vector<u64> t_values_;
  BigInt answer_bound_;
  std::string name_;
  u64 block_degree_;
};

// Implements eval(x0) from a subclass-provided g table.
class PartitionEvaluatorBase : public Evaluator {
 public:
  u64 eval(u64 x0) final;

 protected:
  PartitionEvaluatorBase(const FieldOps& f,
                         const PartitionTemplateProblem& problem);

  // Called once per evaluation point before any g_table call; compute
  // anything that depends on x0 (e.g. the weights x0^{2^j}).
  virtual void prepare(u64 x0) = 0;
  // Truncated-bivariate table of g for the given group:
  // 2^{|E|} * stride entries, slot layout as in Bivariate.
  virtual std::vector<u64> g_table(std::size_t group) = 0;

  // x0^{2^j} ladder (j <= |B|): the Kronecker substitution weights,
  // shared by every instantiation.
  std::vector<u64> bit_weights(u64 x0) const;

  const PartitionTemplateProblem& problem_;
};

}  // namespace camelot
