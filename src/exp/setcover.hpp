// Counting t-element set covers (paper §A.6, Theorem 9).
//
// c_t(F) = #{(X_1..X_t) in F^t : union = [n]} via inclusion-exclusion
//   c_t(F) = sum_{Y subseteq [n]} (-1)^{n-|Y|} |{X in F : X subseteq Y}|^t.
// The proof polynomial is F_t(D(x)) (eqs. (43), (45)): the first half
// of the Y-indicator comes from the interpolated vector D(x), the
// second half is summed explicitly; c_t(F) = sum_{i=0}^{2^{n/2}-1} P(i).
// Per-node time O*(2^{n/2} |F|): fine for polynomial-size families
// (the remark in §A.6 explains why *large* families need the §7
// template instead — see exp/setpartition.hpp).
#pragma once

#include "core/proof_problem.hpp"

namespace camelot {

class SetCoverProblem : public CamelotProblem {
 public:
  // `family`: subset masks over {0..n-1}; even n, 2 <= n <= 30.
  SetCoverProblem(std::size_t n, std::vector<u64> family, u64 t);

  std::string name() const override { return "set-covers"; }
  ProofSpec spec() const override;
  std::unique_ptr<Evaluator> make_evaluator(
      const FieldOps& f) const override;
  std::vector<u64> recover(const Poly& proof, const FieldOps& f) const override;

 private:
  std::size_t n_;
  std::vector<u64> family_;
  u64 t_;
};

// Ground truth by direct inclusion-exclusion over 2^n (tests only).
BigInt count_set_covers_brute(std::size_t n, const std::vector<u64>& family,
                              u64 t);

}  // namespace camelot
