// Hamming distance distribution (paper §A.3, Theorem 11(2)).
//
// For every row i of A and every distance h in 0..t, count the rows of
// B at Hamming distance exactly h. The trick: supply the roots of a
// degree-t test polynomial through auxiliary interpolated inputs
// H_1..H_t so that the proof point i(t+1)+h extracts exactly the
// distance-h count, scaled by prod_{l != h} (h - l).
#pragma once

#include "apps/ov.hpp"

namespace camelot {

class HammingDistributionProblem : public CamelotProblem {
 public:
  HammingDistributionProblem(BoolMatrix a, BoolMatrix b);

  std::string name() const override { return "hamming-distribution"; }
  ProofSpec spec() const override;
  std::unique_ptr<Evaluator> make_evaluator(
      const FieldOps& f) const override;
  // Answers: c_{ih} flattened as i*(t+1)+h for i = 0..n-1, h = 0..t.
  std::vector<u64> recover(const Poly& proof, const FieldOps& f) const override;

  std::size_t n() const noexcept { return a_.rows; }
  std::size_t t() const noexcept { return a_.cols; }

 private:
  // Value of H_j at the point encoding (i, h): the j-th element of
  // {0..t} \ {h} (any fixed enumeration works; see the paper remark).
  u64 h_value(std::size_t j, std::size_t h) const {
    return j < h ? j : j + 1;
  }

  BoolMatrix a_, b_;
};

// Ground truth O(n^2 t): counts[i*(t+1)+h].
std::vector<u64> hamming_distribution_brute(const BoolMatrix& a,
                                            const BoolMatrix& b);

}  // namespace camelot
