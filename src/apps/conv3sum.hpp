// Convolution3SUM (paper §A.4, Theorem 11(3)).
//
// Given an array A[1..n] of t-bit integers, count the witnesses
// A[i] + A[l] = A[i+l] with i, l <= n/2. The proof polynomial
// composes bitwise interpolations of A with an arithmetized t-bit
// ripple-carry adder (eqs. (41)-(42)):
//   P(x) = sum_{l=1}^{n/2} T(A(x), A(l), A(x+l)),
// and c_i = P(i) counts the witnesses for index i.
#pragma once

#include "core/proof_problem.hpp"

namespace camelot {

class Conv3SumProblem : public CamelotProblem {
 public:
  // `values`: the array (1-indexed conceptually; values[i] is A[i+1]),
  // each < 2^bits; n = values.size() must be even, bits <= 40.
  Conv3SumProblem(std::vector<u64> values, unsigned bits);

  std::string name() const override { return "convolution-3sum"; }
  ProofSpec spec() const override;
  std::unique_ptr<Evaluator> make_evaluator(
      const FieldOps& f) const override;
  // Answers: c_1..c_{n/2} (witness counts per first index).
  std::vector<u64> recover(const Poly& proof, const FieldOps& f) const override;

  std::size_t n() const noexcept { return values_.size(); }

 private:
  std::vector<u64> values_;
  unsigned bits_;
};

// Ground truth O(n^2).
std::vector<u64> conv3sum_brute(const std::vector<u64>& values);

// Arithmetized ripple-carry equality test [y + z = w] for `bits`-bit
// inputs given as field-element bit vectors (exposed for testing the
// gadget in isolation).
u64 ripple_carry_equal(std::span<const u64> y, std::span<const u64> z,
                       std::span<const u64> w, const PrimeField& f);

}  // namespace camelot
