// Counting Boolean orthogonal vectors (paper §A.1, Theorem 11(1)).
//
// Input: A, B in {0,1}^{n x t}. For each row i of A, c_i = number of
// rows of B orthogonal to it. Proof polynomial: P(x) = B(A(x)) with
// A_j interpolating column j of A over the points 1..n and
// B(z) = sum_i prod_j (1 - b_ij z_j)  (eq. (39)); then P(i) = c_i.
// Proof size O~(nt), per-node evaluation O~(nt).
#pragma once

#include "core/proof_problem.hpp"

namespace camelot {

// Row-major boolean matrix.
struct BoolMatrix {
  std::size_t rows = 0, cols = 0;
  std::vector<char> bits;  // rows*cols entries in {0,1}

  char at(std::size_t i, std::size_t j) const { return bits[i * cols + j]; }
  char& at(std::size_t i, std::size_t j) { return bits[i * cols + j]; }

  static BoolMatrix random(std::size_t rows, std::size_t cols, double density,
                           u64 seed);
};

class OrthogonalVectorsProblem : public CamelotProblem {
 public:
  OrthogonalVectorsProblem(BoolMatrix a, BoolMatrix b);

  std::string name() const override { return "orthogonal-vectors"; }
  ProofSpec spec() const override;
  std::unique_ptr<Evaluator> make_evaluator(
      const FieldOps& f) const override;
  // Answers: c_1, ..., c_n.
  std::vector<u64> recover(const Poly& proof, const FieldOps& f) const override;

  std::size_t n() const noexcept { return a_.rows; }
  std::size_t t() const noexcept { return a_.cols; }

 private:
  BoolMatrix a_, b_;
};

// Ground truth O(n^2 t).
std::vector<u64> count_orthogonal_brute(const BoolMatrix& a,
                                        const BoolMatrix& b);

}  // namespace camelot
