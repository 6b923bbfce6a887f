// Counting Boolean orthogonal vectors (paper §A.1, Theorem 11(1)).
//
// Input: A, B in {0,1}^{n x t}. For each row i of A, c_i = number of
// rows of B orthogonal to it. Proof polynomial: P(x) = B(A(x)) with
// A_j interpolating column j of A over the points 1..n and
// B(z) = sum_i prod_j (1 - b_ij z_j)  (eq. (39)); then P(i) = c_i.
// Proof size O~(nt), per-node evaluation O~(nt).
//
// The evaluator walks its chunk in blocks of kPointBlock points, point
// index innermost, in the Montgomery domain: each lane call covers the
// whole block. Per point that is 4n multiplies for the Lagrange basis
// (ConsecutiveLagrange::basis_mont_block), |A| adds for the z_j (one
// per set bit of A, from lists built once per problem), t subtractions
// for 1 - z_j, |B| - r multiplies for the products of the r nonempty
// rows of B and r adds for their sum, where |A| and |B| count set bits.
// No branch depends on a bit of A or B. On the 48 x 24, density 0.35
// shape of the ov-service benchmark that is about 192 + 403 + 24 + 355
// + 48 = 1022 lane operations per point, 547 of them multiplies.
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

  // The set bits the evaluator reads, listed once per problem: column j
  // of A has its set rows at a_rows[a_col_start[j] .. a_col_start[j+1]),
  // and the r-th nonempty row of B its set columns at
  // b_cols[b_row_start[r] .. b_row_start[r+1]).
  struct SetBits {
    std::vector<u32> a_rows, b_cols;
    std::vector<std::size_t> a_col_start, b_row_start;
    u64 empty_b_rows = 0;
  };

 private:
  BoolMatrix a_, b_;
  SetBits bits_;
};

// Ground truth O(n^2 t).
std::vector<u64> count_orthogonal_brute(const BoolMatrix& a,
                                        const BoolMatrix& b);

}  // namespace camelot
