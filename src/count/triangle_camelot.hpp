// The sparsity-aware Camelot algorithm for counting triangles
// (paper §6.3, Theorem 3).
//
// Replace the split/sparse outer loop by an indeterminate z (the §3.3
// polynomial extension): the part entries become polynomials
// A_{r'}(z), B_{r'}(z), C_{r'}(z) of degree <= R/m' - 1 and the proof
// polynomial is
//   P(z) = sum_{r'=1}^{m'} A_{r'}(z) B_{r'}(z) C_{r'}(z),
// of degree <= 3(R/m' - 1), with
//   sum_{z0 in [R/m']} P(z0) = trace(ABC) = 6 * #triangles  (eq. 21).
// Evaluation costs ~O(m + R/m) per point — essentially linear in the
// input for m >= n^{omega/2}; the proof has O(R/m) symbols. A node
// walks its chunk in blocks of B = kPointBlock points, point index
// innermost: per block one (R/m') x B outer basis by the factorial
// trick, then per extension the transposed-base Yates pass, the sparse
// scatter and the dense inner Yates pass, each with B columns, and the
// products summed over r'. A block costs B times the per-point work,
// done in lane calls B words wide instead of the 1-64 words of a
// single point.
#pragma once

#include "core/proof_problem.hpp"
#include "count/triangle.hpp"

namespace camelot {

class TriangleCountProblem : public CamelotProblem {
 public:
  // ell_override forces the split parameter (tests/tradeoffs);
  // -1 uses ell = ceil(log_{R0} |D|), the paper's choice.
  TriangleCountProblem(const Graph& g, TrilinearDecomposition dec,
                       int ell_override = -1);

  std::string name() const override { return "count-triangles"; }
  ProofSpec spec() const override;
  std::unique_ptr<Evaluator> make_evaluator(
      const FieldOps& f) const override;
  std::vector<u64> recover(const Poly& proof, const FieldOps& f) const override;

  // Number of proof evaluation points that recover the trace: R/m'.
  u64 num_outer() const noexcept { return num_outer_; }
  u64 part_size() const noexcept { return part_size_; }  // m'
  unsigned ell() const noexcept { return ell_; }

  // The answer is trace(A^3) = 6 * #triangles.
  static BigInt triangles_from_answer(const BigInt& trace);

 private:
  TrilinearDecomposition dec_;
  unsigned t_ = 0;
  unsigned ell_ = 0;
  u64 num_outer_ = 0;
  u64 part_size_ = 0;
  std::size_t n_vertices_ = 0;
  std::vector<SparseEntry> entries_;
};

}  // namespace camelot
