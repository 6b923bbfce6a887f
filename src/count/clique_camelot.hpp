// The Camelot algorithm for counting small cliques (paper §5,
// Theorem 1).
//
// Proof polynomial (§5.2): extend the rank coefficients of the
// Kronecker-power decomposition into Lagrange interpolation
// polynomials over the points 1..R,
//   alpha_de(x) = sum_r alpha_de(r) Lambda_r(x)   (eq. (14)),
// and substitute into the circuit (15)-(16); P(x) then has degree at
// most 3(R-1), and X(6,2) = sum_{r=1}^{R} P(r) (Theorem 13).
//
// Evaluation algorithm (§5.3), run by a node over its chunk of points
// in blocks of B = kPointBlock points (count/form62_block.hpp), the
// point index innermost so each lane call covers the whole block:
//   1. the factorial trick for Lambda_r(x_b), r = 1..R, as one R x B
//      block: the prefix and suffix product chains along r advance
//      together in one sweep from both ends, lanes across the B
//      points and the running products in registers, O(R) per point
//      and no inversion;
//   2. Yates's algorithm on the Kronecker-structured coefficient
//      tables (eq. (17)) with B columns, giving alpha_de(x_b),
//      beta_ef(x_b), gamma_df(x_b) for all d,e,f as n x n x B blocks
//      in O(R t) per point; each level reads its input once and
//      writes each output once, its +-1 weights as adds and
//      subtracts, and the blocks stay in the transforms' interleaved
//      row order;
//   3. the circuit's eight N x N matrix products (15)-(16) on those
//      blocks, in the Montgomery domain on the prime's lanes; each
//      point's value is converted out once.
// The basis block and the Yates levels live in buffers reused from
// block to block.
// eval(x0) is a one-point block. The input matrices are checked and
// converted to the Montgomery domain once per evaluator.
#pragma once

#include "core/proof_problem.hpp"
#include "count/clique.hpp"
#include "count/form62.hpp"

namespace camelot {

// The generalized (6,2)-form as a Camelot problem: answers {X(6,2)}.
// CliqueCountProblem below specializes it to the clique matrix.
class Form62Problem : public CamelotProblem {
 public:
  // `input` is padded to n0^t as needed. `value_bound` must bound the
  // integer value of X(6,2) (drives CRT prime selection). Throws
  // std::invalid_argument unless input.well_formed().
  Form62Problem(Form62Input input, TrilinearDecomposition dec,
                BigInt value_bound, std::string name = "form62");

  std::string name() const override { return name_; }
  ProofSpec spec() const override;
  std::unique_ptr<Evaluator> make_evaluator(
      const FieldOps& f) const override;
  std::vector<u64> recover(const Poly& proof, const FieldOps& f) const override;

  u64 rank() const noexcept { return rank_; }  // R = R0^t
  unsigned kron_t() const noexcept { return t_; }

 private:
  Form62Input input_;  // padded to n0^t
  TrilinearDecomposition dec_;
  BigInt value_bound_;
  std::string name_;
  unsigned t_ = 0;
  u64 rank_ = 0;
};

// Theorem 1: k-clique counting, 6 | k. The single answer is X(6,2);
// use cliques_from_answer to convert to the clique count.
class CliqueCountProblem : public CamelotProblem {
 public:
  CliqueCountProblem(const Graph& g, std::size_t k,
                     TrilinearDecomposition dec);

  std::string name() const override { return "count-k-cliques"; }
  ProofSpec spec() const override { return inner_->spec(); }
  std::unique_ptr<Evaluator> make_evaluator(
      const FieldOps& f) const override {
    return inner_->make_evaluator(f);
  }
  std::vector<u64> recover(const Poly& proof,
                           const FieldOps& f) const override {
    return inner_->recover(proof, f);
  }

  u64 rank() const noexcept { return inner_->rank(); }

  // X(6,2) -> number of k-cliques (exact division by the
  // multiplicity k!/((k/6)!)^6).
  BigInt cliques_from_answer(const BigInt& x) const;

 private:
  std::size_t k_;
  std::unique_ptr<Form62Problem> inner_;
};

}  // namespace camelot
