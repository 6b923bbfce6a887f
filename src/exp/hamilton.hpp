// Counting Hamiltonian cycles (paper Theorem 8(3); the paper sketches
// the construction as "a similar approach works ... [20]").
//
// Karp's inclusion-exclusion: the number of directed Hamiltonian
// cycles through vertex 0 equals
//   sum_{W subseteq V\{0}} (-1)^{|V\{0}| - |W|} walks_n(W),
// where walks_n(W) counts closed length-n walks from 0 that stay in
// W u {0}. Writing membership as 0/1 variables z_v, walks_n becomes a
// polynomial (iterated matrix-vector products through diag(z) A), so
// the permanent-style split applies: the first half of z comes from
// the interpolated vector D(x), the second half is summed explicitly.
// Proof size and per-node time O*(2^{n/2}).
#pragma once

#include "core/proof_problem.hpp"
#include "graph/graph.hpp"

namespace camelot {

class HamiltonCycleProblem : public CamelotProblem {
 public:
  // Requires 3 <= n <= 24.
  explicit HamiltonCycleProblem(const Graph& g);

  std::string name() const override { return "hamilton-cycles"; }
  ProofSpec spec() const override;
  std::unique_ptr<Evaluator> make_evaluator(
      const FieldOps& f) const override;
  std::vector<u64> recover(const Poly& proof, const FieldOps& f) const override;

  // The answer is the number of *directed* Hamiltonian cycles
  // (2x the undirected count).
  static BigInt undirected_from_answer(const BigInt& directed);

 private:
  Graph graph_;
  std::size_t h1_ = 0;  // interpolated variables (first half of V\{0})
  std::size_t h2_ = 0;  // explicitly summed variables
};

}  // namespace camelot
