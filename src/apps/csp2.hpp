// Enumerating 2-CSP variable assignments by the number of satisfied
// constraints (paper §B.1, Theorem 12).
//
// Partition the n variables (6 | n) into six groups; the generating
// polynomial X(w) = sum_k hist_k w^k is the (6,2)-linear form over the
// 15 matrices chi^{(s,t)}(w)_{a_s,a_t} = w^{#type-(s,t) constraints
// satisfied}. Evaluate X at w0 = 0..m and interpolate to read off the
// histogram. Each evaluation is a clique-style Camelot proof; one
// bundled proof covers the whole sweep.
#pragma once

#include "core/proof_problem.hpp"
#include "count/form62.hpp"

namespace camelot {

struct Csp2Constraint {
  u32 u = 0, v = 0;           // variable indices, u != v
  std::vector<char> allowed;  // sigma*sigma, indexed val(u)*sigma+val(v)
};

struct Csp2Instance {
  unsigned num_vars = 0;  // divisible by 6
  unsigned sigma = 2;
  std::vector<Csp2Constraint> constraints;

  static Csp2Instance random(unsigned num_vars, unsigned sigma,
                             std::size_t num_constraints, double density,
                             u64 seed);
};

// Histogram of assignments by #satisfied constraints, by sigma^n
// enumeration (ground truth; sigma^n <= ~10^7).
std::vector<u64> csp2_histogram_brute(const Csp2Instance& inst);

// Sequential Theorem 12 path: X(w0) via the §4.2 circuit for
// w0 = 0..m, interpolated per CRT prime.
std::vector<BigInt> csp2_histogram_form62(const Csp2Instance& inst,
                                          const TrilinearDecomposition& dec);

// The bundled Camelot problem; answers are the histogram counts
// hist_0..hist_m (assignments satisfying exactly k constraints).
class Csp2Problem : public CamelotProblem {
 public:
  Csp2Problem(Csp2Instance inst, TrilinearDecomposition dec);

  std::string name() const override { return "csp2-enumeration"; }
  ProofSpec spec() const override;
  std::unique_ptr<Evaluator> make_evaluator(
      const FieldOps& f) const override;
  std::vector<u64> recover(const Poly& proof, const FieldOps& f) const override;

  u64 rank() const noexcept { return rank_; }
  std::size_t group_size() const noexcept { return group_size_; }

  // The 15 matrices for weight w0 over field f (padded to n0^t).
  Form62Input build_input(u64 w0, const PrimeField& f) const;

 private:
  Csp2Instance inst_;
  TrilinearDecomposition dec_;
  unsigned t_ = 0;
  u64 rank_ = 0;
  std::size_t group_size_ = 0;  // sigma^{n/6}
  std::size_t padded_ = 0;      // n0^t
  // Per pair (s,t): satisfied-count tables f^{(s,t)}(a_s, a_t).
  std::vector<std::vector<u32>> sat_counts_;
};

}  // namespace camelot
