#include "count/clique_camelot.hpp"

#include <algorithm>
#include <span>
#include <stdexcept>

#include "count/form62_block.hpp"
#include "poly/multipoint.hpp"

namespace camelot {

namespace {

class Form62Evaluator : public Evaluator {
 public:
  // Per-node precomputation, shared by every evaluation point: the
  // Lagrange cache and coefficient tables, and the 15 input matrices
  // in the Montgomery domain.
  Form62Evaluator(const FieldOps& f, const Form62Input& input,
                  const TrilinearDecomposition& dec, unsigned t)
      : Evaluator(f), coefficients_(dec, t, f), circuit_(input, f) {}

  u64 eval(u64 x0) override { return evaluate_points({&x0, 1})[0]; }

  std::vector<u64> evaluate_points(std::span<const u64> xs) override {
    std::vector<u64> out(xs.size());
    Form62Blocks blocks;
    std::vector<u64> scratch;
    for (std::size_t lo = 0; lo < xs.size(); lo += kPointBlock) {
      coefficients_.interpolate(
          xs.subspan(lo, std::min(kPointBlock, xs.size() - lo)), blocks);
      circuit_.evaluate(blocks, out.data() + lo, scratch);
    }
    ops_.mont().from_mont_inplace(out);
    return out;
  }

 private:
  Form62Coefficients coefficients_;
  Form62BlockCircuit circuit_;
};

}  // namespace

Form62Problem::Form62Problem(Form62Input input, TrilinearDecomposition dec,
                             BigInt value_bound, std::string name)
    : input_(std::move(input)),
      dec_(std::move(dec)),
      value_bound_(std::move(value_bound)),
      name_(std::move(name)) {
  if (!input_.well_formed()) {
    throw std::invalid_argument(
        "Form62Problem: the 15 matrices must be square, non-empty and of "
        "one size");
  }
  t_ = kronecker_exponent(dec_.n0, input_.size());
  const std::size_t n_pad = ipow(dec_.n0, t_);
  if (input_.size() != n_pad) {
    input_ = form62_padded(input_, n_pad);
  }
  rank_ = ipow(dec_.rank, t_);
}

ProofSpec Form62Problem::spec() const {
  ProofSpec s;
  s.degree_bound = 3 * (rank_ - 1);
  // q must exceed R so that the evaluator's Lagrange nodes 1..R are
  // distinct mod q (the prime plan additionally forces q > e >= d+1).
  s.min_modulus = rank_ + 1;
  s.answer_count = 1;
  s.answer_bound = value_bound_;
  return s;
}

std::unique_ptr<Evaluator> Form62Problem::make_evaluator(
    const FieldOps& f) const {
  return std::make_unique<Form62Evaluator>(f, input_, dec_, t_);
}

std::vector<u64> Form62Problem::recover(const Poly& proof,
                                        const FieldOps& f) const {
  // X(6,2) = sum_{r=1}^{R} P(r)  (Theorem 13).
  return {range_sum(proof, 1, rank_, f)};
}

CliqueCountProblem::CliqueCountProblem(const Graph& g, std::size_t k,
                                       TrilinearDecomposition dec)
    : k_(k) {
  Matrix chi = clique_chi_matrix(g, k);
  if (chi.rows() == 0) {
    throw std::invalid_argument(
        "CliqueCountProblem: graph has no k/6-subsets (n too small)");
  }
  const unsigned t = kronecker_exponent(dec.n0, chi.rows());
  const std::size_t n_pad = ipow(dec.n0, t);
  BigInt bound = BigInt::from_u64(n_pad).pow_u32(6);
  inner_ = std::make_unique<Form62Problem>(
      Form62Input::uniform(chi), std::move(dec), std::move(bound),
      "count-k-cliques");
}

BigInt CliqueCountProblem::cliques_from_answer(const BigInt& x) const {
  return divide_exact_smooth(x, clique_multiplicity(k_));
}

}  // namespace camelot
