#include "count/clique_camelot.hpp"

#include <span>
#include <stdexcept>

#include "poly/lagrange.hpp"
#include "poly/multipoint.hpp"
#include "yates/yates.hpp"

namespace camelot {

namespace {

class Form62Evaluator : public Evaluator {
 public:
  Form62Evaluator(const FieldOps& f, const Form62Input& input,
                  const TrilinearDecomposition& dec, unsigned t, u64 rank)
      : Evaluator(f),
        input_(input),
        dec_(dec),
        t_(t),
        rank_(rank),
        // Per-node precomputation, shared by every evaluation point:
        // the Lagrange factorial cache for the nodes 1..R ...
        lagrange_(1, static_cast<std::size_t>(rank), f) {
    // ... and the coefficient tables, in the Montgomery domain so the
    // Yates passes below run division-free.
    const MontgomeryField& m = lagrange_.mont();
    alpha_table_ = m.to_mont_vec(dec_.alpha_mod(field_));
    beta_table_ = m.to_mont_vec(dec_.beta_mod(field_));
    gamma_table_ = m.to_mont_vec(dec_.gamma_mod(field_));
  }

  u64 eval(u64 x0) override {
    const std::size_t n = input_.size();
    // Step 1: Lambda_r(x0) for r = 1..R by the factorial trick, O(R)
    // multiplications and no inversion (cache is point-independent).
    const std::vector<u64> lambda = lagrange_.basis_mont(x0);
    // Step 2: interpolated coefficient matrices via Yates on the
    // Kronecker-structured tables (eq. (17)/(18)).
    Matrix alpha_mat = coefficient_matrix(alpha_table_, lambda, n);
    Matrix beta_mat = coefficient_matrix(beta_table_, lambda, n);
    Matrix gamma_mat = coefficient_matrix(gamma_table_, lambda, n);
    // Step 3: the circuit (15)-(16) with fast matrix multiplication.
    return form62_circuit_term(input_, alpha_mat, beta_mat, gamma_mat,
                               field_);
  }
  // evaluate_points: the inherited per-point loop already amortizes
  // the factorial cache and the Montgomery-domain tables built at
  // construction.

 private:
  Matrix coefficient_matrix(const std::vector<u64>& table_mont,
                            std::span<const u64> lambda_mont,
                            std::size_t n) const {
    const MontgomeryField& m = lagrange_.mont();
    const std::size_t nn = dec_.n0 * dec_.n0;
    std::vector<u64> vec =
        yates_apply(m, table_mont, nn, dec_.rank, lambda_mont, t_);
    // The circuit's matrix products run on canonical representatives;
    // convert the n^2 interpolated coefficients once.
    m.from_mont_inplace(vec);
    Matrix out(n, n);
    for (u64 d = 0; d < n; ++d) {
      for (u64 e = 0; e < n; ++e) {
        out.at(d, e) = vec[interleave_pair_index(d, e, dec_.n0, t_)];
      }
    }
    return out;
  }

  const Form62Input& input_;
  const TrilinearDecomposition& dec_;
  unsigned t_;
  u64 rank_;
  ConsecutiveLagrange lagrange_;
  std::vector<u64> alpha_table_, beta_table_, gamma_table_;
};

}  // namespace

Form62Problem::Form62Problem(Form62Input input, TrilinearDecomposition dec,
                             BigInt value_bound, std::string name)
    : input_(std::move(input)),
      dec_(std::move(dec)),
      value_bound_(std::move(value_bound)),
      name_(std::move(name)) {
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
  return std::make_unique<Form62Evaluator>(f, input_, dec_, t_, rank_);
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
