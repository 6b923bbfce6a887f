#include "count/triangle_camelot.hpp"

#include <stdexcept>

#include "poly/multipoint.hpp"
#include "yates/poly_ext.hpp"

namespace camelot {

namespace {

std::vector<u64> transpose_table(const std::vector<u64>& tab, std::size_t nn,
                                 std::size_t rank) {
  std::vector<u64> out(rank * nn);
  for (std::size_t p = 0; p < nn; ++p) {
    for (std::size_t r = 0; r < rank; ++r) {
      out[r * nn + p] = tab[p * rank + r];
    }
  }
  return out;
}

class TriangleEvaluator : public Evaluator {
 public:
  TriangleEvaluator(const FieldOps& f, const TrilinearDecomposition& dec,
                    unsigned t, unsigned ell,
                    const std::vector<SparseEntry>& entries)
      : Evaluator(f) {
    const std::size_t nn = dec.n0 * dec.n0;
    ext_a_ = std::make_unique<YatesPolynomialExtension>(
        f, transpose_table(dec.alpha_mod(f.prime()), nn, dec.rank), dec.rank,
        nn, t, entries, static_cast<int>(ell));
    ext_b_ = std::make_unique<YatesPolynomialExtension>(
        f, transpose_table(dec.beta_mod(f.prime()), nn, dec.rank), dec.rank,
        nn, t, entries, static_cast<int>(ell));
    ext_c_ = std::make_unique<YatesPolynomialExtension>(
        f, transpose_table(dec.gamma_mod(f.prime()), nn, dec.rank), dec.rank,
        nn, t, entries, static_cast<int>(ell));
  }

  u64 eval(u64 z0) override {
    // P(z0) = sum_{r'} A_{r'}(z0) B_{r'}(z0) C_{r'}(z0). The three
    // extensions share the outer Lagrange basis (same decomposition
    // parameters), so Phi(z0) is computed once; products and the
    // accumulator stay in the Montgomery domain, converted exactly
    // once on return.
    const MontgomeryField& m = ext_a_->mont();
    const std::vector<u64> phi = ext_a_->lagrange().basis_mont(z0);
    const std::vector<u64> pa = ext_a_->evaluate_mont_with_phi(phi);
    const std::vector<u64> pb = ext_b_->evaluate_mont_with_phi(phi);
    const std::vector<u64> pc = ext_c_->evaluate_mont_with_phi(phi);
    u64 acc = 0;
    for (std::size_t i = 0; i < pa.size(); ++i) {
      acc = m.add(acc, m.mul(pa[i], m.mul(pb[i], pc[i])));
    }
    return m.from_mont(acc);
  }
  // evaluate_points: the inherited per-point loop already amortizes
  // everything point-independent (Lagrange factorial cache, Montgomery
  // tables), because that state lives in the extensions built at
  // construction.

 private:
  std::unique_ptr<YatesPolynomialExtension> ext_a_, ext_b_, ext_c_;
};

}  // namespace

TriangleCountProblem::TriangleCountProblem(const Graph& g,
                                           TrilinearDecomposition dec,
                                           int ell_override)
    : dec_(std::move(dec)), n_vertices_(g.num_vertices()) {
  if (g.num_edges() == 0) {
    throw std::invalid_argument(
        "TriangleCountProblem: empty graph (trace is trivially 0)");
  }
  t_ = kronecker_exponent(dec_.n0,
                          std::max<std::size_t>(g.num_vertices(), 2));
  entries_ = adjacency_sparse_interleaved(g, dec_.n0, t_);
  if (ell_override >= 0) {
    ell_ = std::min<unsigned>(static_cast<unsigned>(ell_override), t_);
  } else {
    unsigned ell = 0;
    while (ipow(dec_.rank, ell) < entries_.size() && ell < t_) ++ell;
    ell_ = ell;
  }
  num_outer_ = ipow(dec_.rank, t_ - ell_);
  part_size_ = ipow(dec_.rank, ell_);
}

ProofSpec TriangleCountProblem::spec() const {
  ProofSpec s;
  s.degree_bound = 3 * (num_outer_ - 1);
  // The Yates extension's Lagrange nodes 1..R/m' must be distinct mod q.
  s.min_modulus = num_outer_ + 1;
  s.answer_count = 1;
  // trace(A^3) <= n^3.
  s.answer_bound =
      BigInt::from_u64(n_vertices_).pow_u32(3) + BigInt(6);
  return s;
}

std::unique_ptr<Evaluator> TriangleCountProblem::make_evaluator(
    const FieldOps& f) const {
  return std::make_unique<TriangleEvaluator>(f, dec_, t_, ell_, entries_);
}

std::vector<u64> TriangleCountProblem::recover(const Poly& proof,
                                               const FieldOps& f) const {
  return {range_sum(proof, 1, num_outer_, f)};
}

BigInt TriangleCountProblem::triangles_from_answer(const BigInt& trace) {
  u64 rem = 0;
  BigInt t = trace.divmod_u64(6, &rem);
  if (rem != 0) {
    throw std::logic_error("triangles_from_answer: trace not divisible by 6");
  }
  return t;
}

}  // namespace camelot
