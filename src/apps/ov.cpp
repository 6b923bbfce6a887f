#include "apps/ov.hpp"

#include <random>
#include <stdexcept>

#include "poly/lagrange.hpp"
#include "poly/multipoint.hpp"

namespace camelot {

BoolMatrix BoolMatrix::random(std::size_t rows, std::size_t cols,
                              double density, u64 seed) {
  std::mt19937_64 rng(seed);
  std::bernoulli_distribution coin(density);
  BoolMatrix m;
  m.rows = rows;
  m.cols = cols;
  m.bits.resize(rows * cols);
  for (char& b : m.bits) b = coin(rng) ? 1 : 0;
  return m;
}

OrthogonalVectorsProblem::OrthogonalVectorsProblem(BoolMatrix a, BoolMatrix b)
    : a_(std::move(a)), b_(std::move(b)) {
  if (a_.rows == 0 || a_.rows != b_.rows || a_.cols != b_.cols) {
    throw std::invalid_argument("OrthogonalVectors: shape mismatch");
  }
}

ProofSpec OrthogonalVectorsProblem::spec() const {
  ProofSpec s;
  // B has total degree t; each A_j has degree <= n-1.
  s.degree_bound = a_.cols * (a_.rows - 1);
  s.min_modulus = a_.rows + 1;  // recovery reads P(1..n)
  s.answer_count = a_.rows;
  s.answer_bound = BigInt::from_u64(a_.rows);
  return s;
}

namespace {

class OvEvaluator : public Evaluator {
 public:
  // The Lagrange cache (factorial products, batch-inverted weights)
  // depends only on the node set 1..n, so it is built once per
  // evaluator instead of once per evaluation point.
  OvEvaluator(const FieldOps& f, const BoolMatrix& a, const BoolMatrix& b)
      : Evaluator(f), a_(a), b_(b), lagrange_(1, a.rows, f) {}

  u64 eval(u64 x0) override {
    const std::size_t n = a_.rows, t = a_.cols;
    // A_j(x0) via one shared Lagrange basis over the nodes 1..n.
    const std::vector<u64> basis = lagrange_.basis(x0);
    std::vector<u64> z(t, 0);
    for (std::size_t i = 0; i < n; ++i) {
      if (basis[i] == 0) continue;
      for (std::size_t j = 0; j < t; ++j) {
        if (a_.at(i, j)) z[j] = field_.add(z[j], basis[i]);
      }
    }
    // B(z) = sum_i prod_j (1 - b_ij z_j).
    u64 total = 0;
    for (std::size_t i = 0; i < n; ++i) {
      u64 prod = field_.one();
      for (std::size_t j = 0; j < t && prod != 0; ++j) {
        if (b_.at(i, j)) prod = field_.mul(prod, field_.sub(1, z[j]));
      }
      total = field_.add(total, prod);
    }
    return total;
  }

 private:
  const BoolMatrix& a_;
  const BoolMatrix& b_;
  ConsecutiveLagrange lagrange_;
};

}  // namespace

std::unique_ptr<Evaluator> OrthogonalVectorsProblem::make_evaluator(
    const FieldOps& f) const {
  return std::make_unique<OvEvaluator>(f, a_, b_);
}

std::vector<u64> OrthogonalVectorsProblem::recover(
    const Poly& proof, const FieldOps& f) const {
  return range_evaluate(proof, 1, a_.rows, f);
}

std::vector<u64> count_orthogonal_brute(const BoolMatrix& a,
                                        const BoolMatrix& b) {
  std::vector<u64> c(a.rows, 0);
  for (std::size_t i = 0; i < a.rows; ++i) {
    for (std::size_t k = 0; k < b.rows; ++k) {
      bool orth = true;
      for (std::size_t j = 0; j < a.cols; ++j) {
        if (a.at(i, j) && b.at(k, j)) {
          orth = false;
          break;
        }
      }
      if (orth) ++c[i];
    }
  }
  return c;
}

}  // namespace camelot
