#include "apps/hamming.hpp"

#include <stdexcept>

#include "poly/lagrange.hpp"
#include "poly/multipoint.hpp"

namespace camelot {

HammingDistributionProblem::HammingDistributionProblem(BoolMatrix a,
                                                       BoolMatrix b)
    : a_(std::move(a)), b_(std::move(b)) {
  if (a_.rows == 0 || a_.rows != b_.rows || a_.cols != b_.cols ||
      a_.cols == 0) {
    throw std::invalid_argument("HammingDistribution: shape mismatch");
  }
}

ProofSpec HammingDistributionProblem::spec() const {
  const std::size_t n = a_.rows, t = a_.cols;
  const std::size_t points = n * (t + 1);
  ProofSpec s;
  s.degree_bound = t * (points - 1);
  // Recovery reads P at points up to n(t+1)+t (with 1-based i).
  s.min_modulus = n * (t + 1) + t + 2;
  s.answer_count = n * (t + 1);
  s.answer_bound = BigInt::from_u64(n);
  return s;
}

namespace {

class HammingEvaluator : public Evaluator {
 public:
  // Interpolation nodes are the consecutive integers (i+1)(t+1)+h for
  // i = 0..n-1, h = 0..t, i.e. t+1 .. n(t+1)+t; their Lagrange cache
  // is built once per evaluator, not once per point.
  HammingEvaluator(const FieldOps& f, const BoolMatrix& a,
                   const BoolMatrix& b)
      : Evaluator(f),
        a_(a),
        b_(b),
        lagrange_(a.cols + 1, a.rows * (a.cols + 1), f) {}

  u64 eval(u64 x0) override {
    const std::size_t n = a_.rows, t = a_.cols;
    const std::vector<u64> basis = lagrange_.basis(x0);
    // Row/column partial sums of the basis.
    std::vector<u64> row_sum(n, 0), col_sum(t + 1, 0);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t h = 0; h <= t; ++h) {
        const u64 v = basis[i * (t + 1) + h];
        row_sum[i] = field_.add(row_sum[i], v);
        col_sum[h] = field_.add(col_sum[h], v);
      }
    }
    // z_j = A_j(x0), w_j = H_j(x0).
    std::vector<u64> z(t, 0), w(t, 0);
    for (std::size_t j = 0; j < t; ++j) {
      for (std::size_t i = 0; i < n; ++i) {
        if (a_.at(i, j)) z[j] = field_.add(z[j], row_sum[i]);
      }
      for (std::size_t h = 0; h <= t; ++h) {
        const u64 hv = j < h ? j : j + 1;  // {0..t} \ {h}, j-th element
        w[j] = field_.add(w[j], field_.mul(field_.reduce(hv), col_sum[h]));
      }
    }
    // B (eq. (40)): sum_i prod_l (dist_i - w_l).
    u64 total = 0;
    for (std::size_t i = 0; i < n; ++i) {
      u64 dist = 0;
      for (std::size_t j = 0; j < t; ++j) {
        // (1-z_j) b_ij + z_j (1-b_ij).
        dist = field_.add(dist, b_.at(i, j) ? field_.sub(1, z[j]) : z[j]);
      }
      u64 prod = field_.one();
      for (std::size_t l = 0; l < t && prod != 0; ++l) {
        prod = field_.mul(prod, field_.sub(dist, w[l]));
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

std::unique_ptr<Evaluator> HammingDistributionProblem::make_evaluator(
    const FieldOps& f) const {
  return std::make_unique<HammingEvaluator>(f, a_, b_);
}

std::vector<u64> HammingDistributionProblem::recover(
    const Poly& proof, const FieldOps& f) const {
  const PrimeField& pf = f.prime();
  const std::size_t n = a_.rows, t = a_.cols;
  // Row i's values sit at the points (i+1)(t+1) + h, h = 0..t: one
  // consecutive range over all rows.
  std::vector<u64> out = range_evaluate(proof, t + 1, n * (t + 1) + t, f);
  // Scale factors prod_{l != h} (h - l) = (-1)^{t-h} h! (t-h)!.
  std::vector<u64> fact(t + 2);
  fact[0] = pf.one();
  for (std::size_t i = 1; i <= t + 1; ++i) {
    fact[i] = pf.mul(fact[i - 1], pf.reduce(i));
  }
  std::vector<u64> inv_scale(t + 1);
  for (std::size_t h = 0; h <= t; ++h) {
    u64 scale = pf.mul(fact[h], fact[t - h]);
    if ((t - h) % 2 == 1) scale = pf.neg(scale);
    inv_scale[h] = pf.inv(scale);
  }
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t h = 0; h <= t; ++h) {
      out[i * (t + 1) + h] = pf.mul(out[i * (t + 1) + h], inv_scale[h]);
    }
  }
  return out;
}

std::vector<u64> hamming_distribution_brute(const BoolMatrix& a,
                                            const BoolMatrix& b) {
  const std::size_t n = a.rows, t = a.cols;
  std::vector<u64> out(n * (t + 1), 0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t k = 0; k < n; ++k) {
      std::size_t h = 0;
      for (std::size_t j = 0; j < t; ++j) h += a.at(i, j) != b.at(k, j);
      ++out[i * (t + 1) + h];
    }
  }
  return out;
}

}  // namespace camelot
